package repro.core

import repro.lp.Simplex
import scala.collection.mutable

/** Maximum flow computation as a linear program (Section 4.2.1).
  *
  * One variable `x_i` per interaction that does **not** originate from the
  * source (source-outgoing interactions are fixed at `x_i = q_i` — the
  * source's buffer is infinite so sending less can never help). Constraints:
  *
  *   (1)  0 <= x_i <= q_i                                     (variable bounds)
  *   (2)  x_i <= Σ_{in before t_i} x_j − Σ_{out before t_i} x_j  per interaction
  *   (3)  maximize Σ_{dest_i = sink} x_i
  *
  * Incoming interactions from the source contribute their full `q_j` as a
  * constant on the right-hand side of (2). Direct source→sink interactions
  * contribute a constant to the objective. "Before" is strict (`t_j < t_i`),
  * implemented with a per-vertex timestamp-group sweep.
  *
  * The LP is handed to [[repro.lp.Simplex]] (the lpsolve substitute).
  */
object MaxFlowLP {

  /** Max flow value plus the size of the LP actually solved. */
  final case class Result(flow: Double, numVariables: Int, numConstraints: Int)

  def maxFlow(g: FlowGraph): Double = solve(g).flow

  def solve(g: FlowGraph): Result = {
    val inters = g.interactions
    val source = g.source
    val sink   = g.sink

    // Variable index per non-source interaction, in global time order.
    val varIdx = mutable.Map.empty[Int, Int] // position in `inters` -> var id
    var n      = 0
    inters.indices.foreach { k =>
      if (inters(k).src != source) { varIdx(k) = n; n += 1 }
    }

    // Constant objective term: direct source -> sink interactions.
    val directConst = inters.iterator
      .filter(i => i.src == source && i.dst == sink)
      .map(_.qty)
      .sum

    if (n == 0) return Result(directConst, 0, 0)

    val c = Array.fill(n)(0.0)
    inters.indices.foreach { k =>
      if (inters(k).dst == sink) varIdx.get(k).foreach(v => c(v) = 1.0)
    }

    // Per-vertex sweep building constraint (2) for each outgoing interaction.
    // Events of vertex v: every interaction with src == v (outgoing) or
    // dst == v (incoming), processed in global time order grouped by
    // timestamp so that same-time events see the pre-group state.
    val rows = mutable.ArrayBuffer.empty[Array[Double]]
    val rhs  = mutable.ArrayBuffer.empty[Double]

    val byVertex = mutable.Map.empty[Int, mutable.ArrayBuffer[Int]] // vertex -> interaction positions
    inters.indices.foreach { k =>
      val i = inters(k)
      if (i.src != source) byVertex.getOrElseUpdate(i.src, mutable.ArrayBuffer.empty) += k
      if (i.dst != source) byVertex.getOrElseUpdate(i.dst, mutable.ArrayBuffer.empty) += k
    }

    byVertex.foreach { case (v, ks) =>
      if (v != source) {
        // State before the current timestamp group.
        var srcInflowConst = 0.0
        val inVars         = mutable.ArrayBuffer.empty[Int]
        val outVars        = mutable.ArrayBuffer.empty[Int]
        var idx            = 0
        val sorted         = ks.sortBy(k => inters(k).ts)
        while (idx < sorted.length) {
          val ts       = inters(sorted(idx)).ts
          var groupEnd = idx
          while (groupEnd < sorted.length && inters(sorted(groupEnd)).ts == ts) groupEnd += 1
          // Emit constraints for this group's outgoing interactions against
          // the pre-group state.
          var j = idx
          while (j < groupEnd) {
            val k = sorted(j)
            val i = inters(k)
            if (i.src == v) {
              val row = Array.fill(n)(0.0)
              row(varIdx(k)) = 1.0
              outVars.foreach(o => row(o) += 1.0)
              inVars.foreach(o => row(o) -= 1.0)
              rows += row
              rhs += srcInflowConst
            }
            j += 1
          }
          // Apply the group's updates.
          j = idx
          while (j < groupEnd) {
            val k = sorted(j)
            val i = inters(k)
            if (i.src == v) outVars += varIdx(k)
            if (i.dst == v) {
              if (i.src == source) srcInflowConst += i.qty
              else inVars += varIdx(k)
            }
            j += 1
          }
          idx = groupEnd
        }
      }
    }

    // Bounds x_i <= q_i, passed to the simplex as variable bounds rather
    // than rows; they still count as constraints of the LP.
    val upper = new Array[Double](n)
    varIdx.foreach { case (k, vi) => upper(vi) = inters(k).qty }

    val sol = Simplex.maximize(rows.toArray, rhs.toArray, c, upper)
    Result(sol.value + directConst, n, rows.length + upper.count(!_.isInfinity))
  }
}
