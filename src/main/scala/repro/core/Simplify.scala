package repro.core

import scala.collection.mutable

/** Graph simplification (Section 4.2.4, Algorithm 2, Lemma 3).
  *
  * Any chain `s -> v1 -> … -> vk` hanging off the source — every `vi`, `i<k`,
  * with in-degree and out-degree exactly 1 — can be replaced by a single edge
  * `(s, vk)` whose interactions are the arrivals into `vk` produced by
  * running the greedy algorithm on the chain (reserving quantity at the
  * source or at chain-interior vertices can never increase the flow reaching
  * the sink, so greedy is exact there). If an edge `(s, vk)` already exists,
  * the interaction sets are merged; merging may surface new reducible chains,
  * so the reduction iterates to a fixpoint (Figure 7's example).
  *
  * Each removed edge is processed once by a greedy scan, so the whole
  * procedure is linear in the number of interactions.
  */
object Simplify {

  final case class Result(graph: FlowGraph, chainsReduced: Int, removedInteractions: Int, removedEdges: Int)

  def run(g: FlowGraph): Result = {
    val m = new MutableGraph(g)

    /** First vertex `v1` of a reducible chain off the source, if any:
      * `v1 ≠ sink`, `v1`'s only in-neighbour is `s`, out-degree 1, and it is
      * not a self-referential 2-cycle with the source.
      */
    def findChainStart(): Option[Int] =
      m.outOf(g.source).find { v1 =>
        v1 != g.sink && v1 != g.source &&
        m.inOf(v1) == Set(g.source) && m.outOf(v1).size == 1 &&
        m.outOf(v1).head != v1 && m.outOf(v1).head != g.source
      }

    var chains = 0
    var start  = findChainStart()
    while (start.isDefined) {
      val v1 = start.get
      // Follow the chain: interior vertices have in-degree 1 and out-degree 1.
      val interior = mutable.ArrayBuffer(v1)
      var cur      = m.outOf(v1).head
      var go       = true
      while (go) {
        if (cur != g.sink && cur != g.source &&
            m.inOf(cur).size == 1 && m.outOf(cur).size == 1 &&
            m.outOf(cur).head != cur && m.outOf(cur).head != g.source &&
            !interior.contains(m.outOf(cur).head)) {
          interior += cur
          cur = m.outOf(cur).head
        } else go = false
      }
      val vk = cur
      // Remove the chain's edges s -> v1 -> … -> vk; greedy over their
      // sequences yields the arrivals into vk (Lemma 3).
      val pathVertices = g.source +: interior.toVector :+ vk
      val seqs = pathVertices.sliding(2).map(w => m.removeEdge(w(0), w(1))).toVector
      m.mergeEdge(g.source, vk, Greedy.chain(seqs).sinkArrivals)
      chains += 1
      start = findChainStart()
    }

    Result(m.toFlowGraph, chains, m.removedInteractions, m.removedEdges)
  }
}
