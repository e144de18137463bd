package repro.core

import scala.collection.mutable

/** Graph preprocessing (Section 4.2.3, Algorithm 1).
  *
  * Walk the vertices in topological order; for each vertex `v` other than the
  * source and sink, delete from `v`'s outgoing edges every interaction whose
  * timestamp is smaller than the minimum timestamp over `v`'s surviving
  * incoming interactions — by that time `v` cannot have received anything, so
  * the interaction can never carry flow. Edge deletions cascade:
  *
  *   - a vertex left with no incoming edges (it can receive nothing) is
  *     removed with its outgoing edges — handled when it is examined, since
  *     it follows its deleted predecessors in topological order;
  *   - a vertex left with no outgoing edges (it can forward nothing) is
  *     removed with its incoming edges, recursively upwards, immediately —
  *     its predecessors were already examined.
  *
  * Cycle-seed subgraphs (Section 6.2) may contain directed cycles between
  * intermediate vertices, where no topological order exists. For those we run
  * the same timestamp rule as a fixpoint iteration followed by a
  * reachability cleanup — every individual deletion is justified by the same
  * argument, so safety is unchanged; only the single-pass guarantee is lost
  * (documented extension, DESIGN.md §2).
  */
object Preprocess {

  final case class Result(
      graph: FlowGraph,
      removedInteractions: Int,
      removedEdges: Int,
      removedVertices: Int,
  ) {
    /** Preprocessing proved the flow is 0 (source or sink got disconnected). */
    def zeroFlow: Boolean = graph.isEmpty
  }

  def run(g: FlowGraph): Result = {
    val m = new MutableGraph(g)
    g.topologicalOrder match {
      case Some(order) => runDag(m, order)
      case None        => runFixpoint(m)
    }
    cleanupReachability(m)
    Result(m.toFlowGraph, m.removedInteractions, m.removedEdges, m.removedVertices)
  }

  /** Algorithm 1: single pass in topological order. */
  private def runDag(m: MutableGraph, order: Vector[Int]): Unit = {
    order.foreach { v =>
      if (v != m.source && v != m.sink && m.alive(v)) {
        if (m.inOf(v).isEmpty) m.removeVertex(v) // can never receive anything
        else {
          pruneAt(m, v)
          if (m.outOf(v).isEmpty) removeUpwards(m, v) // can never forward
        }
      }
    }
    // The sink may have lost all incoming edges (zero flow).
    if (m.alive(m.sink) && m.inOf(m.sink).isEmpty) m.clear()
  }

  /** Non-DAG fallback: iterate the same rule to fixpoint (the cleanup
    * follows in [[run]]).
    */
  private def runFixpoint(m: MutableGraph): Unit = {
    var changed = true
    while (changed) {
      changed = false
      m.alive.foreach { v =>
        if (v != m.source && v != m.sink && pruneAt(m, v)) changed = true
      }
    }
  }

  /** Delete `v` and cascade upwards through predecessors that lose their
    * last outgoing edge (Algorithm 1, lines 18–22).
    */
  private def removeUpwards(m: MutableGraph, v: Int): Unit = {
    val preds = m.inOf(v).toVector // copy: removing v empties inOf(v)
    m.removeVertex(v)
    preds.foreach { w =>
      if (w != m.source && m.alive(w) && m.outOf(w).isEmpty) removeUpwards(m, w)
    }
  }

  /** Apply the timestamp rule at `v`; returns true if anything changed.
    * Edge sequences are time-sorted, so each edge's head is its minimum.
    */
  private def pruneAt(m: MutableGraph, v: Int): Boolean =
    m.inOf(v).iterator.flatMap(w => m.edge(w, v).headOption.map(_._1)).minOption match {
      case None => false
      case Some(minTs) =>
        var changed = false
        m.outOf(v).toVector.foreach { u => // copy: removeEdge edits outOf(v)
          val es   = m.edge(v, u)
          val kept = es.filter { case (t, _) => t >= minTs }
          if (kept.size != es.size) {
            changed = true
            m.removeEdge(v, u)
            m.mergeEdge(v, u, kept)
          }
        }
        changed
    }

  /** Keep only vertices on some source→…→sink path; everything else cannot
    * carry flow and is removed (generalises the cascade deletions). If the
    * source or sink dropped out or got disconnected, the flow is 0 and every
    * edge goes.
    */
  private def cleanupReachability(m: MutableGraph): Unit = {
    def closure(start: Int, step: Int => collection.Set[Int]): collection.Set[Int] = {
      val seen  = mutable.Set(start)
      val stack = mutable.Stack(start)
      while (stack.nonEmpty) {
        step(stack.pop()).foreach(u => if (seen.add(u)) stack.push(u))
      }
      seen
    }
    if (!m.alive(m.source) || !m.alive(m.sink)) m.clear()
    else {
      val keep = closure(m.source, m.outOf) intersect closure(m.sink, m.inOf)
      if (!keep(m.sink) || !keep(m.source)) m.clear()
      else m.alive.toVector.foreach(v => if (!keep(v)) m.removeVertex(v)) // copy: removeVertex edits alive
    }
  }
}
