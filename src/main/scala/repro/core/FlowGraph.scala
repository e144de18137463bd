package repro.core

import scala.collection.mutable

/** One transfer event: quantity `qty` moves from `src` to `dst` at time `ts`.
  *
  * This is the row type shared by the in-memory algorithms and the Spark
  * Dataset pipelines (it has a product encoder).
  */
final case class Interaction(src: Int, dst: Int, ts: Long, qty: Double)

/** A temporal interaction (sub-)network with a designated source and sink
  * (Section 3/4 of the paper).
  *
  * Edges map `(src, dst)` to the edge's interaction sequence `e_S`, kept
  * sorted by timestamp (ties keep construction order — the paper assumes
  * distinct timestamps; see DESIGN.md §3 for the tie semantics we enforce).
  *
  * The source is assumed to hold an infinite buffer; the flow of the graph is
  * whatever ends up buffered at the sink (Definitions 4–5).
  */
final class FlowGraph(
    val source: Int,
    val sink: Int,
    val edges: Map[(Int, Int), Vector[(Long, Double)]],
) {

  /** All vertices incident to an edge, plus source and sink. */
  lazy val vertices: Set[Int] =
    edges.keysIterator.flatMap { case (a, b) => Iterator(a, b) }.toSet + source + sink

  /** Distinct out-neighbours per vertex. */
  lazy val outNeighbors: Map[Int, Vector[Int]] =
    edges.keysIterator.toVector.groupMap(_._1)(_._2).withDefaultValue(Vector.empty)

  /** Distinct in-neighbours per vertex. */
  lazy val inNeighbors: Map[Int, Vector[Int]] =
    edges.keysIterator.toVector.groupMap(_._2)(_._1).withDefaultValue(Vector.empty)

  def outDegree(v: Int): Int = outNeighbors(v).size
  def inDegree(v: Int): Int  = inNeighbors(v).size

  def interactionCount: Int = edges.valuesIterator.map(_.size).sum

  def edgeCount: Int = edges.size

  def vertexCount: Int = vertices.size

  /** All interactions globally ordered by timestamp (stable within ties). */
  lazy val interactions: Vector[Interaction] = {
    val all = edges.iterator.flatMap { case ((s, d), es) =>
      es.iterator.map { case (t, q) => Interaction(s, d, t, q) }
    }.toVector
    all.sortBy(_.ts) // Vector.sortBy is stable
  }

  def isEmpty: Boolean = edges.isEmpty

  /** Kahn topological order over all vertices, or None if the graph has a
    * directed cycle. Used by preprocessing (Algorithm 1) and the Lemma 2
    * solubility check, both of which only apply to DAGs.
    */
  lazy val topologicalOrder: Option[Vector[Int]] = {
    val indeg = mutable.Map.empty[Int, Int].withDefaultValue(0)
    vertices.foreach(v => indeg(v) = 0)
    edges.keysIterator.foreach { case (_, d) => indeg(d) += 1 }
    val queue = mutable.Queue.empty[Int]
    vertices.toVector.sorted.foreach(v => if (indeg(v) == 0) queue.enqueue(v))
    val order = Vector.newBuilder[Int]
    var seen  = 0
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      order += v
      seen += 1
      outNeighbors(v).foreach { u =>
        indeg(u) -= 1
        if (indeg(u) == 0) queue.enqueue(u)
      }
    }
    if (seen == vertexCount) Some(order.result()) else None
  }

  def isDag: Boolean = topologicalOrder.isDefined

  override def toString: String =
    s"FlowGraph(source=$source, sink=$sink, V=$vertexCount, E=$edgeCount, I=$interactionCount)"

  override def equals(o: Any): Boolean = o match {
    case g: FlowGraph => g.source == source && g.sink == sink && g.edges == edges
    case _            => false
  }
  override def hashCode(): Int = (source, sink, edges).hashCode()
}

/** A mutable copy of a [[FlowGraph]], edited in place by preprocessing
  * (Algorithm 1) and simplification (Algorithm 2): the edge map, out/in
  * neighbour sets, the live vertices, and counters of what the edits removed
  * (net of what merges added back).
  *
  * `outOf`/`inOf` return the live sets; a loop that removes edges while
  * iterating one must iterate a copy.
  */
private[core] final class MutableGraph(g: FlowGraph) {
  val source: Int = g.source
  val sink: Int   = g.sink

  private val edges = mutable.Map.from(g.edges)
  private val out   = mutable.Map.empty[Int, mutable.Set[Int]]
  private val in    = mutable.Map.empty[Int, mutable.Set[Int]]
  g.edges.keysIterator.foreach { case (a, b) => link(a, b) }

  /** Vertices not removed by [[removeVertex]]. */
  lazy val alive: mutable.Set[Int] = mutable.Set.from(g.vertices)

  var removedInteractions = 0
  var removedEdges        = 0
  var removedVertices     = 0

  private def link(a: Int, b: Int): Unit = {
    out.getOrElseUpdate(a, mutable.Set.empty) += b
    in.getOrElseUpdate(b, mutable.Set.empty) += a
  }

  def outOf(v: Int): collection.Set[Int] = out.getOrElse(v, Set.empty[Int])
  def inOf(v: Int): collection.Set[Int]  = in.getOrElse(v, Set.empty[Int])

  /** The interactions of edge `(a, b)`, time-sorted; empty if absent. */
  def edge(a: Int, b: Int): Vector[(Long, Double)] = edges.getOrElse((a, b), Vector.empty)

  /** Remove edge `(a, b)` and return its interactions (empty if absent). */
  def removeEdge(a: Int, b: Int): Vector[(Long, Double)] = edges.remove((a, b)) match {
    case Some(es) =>
      removedInteractions += es.size
      removedEdges += 1
      out.get(a).foreach(_ -= b)
      in.get(b).foreach(_ -= a)
      es
    case None => Vector.empty
  }

  /** Add `es` to edge `(a, b)`, creating the edge if absent; the merged
    * sequence is re-sorted by timestamp (stable on ties).
    */
  def mergeEdge(a: Int, b: Int, es: Vector[(Long, Double)]): Unit =
    if (es.nonEmpty) {
      if (!edges.contains((a, b))) { link(a, b); removedEdges -= 1 }
      edges((a, b)) = (edge(a, b) ++ es).sortBy(_._1)
      removedInteractions -= es.size
    }

  /** Remove `v` with all its edges (no-op if already removed). */
  def removeVertex(v: Int): Unit =
    if (alive.remove(v)) {
      removedVertices += 1
      // Detach v's sets first, so removeEdge does not edit the set iterated.
      out.remove(v).foreach(_.foreach(removeEdge(v, _)))
      in.remove(v).foreach(_.foreach(removeEdge(_, v)))
    }

  /** Remove every edge (the flow is 0), counting what goes. */
  def clear(): Unit = {
    removedInteractions += edges.valuesIterator.map(_.size).sum
    removedEdges += edges.size
    edges.clear(); out.clear(); in.clear()
  }

  def toFlowGraph: FlowGraph = new FlowGraph(source, sink, edges.toMap)
}

object FlowGraph {

  /** Build from a flat interaction list; per-edge sequences are sorted by
    * timestamp (stable on ties).
    */
  def apply(source: Int, sink: Int, inters: Seq[Interaction]): FlowGraph =
    new FlowGraph(source, sink, groupEdges(inters))

  /** Build from an explicit edge map (sequences are re-sorted defensively). */
  def fromEdges(source: Int, sink: Int, edges: Map[(Int, Int), Seq[(Long, Double)]]): FlowGraph =
    new FlowGraph(source, sink, sortEdges(edges.iterator))

  /** Group interactions by `(src, dst)` into per-edge sequences sorted by
    * timestamp (stable on ties): the edge map of [[apply]] and of
    * `AdjacencyIndex`.
    */
  private[repro] def groupEdges(inters: Seq[Interaction]): Map[(Int, Int), Vector[(Long, Double)]] =
    sortEdges(inters.groupBy(i => (i.src, i.dst)).iterator.map { case (e, is) => e -> is.map(i => (i.ts, i.qty)) })

  private def sortEdges(edges: Iterator[((Int, Int), Seq[(Long, Double)])]): Map[(Int, Int), Vector[(Long, Double)]] =
    edges.map { case (e, es) => e -> es.sortBy(_._1).toVector }.toMap

  /** Figure 4: connect multiple sources/sinks to one synthetic source/sink.
    *
    * Each synthetic source edge gets a single interaction with the smallest
    * possible timestamp and infinite quantity; each synthetic sink edge one
    * with the largest possible timestamp and infinite quantity.
    */
  def withSyntheticEndpoints(
      inters: Seq[Interaction],
      sources: Seq[Int],
      sinks: Seq[Int],
      syntheticSource: Int,
      syntheticSink: Int,
  ): FlowGraph = {
    require(sources.nonEmpty && sinks.nonEmpty, "need at least one source and one sink")
    val srcEdges = sources.map(s => Interaction(syntheticSource, s, Long.MinValue, Double.PositiveInfinity))
    val snkEdges = sinks.map(t => Interaction(t, syntheticSink, Long.MaxValue, Double.PositiveInfinity))
    apply(syntheticSource, syntheticSink, srcEdges ++ inters ++ snkEdges)
  }

  /** Build the flow graph of a cycle-shaped subgraph whose source and sink
    * coincide at `seed` (Section 6.2's extraction protocol): `seed` is split
    * into `sourceId` (keeps seed's outgoing interactions) and `sinkId` (keeps
    * its incoming ones).
    */
  def splitVertex(
      seed: Int,
      inters: Seq[Interaction],
      sourceId: Int,
      sinkId: Int,
  ): FlowGraph = {
    val remapped = inters.map { i =>
      val s = if (i.src == seed) sourceId else i.src
      val d = if (i.dst == seed) sinkId else i.dst
      Interaction(s, d, i.ts, i.qty)
    }
    apply(sourceId, sinkId, remapped)
  }

  /** Remap timestamps to their rank in stable global order, making them
    * strictly increasing. Preserves relative order; used to normalise inputs
    * whose real timestamps contain ties (DESIGN.md §3).
    */
  def normalizeTimestamps(inters: Seq[Interaction]): Seq[Interaction] = {
    val sorted = inters.sortBy(_.ts)
    sorted.zipWithIndex.map { case (i, r) => i.copy(ts = r.toLong) }
  }
}
