package repro.data

import org.apache.spark.sql.{DataFrame, Dataset, Encoder}
import org.apache.spark.sql.functions._
import repro.core.{FlowGraph, Interaction}
import repro.patterns.AdjacencyIndex
import scala.collection.mutable

/** Section 6.2's subgraph extraction protocol.
  *
  * "We identified seed vertices in the networks from which there are paths
  * (up to three hops) that pass through other vertices and then return to the
  * origin. For each seed vertex, we merged all edges along these paths to
  * form a single subgraph." — i.e. for every seed `a`, the union of the arcs
  * of all 2-hop cycles `a→b→a` and 3-hop cycles `a→b→c→a`.
  *
  * The network is collected and broadcast once, and every vertex is
  * enumerated as a seed in memory, one task per slice of the vertices
  * (`spark.sql.shuffle.partitions` slices), on an [[AdjacencyIndex]]:
  * sorted distinct successors per vertex, time-sorted interactions per edge.
  * Cycles are found on distinct edges by binary search. A seed whose arcs
  * carry more than `maxInteractions` interactions is dropped on per-edge
  * counts as soon as the enumeration passes the cap, before any interaction
  * is built, like the paper's 10K cap (our LP substrate is a dense simplex,
  * so the default cap is lower; DESIGN.md §3). The seed is split into a
  * source (its outgoing interactions) and a sink (its incoming ones) —
  * Section 3 allows source == sink, and this is the standard reduction.
  */
object SubgraphExtractor {

  /** Vertex ids of the split seed inside every extracted subgraph. */
  val SourceId: Int = -1
  val SinkId: Int   = -2

  /** One interaction of one extracted subgraph, seed split already applied. */
  final case class TaggedInteraction(seed: Int, src: Int, dst: Int, ts: Long, qty: Double)

  /** A fully collected subgraph (small by construction — the cap bounds it). */
  final case class Subgraph(seed: Int, inters: Seq[Interaction]) {
    def toFlowGraph: FlowGraph = FlowGraph(SourceId, SinkId, inters)
  }

  /** Distinct arcs `(src, dst)` of every ≤3-hop cycle through `a`, sorted:
    * 2-hop `a→b→a` with `b ≠ a`, 3-hop `a→b→c→a` with `a, b, c` pairwise
    * distinct (so no self-loop is ever an arc). None as soon as the arcs
    * carry more than `maxInteractions` interactions.
    */
  private def arcsOf(adj: AdjacencyIndex, a: Int, maxInteractions: Int): Option[Array[(Int, Int)]] = {
    val arcs  = mutable.Set.empty[(Int, Int)]
    var count = 0L
    def add(s: Int, d: Int): Unit = if (arcs.add((s, d))) count += adj.interactions(s, d).size
    def closes(v: Int) = java.util.Arrays.binarySearch(adj.outOf(v), a) >= 0
    val bs = adj.outOf(a).iterator.filter(_ != a)
    while (count <= maxInteractions && bs.hasNext) {
      val b = bs.next()
      if (closes(b)) { add(a, b); add(b, a) }
      val cs = adj.outOf(b).iterator.filter(c => c != a && c != b)
      while (count <= maxInteractions && cs.hasNext) {
        val c = cs.next()
        if (closes(c)) { add(a, b); add(b, c); add(c, a) }
      }
    }
    if (count > maxInteractions) None else Some(arcs.toArray.sorted)
  }

  /** Seed `a`'s ts-sorted, seed-split subgraph; None when `a` is on no
    * cycle or its arcs carry more than `maxInteractions` interactions.
    */
  private def subgraphOf(adj: AdjacencyIndex, a: Int, maxInteractions: Int): Option[Subgraph] =
    arcsOf(adj, a, maxInteractions).filter(_.nonEmpty).map { arcs =>
      val inters = arcs.flatMap { case (s, d) =>
        val (ss, dd) = (if (s == a) SourceId else s, if (d == a) SinkId else d)
        adj.interactions(s, d).map { case (t, q) => Interaction(ss, dd, t, q) }
      }
      Subgraph(a, inters.sortBy(_.ts).toVector)
    }

  /** The collected network, broadcast as plain interactions (cheaper to ship than an index), indexed once per JVM. */
  private final class Collected(inters: Array[Interaction]) extends Serializable {
    @transient lazy val adj: AdjacencyIndex = AdjacencyIndex.fromInteractions(inters.toSeq)
  }

  /** `f` applied to every vertex of `net` as a seed: one task per vertex
    * slice, all reading one broadcast copy of the collected network.
    */
  private def overSeeds[A: Encoder](net: DataFrame)(f: (AdjacencyIndex, Int) => IterableOnce[A]): Dataset[A] = {
    val spark = net.sparkSession
    import spark.implicits._
    val netB = spark.sparkContext.broadcast(new Collected(net.select("src", "dst", "ts", "qty").as[Interaction].collect()))
    val n    = spark.conf.get("spark.sql.shuffle.partitions").toInt
    spark.createDataset(spark.sparkContext.parallelize(netB.value.adj.vertexSlices(n), n))
      .flatMap(_.iterator.flatMap(a => f(netB.value.adj, a)))
  }

  /** Arcs `(seed, src, dst)` of every ≤3-hop cycle through `seed`, distinct. */
  def cycleArcs(net: DataFrame): DataFrame = {
    import net.sparkSession.implicits._
    overSeeds(net)((adj, a) => arcsOf(adj, a, Int.MaxValue).get.iterator.map { case (s, d) => (a, s, d) })
      .toDF("seed", "src", "dst")
  }

  /** Tagged interactions of every kept subgraph, one row per interaction. */
  def taggedInteractions(net: DataFrame, maxInteractions: Int): Dataset[TaggedInteraction] = {
    import net.sparkSession.implicits._
    extract(net, maxInteractions).flatMap(sg => sg.inters.map(i => TaggedInteraction(sg.seed, i.src, i.dst, i.ts, i.qty)))
  }

  /** Collected per-seed subgraphs, ready for the flow algorithms. */
  def extract(net: DataFrame, maxInteractions: Int): Dataset[Subgraph] = {
    import net.sparkSession.implicits._
    overSeeds(net)((adj, a) => subgraphOf(adj, a, maxInteractions))
  }

  /** Table 5 row: #subgraphs and average #vertices/#edges/#interactions.
    * Vertices/edges are counted on the original (unsplit) subgraph, like the
    * paper's Figure 10 rendering. The averages of no subgraphs are 0.
    */
  def stats(subgraphs: Dataset[Subgraph]): (Long, Double, Double, Double) = {
    val spark = subgraphs.sparkSession
    import spark.implicits._
    val perSeed = subgraphs.map { sg =>
      def unsplit(v: Int) = if (v == SourceId || v == SinkId) Int.MinValue else v
      val verts = sg.inters.flatMap(i => Seq(unsplit(i.src), unsplit(i.dst))).toSet.size
      val edges = sg.inters.map(i => (unsplit(i.src), unsplit(i.dst))).toSet.size
      (verts, edges, sg.inters.size)
    }.toDF("v", "e", "i")
    val row = perSeed.agg(count(lit(1)), Seq("v", "e", "i").map(c => coalesce(avg(col(c)), lit(0.0))): _*).head()
    (row.getLong(0), row.getDouble(1), row.getDouble(2), row.getDouble(3))
  }
}
