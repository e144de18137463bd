package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{FlowPipeline, Interaction}
import repro.data.SubgraphExtractor.{SinkId, SourceId}

/** Tests for the seed-cycle subgraph extraction (Section 6.2 protocol),
  * with the cycle arcs and the whole extraction verified against DuckDB
  * joins.
  */
class SubgraphExtractorSpec extends SparkSpec {

  /** Hand-built network: 1↔2 (2-cycle), 3→4→5→3 (3-cycle), 6→7 (no cycle). */
  private lazy val net = {
    val s = spark
    import s.implicits._
    Seq(
      Interaction(1, 2, 1L, 5.0),
      Interaction(2, 1, 2L, 3.0),
      Interaction(1, 2, 3L, 2.0),
      Interaction(3, 4, 4L, 7.0),
      Interaction(4, 5, 5L, 4.0),
      Interaction(5, 3, 6L, 2.0),
      Interaction(6, 7, 7L, 1.0),
    ).toDF()
  }

  test("cycleArcs finds 2-cycle seeds 1,2 and 3-cycle seeds 3,4,5 but not 6,7") {
    val seeds = SubgraphExtractor.cycleArcs(net).select("seed").distinct()
      .collect().map(_.getInt(0)).toSet
    assert(seeds === Set(1, 2, 3, 4, 5))
  }

  test("cycleArcs matches the equivalent DuckDB join (oracle)") {
    val arcs = SubgraphExtractor.cycleArcs(net)
      .select(col("seed").cast("string") as "seed", col("src").cast("string") as "src",
        col("dst").cast("string") as "dst")
    Oracle.assertEquivalent(arcs,
      """
      WITH e AS (SELECT DISTINCT src, dst FROM net),
      c2 AS (SELECT e1.src AS seed, e1.src AS a, e1.dst AS b
             FROM e e1 JOIN e e2 ON e1.dst = e2.src AND e2.dst = e1.src
             WHERE e1.src <> e1.dst),
      c3 AS (SELECT e1.src AS seed, e1.src AS a, e1.dst AS b, e2.dst AS c
             FROM e e1
             JOIN e e2 ON e1.dst = e2.src AND e2.dst <> e1.src
             JOIN e e3 ON e2.dst = e3.src AND e3.dst = e1.src
             WHERE e1.src <> e1.dst AND e2.dst <> e1.dst)
      SELECT DISTINCT seed, src, dst FROM (
        SELECT seed, a AS src, b AS dst FROM c2
        UNION ALL SELECT seed, b, a FROM c2
        UNION ALL SELECT seed, a, b FROM c3
        UNION ALL SELECT seed, b, c FROM c3
        UNION ALL SELECT seed, c, a FROM c3
      )
      """,
      "net" -> net)
  }

  test("extracted subgraph for seed 1 contains both directions of the 2-cycle") {
    val sg = SubgraphExtractor.extract(net, 1000).collect().find(_.seed == 1).get
    val pairs = sg.inters.map(i => (i.src, i.dst)).toSet
    assert(pairs === Set((SubgraphExtractor.SourceId, 2), (2, SubgraphExtractor.SinkId)))
    assert(sg.inters.size === 3)
  }

  test("flow of the seed-1 subgraph: out 5+2 via (1,2), back min at (2,1)") {
    val sg = SubgraphExtractor.extract(net, 1000).collect().find(_.seed == 1).get
    val o  = FlowPipeline.preSim(sg.toFlowGraph)
    // (1,5) out, (2,3) back transfers 3, (3,2) out again (too late to matter).
    assert(math.abs(o.flow - 3.0) < 1e-9)
  }

  test("3-cycle subgraph carries all three edges") {
    val sg = SubgraphExtractor.extract(net, 1000).collect().find(_.seed == 3).get
    val pairs = sg.inters.map(i => (i.src, i.dst)).toSet
    assert(pairs === Set((SubgraphExtractor.SourceId, 4), (4, 5), (5, SubgraphExtractor.SinkId)))
  }

  test("a self-loop is not a 2-hop cycle") {
    val s = spark
    import s.implicits._
    val loopy = Seq(Interaction(1, 1, 1L, 5.0), Interaction(2, 3, 2L, 1.0)).toDF()
    assert(SubgraphExtractor.cycleArcs(loopy).count() === 0)
    assert(SubgraphExtractor.extract(loopy, 1000).count() === 0)
  }

  private def toDF(inters: Interaction*) = {
    val s = spark
    import s.implicits._
    inters.toDF()
  }

  /** 1↔2 and 1→2→3→1 share the arc (1,2), which carries two interactions. */
  private lazy val shared = toDF(
    Interaction(1, 2, 1L, 4.0),
    Interaction(1, 2, 2L, 3.0),
    Interaction(2, 1, 3L, 2.0),
    Interaction(2, 3, 4L, 1.0),
    Interaction(3, 1, 5L, 5.0),
  )

  private def subgraph(net: DataFrame, seed: Int, cap: Int = 1000) =
    SubgraphExtractor.extract(net, cap).collect().find(_.seed == seed)

  test("an arc on both a 2-cycle and a 3-cycle of the seed contributes its interactions once") {
    val sg = subgraph(shared, 1).get
    assert(sg.inters === Seq(
      Interaction(SourceId, 2, 1L, 4.0),
      Interaction(SourceId, 2, 2L, 3.0),
      Interaction(2, SinkId, 3L, 2.0),
      Interaction(2, 3, 4L, 1.0),
      Interaction(3, SinkId, 5L, 5.0),
    ))
  }

  test("a self-loop on the seed stays out of the seed's cycle subgraph") {
    val loopy = toDF(Interaction(1, 1, 1L, 9.0), Interaction(1, 2, 2L, 5.0), Interaction(2, 1, 3L, 3.0))
    assert(subgraph(loopy, 1).get.inters === Seq(Interaction(SourceId, 2, 2L, 5.0), Interaction(2, SinkId, 3L, 3.0)))
  }

  test("parallel interactions on one arc are all kept, sorted by timestamp") {
    val par = toDF(Interaction(1, 2, 7L, 1.0), Interaction(1, 2, 3L, 2.0), Interaction(1, 2, 5L, 3.0),
      Interaction(2, 1, 9L, 4.0))
    assert(subgraph(par, 1).get.inters === Seq(Interaction(SourceId, 2, 3L, 2.0), Interaction(SourceId, 2, 5L, 3.0),
      Interaction(SourceId, 2, 7L, 1.0), Interaction(2, SinkId, 9L, 4.0)))
  }

  test("a subgraph of exactly the cap is kept and one above it dropped") {
    assert(subgraph(shared, 1, cap = 5).map(_.inters.size) === Some(5))
    assert(subgraph(shared, 1, cap = 4) === None)
  }

  test("an empty network yields no subgraphs and zero stats") {
    val empty = toDF()
    val ds    = SubgraphExtractor.extract(empty, 1000)
    assert(ds.count() === 0)
    assert(SubgraphExtractor.stats(ds) === ((0L, 0.0, 0.0, 0.0)))
    assert(SubgraphExtractor.cycleArcs(empty).count() === 0)
  }

  /** The whole extraction as one DuckDB query: cycle joins on distinct
    * edges, join back to the interactions, the cap as `COUNT(*) <= cap`,
    * seed split.
    */
  private def extractionSql(cap: Int) =
    s"""
    WITH n AS (SELECT CAST(src AS INTEGER) AS src, CAST(dst AS INTEGER) AS dst,
                      CAST(ts AS BIGINT) AS ts, CAST(qty AS DOUBLE) AS qty FROM net),
    e AS (SELECT DISTINCT src, dst FROM n),
    c2 AS (SELECT e1.src AS a, e1.dst AS b
           FROM e e1 JOIN e e2 ON e1.dst = e2.src AND e2.dst = e1.src
           WHERE e1.src <> e1.dst),
    c3 AS (SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
           FROM e e1
           JOIN e e2 ON e1.dst = e2.src
           JOIN e e3 ON e2.dst = e3.src AND e3.dst = e1.src
           WHERE e1.src <> e1.dst AND e2.dst <> e1.src AND e2.dst <> e1.dst),
    arcs AS (SELECT DISTINCT seed, src, dst FROM (
      SELECT a AS seed, a AS src, b AS dst FROM c2
      UNION ALL SELECT a, b, a FROM c2
      UNION ALL SELECT a, a, b FROM c3
      UNION ALL SELECT a, b, c FROM c3
      UNION ALL SELECT a, c, a FROM c3)),
    tagged AS (SELECT arcs.seed, n.src, n.dst, n.ts, n.qty
               FROM arcs JOIN n ON arcs.src = n.src AND arcs.dst = n.dst),
    kept AS (SELECT seed FROM tagged GROUP BY seed HAVING COUNT(*) <= $cap)
    SELECT t.seed AS seed,
           CASE WHEN t.src = t.seed THEN $SourceId ELSE t.src END AS src,
           CASE WHEN t.dst = t.seed THEN $SinkId ELSE t.dst END AS dst,
           t.ts AS ts, t.qty AS qty
    FROM tagged t JOIN kept ON t.seed = kept.seed
    """

  for ((spec, sf, cap) <- Seq((NetworkGen.ctuLike, 0.001, 20), (NetworkGen.bitcoinLike, 0.0001, 20)))
    test(s"taggedInteractions on a generated ${spec.name} network matches the DuckDB extraction (oracle)") {
      val gen    = NetworkGen.generate(spark, spec, sf)
      val tagged = SubgraphExtractor.taggedInteractions(gen, cap)
      val kept   = tagged.select("seed").distinct().count()
      assert(kept > 0 && kept < SubgraphExtractor.cycleArcs(gen).select("seed").distinct().count(),
        "the cap must keep some seeds and drop others")
      Oracle.assertEquivalent(tagged.toDF(), extractionSql(cap), "net" -> gen)
    }

  test("interaction cap discards oversized subgraphs") {
    val subs = SubgraphExtractor.extract(net, 2).collect()
    // seed 1's subgraph has 3 interactions -> discarded; 3-cycles stay (3 each)?
    // cap 2 discards all 3-interaction subgraphs.
    assert(subs.forall(_.inters.size <= 2))
  }

  test("stats count vertices/edges on the unsplit subgraph") {
    val ds = SubgraphExtractor.extract(net, 1000)
    val (n, avgV, avgE, avgI) = SubgraphExtractor.stats(ds)
    assert(n === 5)
    // seed 1/2 subgraphs: 2 vertices, 2 edges; seeds 3,4,5: 3 vertices, 3 edges.
    assert(math.abs(avgV - (2 + 2 + 3 + 3 + 3) / 5.0) < 1e-9)
    assert(math.abs(avgE - (2 + 2 + 3 + 3 + 3) / 5.0) < 1e-9)
    assert(avgI === 3.0)
  }

  test("subgraph classes on a generated network are consistent with pipeline flows") {
    val gen = NetworkGen.generate(spark, NetworkGen.ctuLike, 0.001)
    val subs = SubgraphExtractor.extract(gen, 500).collect()
    subs.take(50).foreach { sg =>
      val g = sg.toFlowGraph
      val pre = FlowPipeline.pre(g)
      val dinic = FlowPipeline.dinic(g)
      assert(math.abs(pre.flow - dinic) < 1e-4 * math.max(1.0, dinic),
        s"seed=${sg.seed}: pre=${pre.flow} dinic=$dinic")
    }
  }
}
