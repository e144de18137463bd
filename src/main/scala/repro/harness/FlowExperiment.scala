package repro.harness

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.data.{NetworkGen, SubgraphExtractor}
import scala.util.control.NonFatal

/** The flow-computation experiment of Section 6.2 (Tables 5, 6, 7, 8 and the
  * bucket breakdown behind Figure 11).
  *
  * For one (synthetic) network: extract the per-seed cycle subgraphs, then
  * time the four methods — Greedy, LP, Pre, PreSim — on every subgraph, in
  * parallel across subgraphs via `Dataset.mapPartitions` on executors.
  * Subgraphs are labeled class A/B/C like the paper and the report averages
  * runtimes over All and per class, plus per interaction-count bucket
  * (<100, 100–1000, >1000).
  *
  * Every subgraph's LP / Pre / PreSim flows are cross-checked against the
  * independent time-expanded Dinic solver — an end-to-end correctness gate
  * riding along with the benchmark (verification time is excluded from
  * reported numbers).
  */
object FlowExperiment {

  /** Measure at most this many subgraphs (deterministic sample). The paper
    * timed all 48.7K Bitcoin subgraphs with a C implementation; sampling
    * keeps the per-subgraph averages while bounding bench wall-clock on the
    * JVM.
    */
  private val MaxSubgraphs = 2500

  final case class Config(
      dataset: String,
      sf: Double,
      /** Discard subgraphs with more interactions (paper used 10K; our dense
        * simplex substrate motivates a lower default, DESIGN.md §3). */
      maxInteractions: Int = 2000,
  )

  /** Per-subgraph measurement row. */
  final case class Row(
      seed: Int,
      interactions: Int,
      cls: String,
      greedyFlow: Double,
      maxFlow: Double,
      tGreedyNs: Long,
      tLpNs: Long,
      tPreNs: Long,
      tPreSimNs: Long,
  )

  final case class Report(
      dataset: String,
      sf: Double,
      netStats: (Long, Long, Long, Double), // nodes, edges, interactions, avg qty (Table 4)
      subgraphStats: (Long, Double, Double, Double), // Table 5
      rows: Seq[Row],
      mismatches: Long,
      /** `(seed, error)` of every subgraph whose measurement threw. */
      failures: Seq[(Int, String)],
  ) {
    private def avgMs(rs: Seq[Row], f: Row => Long): String =
      if (rs.isEmpty) "-" else Timing.fmtMs(Timing.nsToMs(rs.map(f).sum / rs.size))

    private def tableFor(title: String, groups: Seq[(String, Seq[Row])]): String = {
      val header = Seq(title, "Greedy", "LP", "Pre", "PreSim")
      val body = groups.map { case (name, rs) =>
        Seq(s"$name (${rs.size})", avgMs(rs, _.tGreedyNs), avgMs(rs, _.tLpNs),
            avgMs(rs, _.tPreNs), avgMs(rs, _.tPreSimNs))
      }
      Timing.table(header, body)
    }

    def render: String = {
      val (nodes, edges, inters, avgQ) = netStats
      val (nSub, avgV, avgE, avgI)     = subgraphStats
      val byClass = Seq(
        "All"     -> rows,
        "Class A" -> rows.filter(_.cls == "A"),
        "Class B" -> rows.filter(_.cls == "B"),
        "Class C" -> rows.filter(_.cls == "C"),
      )
      val byBucket = Seq(
        "<100 inter"     -> rows.filter(_.interactions < 100),
        "100-1000 inter" -> rows.filter(r => r.interactions >= 100 && r.interactions <= 1000),
        ">1000 inter"    -> rows.filter(_.interactions > 1000),
      )
      s"""== Dataset $dataset (sf=$sf) ==
         |Table 4 row: #nodes=$nodes  #edges=$edges  #interactions=$inters  avg.flow=$avgQ
         |Table 5 row: #subgraphs=$nSub  avg#vertices=${f"$avgV%.2f"}  avg#edges=${f"$avgE%.2f"}  avg#interactions=${f"$avgI%.1f"}
         |
         |${tableFor(s"Runtime (msec), $dataset", byClass)}
         |
         |${tableFor("By #interactions", byBucket)}
         |verify mismatches: $mismatches
         |failures: ${failures.size}${failures.take(5).map { case (sd, e) => s"\n  seed $sd: $e" }.mkString}
         |""".stripMargin
    }
  }

  /** Measure the four methods on one already-built subgraph. */
  def measure(seed: Int, g: FlowGraph, verify: Boolean): (Row, Long) = {
    val (gres, tG)  = Timing.timeNs(Greedy.flow(g))
    val (lpF, tLp)  = Timing.timeNs(FlowPipeline.lp(g))
    val (preO, tP)  = Timing.timeNs(FlowPipeline.pre(g))
    val (simO, tS)  = Timing.timeNs(FlowPipeline.preSim(g))
    var mism        = 0L
    if (verify) {
      val dinicF = FlowPipeline.dinic(g)
      val tol    = 1e-4 * math.max(1.0, math.abs(dinicF))
      if (math.abs(lpF - dinicF) > tol) mism += 1
      if (math.abs(preO.flow - dinicF) > tol) mism += 1
      if (math.abs(simO.flow - dinicF) > tol) mism += 1
      if (gres > dinicF + tol) mism += 1
    }
    (Row(seed, g.interactionCount, preO.cls.name, gres, simO.flow, tG, tLp, tP, tS), mism)
  }

  /** One subgraph's [[measure]] result, or the error that stopped it. */
  final case class Outcome(seed: Int, row: Option[Row], mismatches: Long, error: Option[String])

  /** [[measure]] every subgraph of one partition, after a JIT warm-up on the
    * first one (the paper's C baseline has no JIT). A subgraph whose
    * measurement throws becomes a failed [[Outcome]] instead of failing the
    * task, so one bad subgraph cannot kill the whole job.
    */
  def measureAll(it: Iterator[SubgraphExtractor.Subgraph]): Iterator[Outcome] = {
    val buffered = it.buffered
    if (buffered.hasNext)
      try measure(buffered.head.seed, buffered.head.toFlowGraph, verify = false) catch { case NonFatal(_) => () }
    buffered.map { sg =>
      try {
        val (row, mism) = measure(sg.seed, sg.toFlowGraph, verify = true)
        Outcome(sg.seed, Some(row), mism, None)
      } catch { case NonFatal(e) => Outcome(sg.seed, None, 0L, Some(e.toString)) }
    }
  }

  def run(spark: SparkSession, cfg: Config): Report = {
    import spark.implicits._
    val spec = NetworkGen.byName(cfg.dataset)
    val net  = NetworkGen.generate(spark, spec, cfg.sf).cache()

    val statsRow = NetworkGen.stats(net).head()
    val netStats = (statsRow.getLong(0), statsRow.getLong(1), statsRow.getLong(2), statsRow.getDouble(3))

    val all: Dataset[SubgraphExtractor.Subgraph] =
      SubgraphExtractor.extract(net, cfg.maxInteractions).cache()
    val sgStats = SubgraphExtractor.stats(all) // Table 5 reports the full population
    val total   = sgStats._1
    // The sample depends on the seed ids alone (the first `MaxSubgraphs`
    // under a fixed bijective hash), not on how `extract` partitions.
    val subgraphs =
      if (total > MaxSubgraphs) {
        val keep = all.map(_.seed).collect().sortBy(scala.util.hashing.byteswap32).take(MaxSubgraphs).toSet
        all.filter(sg => keep(sg.seed))
      } else all

    val measured = subgraphs.mapPartitions(measureAll).collect().toSeq

    net.unpersist(); all.unpersist()
    Report(cfg.dataset, cfg.sf, netStats, sgStats, measured.flatMap(_.row), measured.map(_.mismatches).sum,
      measured.flatMap(o => o.error.map(o.seed -> _)))
  }
}
