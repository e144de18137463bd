package repro.perfbench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.{col, sum}
import repro.core.{FlowGraph, FlowPipeline, Interaction}
import repro.data.{NetworkGen, SubgraphExtractor}
import repro.data.SubgraphExtractor.Subgraph
import repro.harness.FlowExperiment
import repro.patterns._
import scala.util.control.NonFatal

/** One benchmark workload: a generated network, the preparation that
  * counts as set-up, and the job that is timed.
  */
trait Workload {
  type State
  def name: String
  def spec: NetworkGen.NetSpec
  def sf: Double
  def params: Map[String, Any]
  def prepare(spark: SparkSession, net: DataFrame, tr: Tracer, res: Result): State
  /** Runs the job once; returns its fingerprint and its timed seconds. */
  def job(spark: SparkSession, net: DataFrame, state: State, tr: Tracer, res: Result): (Map[String, Any], Double)
}

object Workload {
  val all: Seq[Workload] = Seq(FlowBitcoin, SolveProsper, PatternProsper)

  /** Subgraph interaction cap of the flow workloads (`BenchConfig`). */
  val Cap = 1500

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9
}

/** `SubgraphExtractor.extract`, and, when traced, its stages one by one:
  * each stage's output is cached, so the stage that follows (which builds
  * the same plan again inside the program) reads it back instead of
  * recomputing it, and each span times only its own stage.
  */
object Extraction {
  def run(net: DataFrame, tr: Tracer, res: Result): Dataset[Subgraph] =
    if (!tr.enabled) SubgraphExtractor.extract(net, Workload.Cap).cache()
    else {
      var arcs: DataFrame = null
      var tagged: Dataset[SubgraphExtractor.TaggedInteraction] = null
      val all = tr("SubgraphExtractor.extract") {
        tr("SubgraphExtractor.taggedInteractions") {
          tr("SubgraphExtractor.cycleArcs") {
            arcs = SubgraphExtractor.cycleArcs(net).cache()
            res.layers("SubgraphExtractor.cycleArcs.rows") = arcs.count().toDouble
          }
          tagged = SubgraphExtractor.taggedInteractions(net, Workload.Cap).cache()
          res.layers("SubgraphExtractor.taggedInteractions.kept_rows") = tagged.count().toDouble
        }
        val sgs = SubgraphExtractor.extract(net, Workload.Cap).cache()
        res.layers("SubgraphExtractor.extract.subgraphs") = sgs.count().toDouble
        sgs
      }
      // Interactions on the cycle arcs before the cap drops whole seeds.
      val joined = arcs.join(net.groupBy("src", "dst").count(), Seq("src", "dst")).agg(sum(col("count"))).head()
      val joinedRows = if (joined.isNullAt(0)) 0.0 else joined.getLong(0).toDouble
      val kept       = res.layers("SubgraphExtractor.taggedInteractions.kept_rows")
      res.layers("SubgraphExtractor.cycleArcs.s") = tr.seconds("SubgraphExtractor.cycleArcs")
      res.layers("SubgraphExtractor.taggedInteractions.self_s") = tr.selfSeconds("SubgraphExtractor.taggedInteractions")
      res.layers("SubgraphExtractor.taggedInteractions.joined_rows") = joinedRows
      res.layers("SubgraphExtractor.taggedInteractions.kept_ratio") = if (joinedRows > 0) kept / joinedRows else 1.0
      res.layers("SubgraphExtractor.extract.self_s") = tr.selfSeconds("SubgraphExtractor.extract")
      val groups = tr.subtree("SubgraphExtractor.extract")
      tr.stages.foreach { st =>
        res.layers("SubgraphExtractor.extract.shuffle_mb") = st.shuffleMb(groups)
        res.layers("SubgraphExtractor.extract.task_skew") = st.taskSkew(groups)
      }
      arcs.unpersist(); tagged.unpersist()
      all
    }
}

/** Table-6 pipeline on the bitcoin-like network: the stages of
  * `FlowExperiment.run`, from the cached network to the collected rows.
  * Extraction does most of the work, so a solver-only change should barely
  * move its job time. The scale factor is half of `BenchConfig`'s 0.002:
  * one run must fit about 50 s, and Spark's fixed cost per stage, not the
  * input size, dominates the job (0.002 takes 40–52 s, 0.001 about 35 s).
  */
object FlowBitcoin extends Workload {
  type State = Unit
  val name         = "flow-bitcoin"
  val spec         = NetworkGen.bitcoinLike
  val sf           = 0.001
  val MaxSubgraphs = 2500
  val params       = Map[String, Any]("cap" -> Workload.Cap, "max_subgraphs" -> MaxSubgraphs)

  def prepare(spark: SparkSession, net: DataFrame, tr: Tracer, res: Result): Unit = ()

  def job(spark: SparkSession, net: DataFrame, state: Unit, tr: Tracer, res: Result): (Map[String, Any], Double) = {
    import spark.implicits._
    val t0  = System.nanoTime()
    val all = Extraction.run(net, tr, res)
    val (total, _, _, avgI) = tr("SubgraphExtractor.stats")(SubgraphExtractor.stats(all))
    val sample =
      if (total > MaxSubgraphs) all.sample(withReplacement = false, MaxSubgraphs.toDouble / total, seed = 42L)
      else all
    val traced = tr.enabled
    val measured = tr("FlowExperiment.measure") {
      sample.mapPartitions { it =>
        // JIT warm-up on the partition's first subgraph, as FlowExperiment.run does.
        val buffered = it.buffered
        if (buffered.hasNext) {
          try FlowExperiment.measure(buffered.head.seed, buffered.head.toFlowGraph, verify = false)
          catch { case NonFatal(_) => () }
        }
        buffered.map(sg => FlowOps.measure(sg.seed, sg.toFlowGraph, traced))
      }.collect()
    }
    all.unpersist()
    val secs = Workload.seconds(t0)

    res.attempted += measured.length
    res.failures ++= measured.iterator.flatMap(m => Option(m.error))
    if (traced) {
      res.layers("FlowExperiment.measure.s") = tr.seconds("FlowExperiment.measure")
      res.layers ++= FlowOps.Stages.layers(measured.toSeq.filter(_.error == null).map(_.stages))
    } else measured.foreach { m =>
      res.sample("lp_ms", m.lpMs); res.sample("pre_ms", m.preMs); res.sample("presim_ms", m.presimMs)
    }
    val fp = Map[String, Any](
      "subgraphs"       -> total,
      "interactions"    -> math.round(avgI * total),
      "measured"        -> measured.length,
      "class_a"         -> measured.count(_.cls == "A"),
      "class_b"         -> measured.count(_.cls == "B"),
      "class_c"         -> measured.count(_.cls == "C"),
      "presim_flow_sum" -> measured.sortBy(_.seed).iterator.map(_.presimFlow).sum,
    )
    (fp, secs)
  }
}

/** LP, Pre and PreSim alone, single-threaded, on every prosper-like
  * subgraph (`BenchConfig` scale); extraction, collection and JIT warm-up
  * are set-up. Its set-up repeats a 20–25 s Spark extraction, so a run
  * takes about 110 s; it is run by hand, not listed in BENCHMARK.json.
  */
object SolveProsper extends Workload {
  final case class State(seeds: Array[Int], graphs: Array[FlowGraph])
  val name   = "solve-prosper"
  val spec   = NetworkGen.prosperLike
  val sf     = 0.01
  /** Every `WarmupStride`-th subgraph is measured once during set-up. */
  val WarmupStride = 4
  val params = Map[String, Any]("cap" -> Workload.Cap, "warmup_stride" -> WarmupStride)

  def prepare(spark: SparkSession, net: DataFrame, tr: Tracer, res: Result): State = {
    val all = Extraction.run(net, tr, res)
    val sgs = all.collect().sortBy(_.seed)
    all.unpersist()
    val graphs = sgs.map(_.toFlowGraph)
    graphs.indices.by(WarmupStride).foreach { i =>
      try FlowExperiment.measure(sgs(i).seed, graphs(i), verify = false) catch { case NonFatal(_) => () }
    }
    State(sgs.map(_.seed), graphs)
  }

  def job(spark: SparkSession, net: DataFrame, st: State, tr: Tracer, res: Result): (Map[String, Any], Double) = {
    val n     = st.graphs.length
    val flows = Array.ofDim[Double](n, 3)
    val cls   = new Array[String](n)
    val t0    = System.nanoTime()
    var i     = 0
    while (i < n) {
      val g = st.graphs(i)
      try {
        var t = System.nanoTime()
        flows(i)(0) = tr("FlowPipeline.lp")(FlowPipeline.lp(g))
        val lpNs = System.nanoTime() - t
        t = System.nanoTime()
        flows(i)(1) = tr("FlowPipeline.pre")(FlowPipeline.pre(g)).flow
        val preNs = System.nanoTime() - t
        t = System.nanoTime()
        val o = tr("FlowPipeline.preSim")(FlowPipeline.preSim(g))
        val presimNs = System.nanoTime() - t
        flows(i)(2) = o.flow
        cls(i) = o.cls.name
        if (!tr.enabled) {
          res.sample("lp_ms", lpNs / 1e6); res.sample("pre_ms", preNs / 1e6); res.sample("presim_ms", presimNs / 1e6)
        }
      } catch {
        case NonFatal(e) => res.failures += s"seed ${st.seeds(i)}: $e"; flows(i)(0) = Double.NaN
      }
      i += 1
    }
    val secs = Workload.seconds(t0)

    // Neither the traced decomposition nor the oracle counts in job_s.
    if (tr.enabled) res.layers ++= FlowOps.Stages.layers(st.graphs.toSeq.map(FlowOps.Stages.of))
    res.attempted += 3L * n
    val oracle = st.graphs.map(FlowPipeline.dinic)
    val methods = Seq("LP", "Pre", "PreSim")
    for (i <- 0 until n if !flows(i)(0).isNaN; m <- 0 until 3) {
      if (math.abs(flows(i)(m) - oracle(i)) > FlowOps.tolerance(oracle(i)))
        res.failures += s"seed ${st.seeds(i)}: ${methods(m)} ${flows(i)(m)} != TimeExpanded.maxFlow ${oracle(i)}"
    }
    val fp = Map[String, Any](
      "subgraphs"       -> n,
      "interactions"    -> st.graphs.iterator.map(_.interactionCount.toLong).sum,
      "class_a"         -> cls.count(_ == "A"),
      "class_b"         -> cls.count(_ == "B"),
      "class_c"         -> cls.count(_ == "C"),
      "presim_flow_sum" -> flows.iterator.map(_(2)).sum,
    )
    (fp, secs)
  }
}

/** GB and PB for all nine patterns on the prosper-like network, with the
  * protocol and caps of `PatternExperiment.run`. The scale factor is half
  * of `BenchConfig`'s 0.01, which halves the run (to about 60 s) and leaves
  * GB uncapped, hence checked against PB, on P2, P3, RP1, RP2 and RP3.
  */
object PatternProsper extends Workload {
  type State = Unit
  val name      = "pattern-prosper"
  val spec      = NetworkGen.prosperLike
  val sf        = 0.005
  val GbCap     = 500_000L
  val P4Cap     = 3000L
  val GbSlices  = 64
  val params    = Map[String, Any]("gb_cap" -> GbCap, "p4_cap" -> P4Cap, "gb_slices" -> GbSlices)
  /** Relative tolerance of the GB = PB average-flow check. */
  val FlowTolerance = 1e-9

  def prepare(spark: SparkSession, net: DataFrame, tr: Tracer, res: Result): Unit = ()

  /** Round-robin slices of the vertex array, as `PatternExperiment` cuts them. */
  private def slices(vertices: Array[Int], n: Int): Seq[Array[Int]] =
    (0 until n).map(i => vertices.indices.collect { case j if j % n == i => vertices(j) }.toArray)

  /** (instances, total flow, capped) */
  private type Gb = (Long, Double, Boolean)

  def job(spark: SparkSession, net: DataFrame, state: Unit, tr: Tracer, res: Result): (Map[String, Any], Double) = {
    import spark.implicits._
    val t0 = System.nanoTime()
    var gbNs, pbNs = 0L
    def gbTimed[A](span: String)(f: => A): A = { val t = System.nanoTime(); try tr(span)(f) finally gbNs += System.nanoTime() - t }
    def pbTimed[A](span: String)(f: => A): A = { val t = System.nanoTime(); try tr(span)(f) finally pbNs += System.nanoTime() - t }

    val (adjB, vSlices) = gbTimed("AdjacencyIndex.fromInteractions") {
      val inters = net.select($"src", $"dst", $"ts", $"qty").as[Interaction].collect()
      val adj    = AdjacencyIndex.fromInteractions(inters.toSeq)
      (spark.sparkContext.broadcast(adj), slices(adj.vertices, GbSlices))
    }
    def gbRigid(p: Pattern, cap: Long): Gb = {
      val capPerTask = math.max(1L, cap / GbSlices)
      spark.createDataset(vSlices).map { sl =>
        val (n, f) = GraphBrowsing.enumerateWithFlow(adjB.value, p, capPerTask, Some(sl))
        (n, f, n >= capPerTask)
      }.collect().foldLeft((0L, 0.0, false)) { case ((a, b, c), (x, y, z)) => (a + x, b + y, c || z) }
    }
    def gbRelaxed(run: Array[Int] => (Long, Double)): Gb = {
      val (n, f) = spark.createDataset(vSlices).map(run).collect()
        .foldLeft((0L, 0.0)) { case ((a, b), (x, y)) => (a + x, b + y) }
      (n, f, false)
    }

    val (l2, l3, c2) = pbTimed("PathTables") {
      def table(name: String, df: => DataFrame): DataFrame = tr(s"PathTables.$name") {
        val t = df.cache()
        res.layers(s"PathTables.$name.rows") = t.count().toDouble
        t
      }
      (table("l2", PathTables.l2(net)), table("l3", PathTables.l3(net)), table("c2", PathTables.c2(net)))
    }

    val patterns: Seq[(String, () => Gb, () => (Long, Double))] = Seq(
      ("P1", () => gbRigid(Patterns.P1, GbCap), () => PatternEnum.p1(c2)),
      ("P2", () => gbRigid(Patterns.P2, GbCap), () => PatternEnum.p2(l2)),
      ("P3", () => gbRigid(Patterns.P3, GbCap), () => PatternEnum.p3(l3)),
      ("P4", () => gbRigid(Patterns.P4, P4Cap), () => PatternEnum.p4Limited(net, P4Cap)),
      ("P5", () => gbRigid(Patterns.P5, GbCap), () => PatternEnum.p5(l2, l3)),
      ("P6", () => gbRigid(Patterns.P6, GbCap), () => PatternEnum.p6(l3)),
      ("RP1", () => gbRelaxed { sl =>
        val rs = GraphBrowsing.relaxedChains2(adjB.value, Some(sl)); (rs.size.toLong, rs.map(_._3).sum)
      }, () => PatternEnum.rp1(c2)),
      ("RP2", () => gbRelaxed { sl =>
        val rs = GraphBrowsing.relaxedCycles(adjB.value, 2, Some(sl)); (rs.size.toLong, rs.map(_._3).sum)
      }, () => PatternEnum.rp2(l2)),
      ("RP3", () => gbRelaxed { sl =>
        val rs = GraphBrowsing.relaxedCycles(adjB.value, 3, Some(sl)); (rs.size.toLong, rs.map(_._3).sum)
      }, () => PatternEnum.rp3(l3)),
    )

    val fp = scala.collection.mutable.LinkedHashMap.empty[String, Any]
    for ((p, gb, pb) <- patterns) {
      res.attempted += 2
      def attempt[A](side: String)(f: => A): Option[A] =
        try Some(f) catch { case NonFatal(e) => res.failures += s"pattern $p $side: $e"; None }
      val g = attempt("GB")(gbTimed(s"GraphBrowsing.$p")(gb()))
      val q = attempt("PB")(pbTimed(s"PatternEnum.$p")(pb()))
      g.foreach { case (n, _, capped) =>
        fp(s"$p.gb_instances") = n
        if (tr.enabled) {
          res.layers(s"GraphBrowsing.$p.s") = tr.seconds(s"GraphBrowsing.$p")
          res.layers(s"GraphBrowsing.$p.instances") = n.toDouble
          res.layers(s"GraphBrowsing.$p.capped") = if (capped) 1.0 else 0.0
        }
      }
      q.foreach { case (n, avg) =>
        fp(s"$p.pb_instances") = n
        // P4's two sides time different instance sets (GB caps per slice, PB
        // takes an unordered `limit`), so P4 is fingerprinted, not compared.
        if (p == "P4") fp("P4.pb_avg_flow") = avg
        if (tr.enabled) res.layers(s"PatternEnum.$p.s") = tr.seconds(s"PatternEnum.$p")
      }
      for ((gn, gtot, capped) <- g; (pn, pavg) <- q if p != "P4" && !capped) {
        val gavg = if (gn == 0) 0.0 else gtot / gn
        if (gn != pn || math.abs(gavg - pavg) > FlowTolerance * math.max(1.0, math.abs(pavg)))
          res.failures += s"pattern $p: GB $gn instances avg $gavg != PB $pn instances avg $pavg"
      }
    }
    l2.unpersist(); l3.unpersist(); c2.unpersist(); adjB.destroy()
    val secs = Workload.seconds(t0)
    if (tr.enabled) {
      res.layers("gb_s") = gbNs / 1e9
      res.layers("pb_s") = pbNs / 1e9
      res.layers("AdjacencyIndex.fromInteractions.s") = tr.seconds("AdjacencyIndex.fromInteractions")
      Seq("l2", "l3", "c2").foreach(t => res.layers(s"PathTables.$t.s") = tr.seconds(s"PathTables.$t"))
      val enumGroups = tr.spans.iterator.map(_.name).filter(_.startsWith("PatternEnum.")).toSet
      tr.stages.foreach(st => res.layers("PatternEnum.shuffle_mb") = st.shuffleMb(enumGroups))
    }
    (fp.toMap, secs)
  }
}
