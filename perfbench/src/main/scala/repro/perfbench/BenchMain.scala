package repro.perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.NetworkGen

/** Entry point of one benchmark run, started by `perfbench/run.py`:
  *
  * {{{
  * BenchMain --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <raw.json>
  * }}}
  *
  * Set-up (Spark session, network generation and caching, plus any
  * workload-specific preparation) is done [[BenchMain.SetupReps]] times,
  * the last one kept. Then the workload's job repeats until `--seconds`
  * have passed (at least once). With `--trace 1` the run instead makes one
  * untraced and one traced repetition, the second recording layer spans.
  */
object BenchMain {

  val SetupReps = 3
  val ShufflePartitions = 64

  final case class Args(workload: String, seed: Option[Long], seconds: Double, trace: Boolean, out: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    Args(need("workload"), kv.get("seed").map(_.toLong), need("seconds").toDouble,
      need("trace") == "1", need("out"))
  }

  def session(): SparkSession =
    SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = Workload.all.find(_.name == args.workload)
      .getOrElse(sys.error(s"unknown workload ${args.workload}; know ${Workload.all.map(_.name).mkString(", ")}"))
    val spec = w.spec.copy(seed = args.seed.getOrElse(w.spec.seed))
    val res  = new Result

    var spark: SparkSession = null
    var net: DataFrame      = null
    var tr: Tracer          = null
    var state: w.State      = null.asInstanceOf[w.State]
    for (i <- 0 until SetupReps) {
      if (i > 0) { net.unpersist(); spark.stop() }
      val t0 = System.nanoTime()
      spark = session()
      tr = new Tracer(spark.sparkContext, args.trace && i == SetupReps - 1)
      net = tr("NetworkGen.generate") {
        val df = NetworkGen.generate(spark, spec, w.sf).cache()
        res.layers("NetworkGen.generate.rows") = df.count().toDouble
        df
      }
      state = w.prepare(spark, net, tr, res)
      res.setupS += (if (i == 0) Jvm.secondsSinceStart else (System.nanoTime() - t0) / 1e9)
    }
    if (tr.enabled) res.layers("NetworkGen.generate.s") = tr.seconds("NetworkGen.generate")

    describe(res, spark, w, spec, args)
    Jvm.resetHeapPeaks()
    val gc0 = Jvm.gcSeconds
    val t0  = System.nanoTime()
    def job(traced: Boolean): Double = {
      val (fp, s) = w.job(spark, net, state, if (traced) tr else new Tracer(spark.sparkContext, false), res)
      res.fingerprints += fp
      s
    }
    if (args.trace) {
      val untraced = job(traced = false)
      val firstSpan = tr.spans.size
      val traced    = job(traced = true)
      res.jobS += untraced
      res.layers("trace.job_s_untraced") = untraced
      res.layers("trace.job_s_traced") = traced
      res.layers("trace.overhead_s") = traced - untraced
      res.layers("trace.coverage") = tr.topLevelSecondsSince(firstSpan) / traced
      res.layers("jvm.gc_s") = Jvm.gcSeconds - gc0
    } else {
      res.jobS += job(traced = false)
      while ((System.nanoTime() - t0) / 1e9 < args.seconds) res.jobS += job(traced = false)
    }
    res.heapPeakMb = Jvm.heapPeakMb
    spark.stop()
    Files.writeString(Paths.get(args.out), res.toJson)
  }

  private def describe(res: Result, spark: SparkSession, w: Workload, spec: NetworkGen.NetSpec, args: Args): Unit = {
    val c = res.config
    c("workload") = w.name
    c("dataset") = spec.name
    c("seed") = spec.seed
    c("sf") = w.sf
    c ++= w.params
    c("nproc") = Runtime.getRuntime.availableProcessors
    c("spark_master") = spark.sparkContext.master
    c("shuffle_partitions") = spark.conf.get("spark.sql.shuffle.partitions")
    c("heap_max_mb") = Runtime.getRuntime.maxMemory / 1e6
    c("jdk") = System.getProperty("java.vm.name") + " " + System.getProperty("java.runtime.version")
    c("spark_version") = spark.version
    c("seconds") = args.seconds
    c("setup_reps") = SetupReps
  }
}
