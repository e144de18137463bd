package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.FlowExperiment

/** spark-submit entrypoint reproducing Tables 5–8 (and the Figure 11 bucket
  * breakdown) for one dataset.
  *
  * Usage: `spark-submit --class repro.jobs.FlowBench repro.jar <bitcoin|ctu13|prosper> [sf] [maxInteractions]`
  */
object FlowBench {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("bitcoin")
    val sf      = args.lift(1).map(_.toDouble).getOrElse(defaultSf(dataset))
    val cap     = args.lift(2).map(_.toInt).getOrElse(2000)
    val spark   = SparkSession.builder().appName(s"repro-flow-bench-$dataset").getOrCreate()
    val report  = FlowExperiment.run(spark, FlowExperiment.Config(dataset, sf, cap))
    println(report.render)
    spark.stop()
  }

  def defaultSf(dataset: String): Double = dataset match {
    case "bitcoin" => 0.002
    case "ctu13"   => 0.02
    case "prosper" => 0.02
    case other     => sys.error(s"unknown dataset $other")
  }
}
