package repro.perfbench

import repro.core._
import repro.harness.FlowExperiment
import repro.maxflow.TimeExpanded
import scala.util.control.NonFatal

/** Per-subgraph work of the flow workloads, kept in a standalone object so
  * Spark closures capture nothing but their arguments.
  */
object FlowOps {

  /** Tolerance of every flow-vs-oracle check. It is the one
    * `FlowExperiment.measure` applies, so both flow workloads check alike.
    */
  def tolerance(reference: Double): Double = 1e-4 * math.max(1.0, math.abs(reference))

  /** One subgraph measured by `FlowExperiment.measure`. `error` is null
    * when the subgraph was measured and verified; `stages` is the traced
    * decomposition (empty when tracing is off).
    */
  final case class Measured(
      seed: Int,
      cls: String,
      presimFlow: Double,
      lpMs: Double,
      preMs: Double,
      presimMs: Double,
      error: String,
      stages: Array[Double],
  )

  def measure(seed: Int, g: FlowGraph, traced: Boolean): Measured =
    try {
      val (row, mismatches) = FlowExperiment.measure(seed, g, verify = true)
      val err =
        if (mismatches == 0) null
        else s"seed $seed: $mismatches of LP/Pre/PreSim/Greedy disagree with TimeExpanded.maxFlow"
      Measured(seed, row.cls, row.maxFlow, row.tLpNs / 1e6, row.tPreNs / 1e6,
        row.tPreSimNs / 1e6, err, if (traced) Stages.of(g) else Array.emptyDoubleArray)
    } catch {
      case NonFatal(e) => Measured(seed, "?", 0.0, 0, 0, 0, s"seed $seed: $e", Array.emptyDoubleArray)
    }

  /** The PreSim path split into its public steps, each timed on its own,
    * plus the raw LP and the oracle. The order of the steps follows
    * `FlowPipeline.preSim`; only the flow value of `preSim` itself is checked.
    */
  object Stages {
    val SolubilityNs = 0; val PreprocessNs = 1; val Removed = 2; val SimplifyNs = 3; val Chains = 4
    val GreedyNs = 5; val LpReducedNs = 6; val ReducedVars = 7; val ReducedRows = 8; val Cls = 9
    val UsedLp = 10; val LpRawNs = 11; val RawVars = 12; val RawRows = 13; val DinicNs = 14
    val Size = 15

    private def timed[A](out: Array[Double], slot: Int)(f: => A): A = {
      val t0 = System.nanoTime()
      val r  = f
      out(slot) += System.nanoTime() - t0
      r
    }

    def of(g: FlowGraph): Array[Double] = {
      val s = new Array[Double](Size)
      def lp(h: FlowGraph): Unit = {
        val r = timed(s, LpReducedNs)(MaxFlowLP.solve(h))
        s(ReducedVars) = r.numVariables; s(ReducedRows) = r.numConstraints; s(UsedLp) = 1
      }
      if (timed(s, SolubilityNs)(Solubility.solvableByGreedy(g))) {
        timed(s, GreedyNs)(Greedy.flow(g)); s(Cls) = 0
      } else {
        val p = timed(s, PreprocessNs)(Preprocess.run(g))
        s(Removed) = p.removedInteractions
        if (p.zeroFlow) s(Cls) = 1
        else if (timed(s, SolubilityNs)(Solubility.solvableByGreedy(p.graph))) {
          timed(s, GreedyNs)(Greedy.flow(p.graph)); s(Cls) = 1
        } else {
          s(Cls) = 2
          val r = timed(s, SimplifyNs)(Simplify.run(p.graph))
          s(Chains) = r.chainsReduced
          if (timed(s, SolubilityNs)(Solubility.solvableByGreedy(r.graph))) timed(s, GreedyNs)(Greedy.flow(r.graph))
          else lp(r.graph)
        }
      }
      val raw = timed(s, LpRawNs)(MaxFlowLP.solve(g))
      s(RawVars) = raw.numVariables; s(RawRows) = raw.numConstraints
      timed(s, DinicNs)(TimeExpanded.maxFlow(g))
      s
    }

    private def tableauMb(vars: Double, rows: Double): Double =
      if (vars <= 0) 0.0 else (rows + 1) * (vars + rows + 1) * 8 / 1e6

    /** Per-layer metrics summed (times, counts) or maxed over subgraphs. */
    def layers(all: Seq[Array[Double]]): Seq[(String, Double)] = {
      def sum(i: Int) = all.iterator.map(_(i)).sum
      def secs(i: Int) = sum(i) / 1e9
      val n = math.max(1, all.size)
      Seq(
        "Solubility.solvableByGreedy.s" -> secs(SolubilityNs),
        "Preprocess.run.s"              -> secs(PreprocessNs),
        "Preprocess.run.removed_interactions" -> sum(Removed),
        "Simplify.run.s"                -> secs(SimplifyNs),
        "Simplify.run.chains_reduced"   -> sum(Chains),
        "Greedy.flow.s"                 -> secs(GreedyNs),
        "MaxFlowLP.solve.raw_s"         -> secs(LpRawNs),
        "MaxFlowLP.solve.reduced_s"     -> secs(LpReducedNs),
        "MaxFlowLP.vars"                -> sum(RawVars) / n,
        "MaxFlowLP.rows"                -> sum(RawRows) / n,
        "MaxFlowLP.tableau_mb_max"      -> all.iterator.map(a =>
          math.max(tableauMb(a(RawVars), a(RawRows)), tableauMb(a(ReducedVars), a(ReducedRows)))).maxOption.getOrElse(0.0),
        "FlowPipeline.class_a"          -> all.count(_(Cls) == 0).toDouble,
        "FlowPipeline.class_b"          -> all.count(_(Cls) == 1).toDouble,
        "FlowPipeline.class_c"          -> all.count(_(Cls) == 2).toDouble,
        "FlowPipeline.no_lp_ratio"      -> all.count(_(UsedLp) == 0).toDouble / n,
        "TimeExpanded.maxFlow.s"        -> secs(DinicNs),
      )
    }
  }
}
