package repro.maxflow

import repro.SparkSpec
import repro.core.{FlowGraph, Greedy, Interaction, Solubility}

/** Unit tests for the Dinic max-flow substrate. */
class DinicSpec extends SparkSpec {
  private val Tol = 1e-9

  test("single edge") {
    val d = new Dinic(2)
    d.addEdge(0, 1, 7.5)
    assert(math.abs(d.maxFlow(0, 1) - 7.5) < Tol)
  }

  test("two edges in series: bottleneck") {
    val d = new Dinic(3)
    d.addEdge(0, 1, 7.0); d.addEdge(1, 2, 3.0)
    assert(math.abs(d.maxFlow(0, 2) - 3.0) < Tol)
  }

  test("parallel paths add up") {
    val d = new Dinic(4)
    d.addEdge(0, 1, 4.0); d.addEdge(1, 3, 4.0)
    d.addEdge(0, 2, 5.0); d.addEdge(2, 3, 2.0)
    assert(math.abs(d.maxFlow(0, 3) - 6.0) < Tol)
  }

  test("classic augmenting-path trap (cross edge) is handled") {
    // The textbook example where a naive greedy path choice needs residuals.
    val d = new Dinic(4)
    d.addEdge(0, 1, 1.0); d.addEdge(0, 2, 1.0)
    d.addEdge(1, 2, 1.0)
    d.addEdge(1, 3, 1.0); d.addEdge(2, 3, 1.0)
    assert(math.abs(d.maxFlow(0, 3) - 2.0) < Tol)
  }

  test("disconnected sink gives zero") {
    val d = new Dinic(3)
    d.addEdge(0, 1, 5.0)
    assert(d.maxFlow(0, 2) === 0.0)
  }

  test("parallel duplicate edges accumulate") {
    val d = new Dinic(2)
    d.addEdge(0, 1, 1.0); d.addEdge(0, 1, 2.5)
    assert(math.abs(d.maxFlow(0, 1) - 3.5) < Tol)
  }

  test("infinite capacity path yields infinite flow") {
    val d = new Dinic(3)
    d.addEdge(0, 1, Double.PositiveInfinity)
    d.addEdge(1, 2, Double.PositiveInfinity)
    assert(d.maxFlow(0, 2).isPosInfinity)
  }

  test("infinite middle edge bounded by finite ends") {
    val d = new Dinic(4)
    d.addEdge(0, 1, 4.0)
    d.addEdge(1, 2, Double.PositiveInfinity)
    d.addEdge(2, 3, 2.5)
    assert(math.abs(d.maxFlow(0, 3) - 2.5) < Tol)
  }

  test("bipartite-style network") {
    // s -> {1,2}, {1,2} -> {3,4}, {3,4} -> t
    val d = new Dinic(6)
    d.addEdge(0, 1, 3.0); d.addEdge(0, 2, 3.0)
    d.addEdge(1, 3, 2.0); d.addEdge(1, 4, 2.0)
    d.addEdge(2, 3, 2.0); d.addEdge(2, 4, 2.0)
    d.addEdge(3, 5, 3.0); d.addEdge(4, 5, 3.0)
    assert(math.abs(d.maxFlow(0, 5) - 6.0) < Tol)
  }

  test("flowOn reports per-edge flow consistent with conservation") {
    val d  = new Dinic(4)
    val e1 = d.addEdge(0, 1, 4.0)
    val e2 = d.addEdge(1, 3, 4.0)
    val e3 = d.addEdge(0, 2, 5.0)
    val e4 = d.addEdge(2, 3, 2.0)
    val f  = d.maxFlow(0, 3)
    assert(math.abs(d.flowOn(e1) - d.flowOn(e2)) < Tol)
    assert(math.abs(d.flowOn(e3) - d.flowOn(e4)) < Tol)
    assert(math.abs(d.flowOn(e1) + d.flowOn(e3) - f) < Tol)
  }

  test("fractional capacities") {
    val d = new Dinic(3)
    d.addEdge(0, 1, 0.3); d.addEdge(1, 2, 0.2)
    assert(math.abs(d.maxFlow(0, 2) - 0.2) < Tol)
  }

  test("rejects out-of-range vertices") {
    val d = new Dinic(2)
    intercept[IllegalArgumentException] { d.addEdge(0, 2, 1.0) }
  }

  test("an augmenting path along a long holdover chain does not overflow the stack") {
    // s→v→t with every v→t interaction later than every s→v one. Only the
    // first s→v interaction carries a quantity; the others give v arrival
    // versions but no capacity, so in TimeExpanded every augmenting path
    // starts at v's first version and walks its whole holdover chain.
    val n   = 100000
    val m   = 50
    val in  = (0 until n).map(i => Interaction(0, 1, i.toLong, if (i == 0) m.toDouble else 0.0))
    val out = (0 until m).map(j => Interaction(1, 2, (n + j).toLong, 1.0))
    val g   = FlowGraph(0, 2, in ++ out)
    assert(Solubility.solvableByGreedy(g)) // Lemma 2: Greedy is the max flow
    assert(math.abs(Greedy.flow(g) - m) < Tol)
    assert(math.abs(TimeExpanded.maxFlow(g) - m) < Tol)
  }
}
