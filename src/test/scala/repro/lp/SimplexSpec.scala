package repro.lp

import repro.SparkSpec

/** Unit tests for the dense simplex substrate (the lpsolve replacement). */
class SimplexSpec extends SparkSpec {
  private val Tol = 1e-7

  /** No variable bounds: every constraint is a row of `a`. */
  private def solve(a: Array[Array[Double]], b: Array[Double], c: Array[Double]) =
    Simplex.maximize(a, b, c, Array.fill(c.length)(Double.PositiveInfinity))

  test("1-var: max x s.t. x <= 4") {
    val s = solve(Array(Array(1.0)), Array(4.0), Array(1.0))
    assert(math.abs(s.value - 4.0) < Tol)
    assert(math.abs(s.x(0) - 4.0) < Tol)
  }

  test("1-var: negative cost stays at zero") {
    val s = solve(Array(Array(1.0)), Array(4.0), Array(-1.0))
    assert(math.abs(s.value) < Tol)
  }

  test("classic 2-var LP") {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> opt 36 at (2,6)
    val a = Array(Array(1.0, 0.0), Array(0.0, 2.0), Array(3.0, 2.0))
    val s = solve(a, Array(4.0, 12.0, 18.0), Array(3.0, 5.0))
    assert(math.abs(s.value - 36.0) < Tol)
    assert(math.abs(s.x(0) - 2.0) < Tol)
    assert(math.abs(s.x(1) - 6.0) < Tol)
  }

  test("2-var with redundant constraint") {
    // max x + y s.t. x + y <= 5, x <= 10 -> 5
    val s = solve(Array(Array(1.0, 1.0), Array(1.0, 0.0)), Array(5.0, 10.0), Array(1.0, 1.0))
    assert(math.abs(s.value - 5.0) < Tol)
  }

  test("degenerate LP terminates (Beale's cycling example)") {
    // Beale's classic instance that cycles under naive Dantzig pivoting;
    // optimum 1/20 at x = (1/25, 0, 1, 0).
    val a = Array(
      Array(0.25, -60.0, -0.04, 9.0),
      Array(0.5, -90.0, -0.02, 3.0),
      Array(0.0, 0.0, 1.0, 0.0),
    )
    val b = Array(0.0, 0.0, 1.0)
    val c = Array(0.75, -150.0, 0.02, -6.0)
    val s = solve(a, b, c)
    assert(math.abs(s.value - 0.05) < 1e-6)
  }

  test("unbounded LP raises") {
    intercept[Simplex.SimplexException] {
      solve(Array(Array(-1.0)), Array(1.0), Array(1.0))
    }
  }

  test("no binding constraints with zero cost returns zero") {
    val s = solve(Array(Array(1.0)), Array(Double.PositiveInfinity), Array(0.0))
    assert(s.value === 0.0)
  }

  test("infinite right-hand sides are vacuous") {
    val a = Array(Array(1.0), Array(1.0))
    val s = solve(a, Array(Double.PositiveInfinity, 3.0), Array(1.0))
    assert(math.abs(s.value - 3.0) < Tol)
  }

  test("zero b row forces variable combination to zero") {
    // max x + y s.t. x - y <= 0, y <= 2  -> x = y = 2, value 4
    val s = solve(Array(Array(1.0, -1.0), Array(0.0, 1.0)), Array(0.0, 2.0), Array(1.0, 1.0))
    assert(math.abs(s.value - 4.0) < Tol)
  }

  test("flow-shaped LP: diamond") {
    // Variables: x1 = y->z, x2 = y->t, x3 = z->t (fig3 without the source rows)
    // max x2 + x3
    // x1 <= 5 (inflow to y from s), x2 <= 5 - x1, x3 <= 3 + x1
    // bounds x1 <= 5, x2 <= 4, x3 <= 1
    val a = Array(
      Array(1.0, 0.0, 0.0),
      Array(1.0, 1.0, 0.0),
      Array(-1.0, 0.0, 1.0),
      Array(1.0, 0.0, 0.0),
      Array(0.0, 1.0, 0.0),
      Array(0.0, 0.0, 1.0),
    )
    val b = Array(5.0, 5.0, 3.0, 5.0, 4.0, 1.0)
    val s = solve(a, b, Array(0.0, 1.0, 1.0))
    assert(math.abs(s.value - 5.0) < Tol) // x2=4 (x1=1 reserved), x3=1
    // The same LP with the last three rows as variable bounds.
    val bounded = Simplex.maximize(a.take(3), b.take(3), Array(0.0, 1.0, 1.0), b.drop(3))
    assert(math.abs(bounded.value - 5.0) < Tol)
    assert(math.abs(bounded.x(1) - 4.0) < Tol && math.abs(bounded.x(2) - 1.0) < Tol)
  }

  test("many-variable diagonal LP") {
    val n = 40
    val a = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)
    val b = Array.tabulate(n)(i => (i + 1).toDouble)
    val s = solve(a, b, Array.fill(n)(1.0))
    assert(math.abs(s.value - n * (n + 1) / 2.0) < 1e-6)
  }

  test("solution vector satisfies all constraints") {
    val a = Array(Array(2.0, 1.0), Array(1.0, 3.0))
    val b = Array(8.0, 9.0)
    val s = solve(a, b, Array(1.0, 1.0))
    a.indices.foreach { i =>
      val lhs = a(i).zip(s.x).map { case (x, y) => x * y }.sum
      assert(lhs <= b(i) + 1e-7)
    }
    assert(s.x.forall(_ >= -1e-9))
    // opt at intersection: x=3, y=2, value 5
    assert(math.abs(s.value - 5.0) < Tol)
  }

  test("negative b rejected") {
    intercept[IllegalArgumentException] {
      solve(Array(Array(1.0)), Array(-1.0), Array(1.0))
    }
  }

  test("a basic variable leaves the basis at its upper bound") {
    // max y s.t. y - x <= 0, x <= 10, y <= 3: y enters first (degenerately),
    // then x raises y to its bound.
    val s = Simplex.maximize(Array(Array(-1.0, 1.0)), Array(0.0), Array(0.0, 1.0), Array(10.0, 3.0))
    assert(math.abs(s.value - 3.0) < Tol)
    assert(math.abs(s.x(1) - 3.0) < Tol)
    assert(s.x(0) >= 3.0 - Tol && s.x(0) <= 10.0 + Tol)
  }

  test("bounds alone bound an LP without rows; a zero bound pins its variable") {
    val s = Simplex.maximize(Array.empty[Array[Double]], Array.empty[Double], Array(1.0, 2.0, 5.0), Array(3.0, 4.0, 0.0))
    assert(math.abs(s.value - 11.0) < Tol)
    assert(s.x.toSeq === Seq(3.0, 4.0, 0.0))
  }

  test("negative upper bound rejected") {
    intercept[IllegalArgumentException] {
      Simplex.maximize(Array(Array(1.0)), Array(1.0), Array(1.0), Array(-1.0))
    }
  }

  test("bounded and row-form LPs agree on random instances") {
    val rnd = new scala.util.Random(7)
    def pick(xs: Double*) = xs(rnd.nextInt(xs.length))
    for (_ <- 0 until 500) {
      val n = 1 + rnd.nextInt(6)
      val m = rnd.nextInt(7)
      val a = Array.fill(m, n)(pick(-2, -1, 0, 0, 0, 1, 1, 2, 3))
      val b = Array.fill(m)(pick(0, 0, 1, 2, 3.5, 7))
      val c = Array.fill(n)(pick(-1, 0, 1, 1, 2))
      val u = Array.fill(n)(pick(0, 1, 2.5, 4, 6, Double.PositiveInfinity))
      // Bound rows with an infinite right-hand side are skipped as vacuous.
      val rowForm = scala.util.Try(solve(a ++ Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0), b ++ u, c))
      val bounded = scala.util.Try(Simplex.maximize(a, b, c, u))
      assert(rowForm.isSuccess === bounded.isSuccess, s"A=${a.map(_.toSeq).toSeq} b=${b.toSeq} c=${c.toSeq} u=${u.toSeq}")
      bounded.foreach { s =>
        assert(math.abs(s.value - rowForm.get.value) < 1e-7 * math.max(1.0, math.abs(s.value)))
        assert(math.abs(s.x.zip(c).map { case (x, w) => x * w }.sum - s.value) < 1e-7 * math.max(1.0, math.abs(s.value)))
        s.x.indices.foreach(j => assert(s.x(j) >= -1e-9 && s.x(j) <= u(j) + 1e-9))
        a.indices.foreach(i => assert(a(i).zip(s.x).map { case (w, x) => w * x }.sum <= b(i) + 1e-7))
      }
    }
  }
}
