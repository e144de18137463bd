package repro.lp

/** Dense primal simplex for LPs in the standard inequality form
  *
  *   maximize    c·x
  *   subject to  A x <= b,   0 <= x <= u,   with b >= 0 and u >= 0.
  *
  * Substrate replacing the paper's `lpsolve` dependency (unavailable
  * offline). The non-negative right-hand side makes the all-slack basis
  * feasible, so no phase-1 is needed — which is exactly the shape of the
  * paper's max-flow LP (Section 4.2.1): buffer constraints have non-negative
  * source-inflow right-hand sides and every variable is bounded by its
  * interaction's quantity.
  *
  * Upper bounds are kept out of the tableau (the bounded-variable method):
  * a variable that reaches its bound is substituted by `u - x`, which
  * negates its column. The max-flow LP has one bound per variable, so as
  * rows they would double the tableau's height and triple its size.
  *
  * Pivoting uses Dantzig's rule with a switch to Bland's rule after a fixed
  * number of iterations to guarantee termination under degeneracy.
  */
object Simplex {

  /** Optimal value and a maximizing assignment. */
  final case class Solution(value: Double, x: Array[Double])

  final case class SimplexException(msg: String) extends RuntimeException(msg)

  private val Eps = 1e-9

  /** Solve max c·x s.t. Ax <= b, 0 <= x <= u. Requires b >= 0 and u >= 0
    * (checked); an infinite `u(j)` leaves `x(j)` unbounded above.
    *
    * Rows of `A` with an infinite right-hand side are vacuous and skipped.
    */
  def maximize(a: Array[Array[Double]], b: Array[Double], c: Array[Double], u: Array[Double]): Solution = {
    require(a.length == b.length, s"rows mismatch: A=${a.length} b=${b.length}")
    require(u.length == c.length, s"bounds mismatch: u=${u.length} c=${c.length}")
    u.indices.foreach(j => require(u(j) >= 0.0, s"u($j)=${u(j)} must be non-negative"))
    val keep = b.indices.filter(i => !b(i).isInfinity).toArray
    keep.foreach(i => require(b(i) >= -Eps, s"b($i)=${b(i)} must be non-negative"))
    val m = keep.length
    val n = c.length

    val cols = n + m + 1
    val rhs  = cols - 1
    // tableau rows 0..m-1 = constraints [A | I | b]; row m = objective [-c | 0 | 0]
    val t = Array.ofDim[Double](m + 1, cols)
    var r = 0
    while (r < m) {
      val src = a(keep(r))
      require(src.length == n, s"A row ${keep(r)} has ${src.length} cols, expected $n")
      System.arraycopy(src, 0, t(r), 0, n)
      t(r)(n + r) = 1.0
      t(r)(rhs) = math.max(0.0, b(keep(r)))
      r += 1
    }
    var j = 0
    while (j < n) { t(m)(j) = -c(j); j += 1 }

    // Upper bound per column (slacks are unbounded) and whether the column
    // currently stands for `u - x` instead of `x`.
    val ub      = Array.tabulate(n + m)(k => if (k < n) u(k) else Double.PositiveInfinity)
    val flipped = new Array[Boolean](n)
    val basis   = Array.tabulate(m)(i => n + i)

    val maxIter     = 200 * (n + m) + 2000
    val blandAfter  = 20 * (n + m) + 500
    var iter        = 0
    var done        = false
    while (!done) {
      iter += 1
      if (iter > maxIter) throw SimplexException(s"iteration limit $maxIter exceeded (n=$n m=$m)")
      val bland = iter > blandAfter
      // entering column: most negative objective coefficient (Dantzig) or
      // first negative (Bland).
      var enter = -1
      var best  = -Eps
      var col   = 0
      while (col < cols - 1 && (enter < 0 || !bland)) {
        val v = t(m)(col)
        if (v < best) {
          enter = col
          if (bland) best = Double.NegativeInfinity // take first
          else best = v
          if (bland) col = cols // break
        }
        col += 1
      }
      if (enter < 0) done = true
      else {
        // ratio test: the basic variable that first reaches 0 (positive
        // column entry) or its upper bound (negative entry); Bland ties
        // broken by smallest basis index.
        var leave   = -1
        var toUpper = false
        var ratio   = Double.PositiveInfinity
        var i       = 0
        while (i < m) {
          val aij = t(i)(enter)
          val rt =
            if (aij > Eps) t(i)(rhs) / aij
            else if (aij < -Eps && !ub(basis(i)).isInfinity) (ub(basis(i)) - t(i)(rhs)) / -aij
            else Double.PositiveInfinity
          if (rt < ratio - Eps || (rt < ratio + Eps && (leave < 0 || basis(i) < basis(leave)))) {
            ratio = rt
            leave = i
            toUpper = aij < 0
          }
          i += 1
        }
        if (ub(enter) < ratio) {
          // The entering variable reaches its own bound first: no basis change.
          flip(t, enter, ub(enter))
          flipped(enter) = !flipped(enter)
        } else if (leave < 0)
          throw SimplexException("unbounded LP — flow LPs are bounded, formulation bug")
        else {
          if (toUpper) {
            // Substitute the leaving variable by u - x' so it leaves at 0.
            val lv  = basis(leave)
            val row = t(leave)
            row(rhs) -= ub(lv)
            var k = 0
            while (k < cols) { row(k) = -row(k); k += 1 }
            row(lv) = 1.0
            flipped(lv) = !flipped(lv)
          }
          pivot(t, leave, enter)
          basis(leave) = enter
        }
      }
    }

    val x = Array.fill(n)(0.0)
    var i = 0
    while (i < m) {
      if (basis(i) < n) x(basis(i)) = t(i)(rhs)
      i += 1
    }
    j = 0
    while (j < n) { if (flipped(j)) x(j) = u(j) - x(j); j += 1 }
    Solution(t(m)(rhs), x)
  }

  /** Substitutes column `col`'s variable by `bound - x` in every row. */
  private def flip(t: Array[Array[Double]], col: Int, bound: Double): Unit = {
    val rhs = t(0).length - 1
    var i   = 0
    while (i < t.length) {
      val row = t(i)
      row(rhs) -= row(col) * bound
      row(col) = -row(col)
      i += 1
    }
  }

  private def pivot(t: Array[Array[Double]], pr: Int, pc: Int): Unit = {
    val rows = t.length
    val cols = t(0).length
    val pv   = t(pr)(pc)
    var j    = 0
    val prow = t(pr)
    while (j < cols) { prow(j) /= pv; j += 1 }
    var i = 0
    while (i < rows) {
      if (i != pr) {
        val f = t(i)(pc)
        if (f != 0.0) {
          val row = t(i)
          var k   = 0
          while (k < cols) { row(k) -= f * prow(k); k += 1 }
          row(pc) = 0.0 // kill round-off in the pivot column
        }
      }
      i += 1
    }
  }
}
