package repro.ml

import repro.core.TaskKind

/** Regularized ℓ2,1 sparse regression (§6.2, Equation 1):
  *
  *   L(W) = ‖X·W − Y‖₂,₁ + γ·‖W‖₂,₁
  *
  * with X the (coreset) design matrix (n×d), Y the label matrix (n×c;
  * c = 1 for regression, one-hot over classes for classification) and the
  * ℓ2,1-norm summing row ℓ2-norms. Solved with the iteratively reweighted
  * least-squares scheme of Nie et al. (the "efficient gradient based
  * solver" family the paper cites): alternate diagonal reweighting of
  * residual rows (E) and weight rows (D) with a d×d ridge solve
  *
  *   W = (Xᵀ E X + γ D)⁻¹ Xᵀ E Y.
  *
  * Each iteration provably decreases the (convex) objective; we stop on
  * relative improvement < tol. The feature ranking is the row-norm vector
  * ‖W_j‖₂.
  *
  * Everything runs on plain arrays: X and Y are column arrays (`x(j)(i)`
  * is column j of row i), W is held by rows (`w(j)(k)`). Xᵀ E X + γ D is
  * symmetric positive definite (D > 0), so each iteration builds only its
  * lower triangle and solves by Cholesky.
  */
object SparseRegression {

  /** The fitted W by rows (d arrays of c), its row norms, the objective
    * at the last iterate and the number of iterations run.
    */
  final case class Result(w: Array[Array[Double]], rowNorms: Array[Double],
                          objective: Double, iters: Int)

  /** Residual and weight rows are floored at this norm before reweighting. */
  private val Eps = 1e-8

  /** Build the label matrix as column arrays: one column for regression,
    * one-hot columns for classification (labels assumed 0..K−1).
    */
  def labelMatrix(y: Array[Double], task: TaskKind): Array[Array[Double]] = task match {
    case TaskKind.Regression => Array(y.clone())
    case TaskKind.Classification =>
      val k = math.max(2, y.max.toInt + 1)
      Array.tabulate(k)(c => y.map(v => if (v.toInt == c) 1.0 else 0.0))
  }

  def solve(x: Array[Array[Double]], y: Array[Array[Double]],
            gamma: Double = 0.1, maxIter: Int = 15, tol: Double = 1e-4): Result = {
    val d = x.length; val c = y.length
    val n = y(0).length
    var w = Array.fill(d)(new Array[Double](c))
    var residNorms = residualRowNorms(x, w, y)
    var prevObj = Double.MaxValue
    var it = 0
    var done = false
    while (it < maxIter && !done) {
      // Residual-row weights e_i = 1 / (2‖(XW − Y)_i‖) …
      val e = residNorms.map(r => 1.0 / (2.0 * math.max(Eps, r)))
      // … and weight-row weights d_j = 1 / (2‖W_j‖).
      val dj = w.map(row => 1.0 / (2.0 * math.max(Eps, norm(row))))
      // W = (Xᵀ E X + γ D)⁻¹ Xᵀ E Y, for E and D diagonal.
      val xe = x.map(col => Array.tabulate(n)(i => col(i) * e(i)))
      val lower = Array.tabulate(d) { j =>
        val row = Array.tabulate(j + 1)(k => dot(xe(j), x(k)))
        row(j) += gamma * dj(j)
        row
      }
      val b = Array.tabulate(d, c)((j, k) => dot(xe(j), y(k)))
      w = choleskySolve(lower, b)
      residNorms = residualRowNorms(x, w, y)
      val obj = residNorms.sum + gamma * l21(w)
      if (math.abs(prevObj - obj) <= tol * math.max(1.0, math.abs(prevObj))) done = true
      prevObj = obj
      it += 1
    }
    Result(w, w.map(norm), prevObj, it)
  }

  /** ℓ2,1-norm of the matrix with rows `rows`: the sum of their ℓ2 norms. */
  def l21(rows: Array[Array[Double]]): Double = rows.map(norm).sum

  private def norm(v: Array[Double]): Double = math.sqrt(dot(v, v))

  private def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** The ℓ2 norm of every row of X·W − Y. */
  private def residualRowNorms(x: Array[Array[Double]], w: Array[Array[Double]],
                               y: Array[Array[Double]]): Array[Double] = {
    val n = y(0).length
    val sq = new Array[Double](n)
    for (k <- y.indices) {
      val r = y(k).map(-_)
      for (j <- x.indices) {
        val (col, wjk) = (x(j), w(j)(k))
        var i = 0
        while (i < n) { r(i) += wjk * col(i); i += 1 }
      }
      var i = 0
      while (i < n) { sq(i) += r(i) * r(i); i += 1 }
    }
    sq.map(math.sqrt)
  }

  /** A⁻¹B for the symmetric positive definite A given by its lower
    * triangle (`lower(j)` holds A(j, 0..j)), with B by rows (d × c).
    * Factors A = LLᵀ row by row in place of `lower`, then solves LZ = B
    * and LᵀW = Z in place of `b`. A pivot that rounding leaves at or
    * below 1e-12 of its diagonal is floored there.
    */
  private def choleskySolve(lower: Array[Array[Double]], b: Array[Array[Double]]): Array[Array[Double]] = {
    val d = lower.length
    for (j <- 0 until d; k <- 0 to j) {
      val (lj, lk) = (lower(j), lower(k))
      var s = lj(k)
      var m = 0
      while (m < k) { s -= lj(m) * lk(m); m += 1 }
      lj(k) = if (k < j) s / lk(k) else math.sqrt(math.max(s, 1e-12 * lj(j)))
    }
    for (r <- 0 until d; k <- b(r).indices) {
      var s = b(r)(k)
      var m = 0
      while (m < r) { s -= lower(r)(m) * b(m)(k); m += 1 }
      b(r)(k) = s / lower(r)(r)
    }
    for (r <- d - 1 to 0 by -1; k <- b(r).indices) {
      var s = b(r)(k)
      var m = r + 1
      while (m < d) { s -= lower(m)(r) * b(m)(k); m += 1 }
      b(r)(k) = s / lower(r)(r)
    }
    b
  }
}
