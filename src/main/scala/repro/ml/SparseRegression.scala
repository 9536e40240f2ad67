package repro.ml

import breeze.linalg.{*, DenseMatrix, DenseVector, diag, norm}

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
  */
object SparseRegression {

  final case class Result(w: DenseMatrix[Double], rowNorms: DenseVector[Double],
                          objective: Double, iters: Int)

  /** Build the label matrix: a column vector for regression, one-hot rows
    * for classification (labels assumed 0..K−1).
    */
  def labelMatrix(y: DenseVector[Double], task: TaskKind): DenseMatrix[Double] = task match {
    case TaskKind.Regression =>
      new DenseMatrix(y.length, 1, y.toArray)
    case TaskKind.Classification =>
      val k = math.max(2, y.toArray.max.toInt + 1)
      val m = DenseMatrix.zeros[Double](y.length, k)
      var i = 0
      while (i < y.length) { m(i, y(i).toInt) = 1.0; i += 1 }
      m
  }

  def solve(x: DenseMatrix[Double], y: DenseMatrix[Double],
            gamma: Double = 0.1, maxIter: Int = 15, tol: Double = 1e-4): Result = {
    val n = x.rows; val d = x.cols
    val eps = 1e-8
    var w = DenseMatrix.zeros[Double](d, y.cols)
    var prevObj = Double.MaxValue
    var it = 0
    var done = false
    while (it < maxIter && !done) {
      // Residual-row weights e_i = 1 / (2‖(XW − Y)_i‖) …
      val resid = x * w - y
      val eDiag = DenseVector.tabulate(n) { i =>
        1.0 / (2.0 * math.max(eps, norm(resid(i, ::).t)))
      }
      // … and weight-row weights d_j = 1 / (2‖W_j‖).
      val dDiag = DenseVector.tabulate(d) { j =>
        1.0 / (2.0 * math.max(eps, norm(w(j, ::).t)))
      }
      // W = (Xᵀ E X + γ D)⁻¹ Xᵀ E Y  (E, D diagonal). Xᵀ E scales the
      // columns of Xᵀ; a product with an n×n DiagonalMatrix would take
      // O(d·n²) here.
      val xe = (x(::, *) *:* eDiag).t   // d×n
      val a  = xe * x + diag(dDiag) * gamma
      val b  = xe * y
      w = a \ b
      val obj = l21(x * w - y) + gamma * l21(w)
      if (math.abs(prevObj - obj) <= tol * math.max(1.0, math.abs(prevObj))) done = true
      prevObj = obj
      it += 1
    }
    val norms = DenseVector.tabulate(d)(j => norm(w(j, ::).t))
    Result(w, norms, prevObj, it)
  }

  /** ℓ2,1-norm: sum of row ℓ2 norms. */
  def l21(m: DenseMatrix[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < m.rows) { s += norm(m(i, ::).t); i += 1 }
    s
  }
}
