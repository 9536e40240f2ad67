package repro.ml

import breeze.linalg.{*, diag, norm, DenseMatrix, DenseVector}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.TaskKind

class SparseRegressionSpec extends AnyFunSuite {

  /** `d` Gaussian columns of `n` rows, drawn column by column, and a
    * label summing the `support` columns plus noise.
    */
  private def planted(n: Int, d: Int, support: Seq[Int], seed: Int,
                      noise: Double = 0.05): (Array[Array[Double]], Array[Double]) = {
    val rnd = new Random(seed)
    val x = Array.fill(d)(Array.fill(n)(rnd.nextGaussian()))
    val y = Array.tabulate(n) { i =>
      support.map(j => x(j)(i)).sum + rnd.nextGaussian() * noise
    }
    (x, y)
  }

  test("labelMatrix builds a column vector for regression") {
    val y = Array(1.0, 2.0, 3.0)
    val m = SparseRegression.labelMatrix(y, TaskKind.Regression)
    assert(m(0).length == 3 && m.length == 1 && m(0)(1) == 2.0)
  }

  test("labelMatrix one-hot encodes classification labels") {
    val y = Array(0.0, 2.0, 1.0)
    val m = SparseRegression.labelMatrix(y, TaskKind.Classification)
    assert(m(0).length == 3 && m.length == 3)
    assert(m(0)(0) == 1.0 && m(2)(1) == 1.0 && m(1)(2) == 1.0)
    assert(m(1)(0) == 0.0)
  }

  test("l21 norm sums row norms") {
    val m = Array(Array(3.0, 4.0), Array(0.0, 0.0), Array(5.0, 12.0))
    assert(math.abs(SparseRegression.l21(m) - (5.0 + 0.0 + 13.0)) < 1e-12)
  }

  test("solver recovers a planted sparse support") {
    val support = Seq(2, 7, 11)
    val (x, y) = planted(120, 20, support, seed = 1)
    val res = SparseRegression.solve(x, SparseRegression.labelMatrix(y, TaskKind.Regression), gamma = 0.05)
    val top = res.rowNorms.zipWithIndex.sortBy(-_._1).take(3).map(_._2).toSet
    assert(top == support.toSet, s"top features $top vs planted $support")
  }

  test("solver row norms separate signal from noise by a margin") {
    val support = Seq(0, 1)
    val (x, y) = planted(150, 15, support, seed = 2)
    val res = SparseRegression.solve(x, SparseRegression.labelMatrix(y, TaskKind.Regression), gamma = 0.05)
    val norms = res.rowNorms
    val sig = support.map(norms).min
    val noise = norms.zipWithIndex.filterNot(p => support.contains(p._2)).map(_._1).max
    assert(sig > 3 * noise, s"signal $sig vs noise $noise")
  }

  test("objective decreases monotonically to convergence") {
    val (x, y) = planted(80, 10, Seq(3), seed = 3)
    val yM = SparseRegression.labelMatrix(y, TaskKind.Regression)
    val r5 = SparseRegression.solve(x, yM, gamma = 0.1, maxIter = 5, tol = 0.0)
    val r25 = SparseRegression.solve(x, yM, gamma = 0.1, maxIter = 25, tol = 0.0)
    assert(r25.objective <= r5.objective + 1e-9)
  }

  test("higher gamma shrinks total row norms") {
    val (x, y) = planted(80, 10, Seq(2, 5), seed = 4)
    val yM = SparseRegression.labelMatrix(y, TaskKind.Regression)
    val lo = SparseRegression.solve(x, yM, gamma = 0.01)
    val hi = SparseRegression.solve(x, yM, gamma = 5.0)
    assert(hi.rowNorms.sum < lo.rowNorms.sum)
  }

  test("classification: ranks a discriminative feature above noise") {
    val rnd = new Random(5)
    val n = 120
    val x = Array.fill(8)(Array.fill(n)(rnd.nextGaussian()))
    val y = Array.tabulate(n)(i => if (x(4)(i) > 0) 1.0 else 0.0)
    val res = SparseRegression.solve(x, SparseRegression.labelMatrix(y, TaskKind.Classification), 0.05)
    assert(res.rowNorms.zipWithIndex.maxBy(_._1)._2 == 4)
  }

  test("solver is deterministic") {
    val (x, y) = planted(60, 8, Seq(1), seed = 7)
    val yM = SparseRegression.labelMatrix(y, TaskKind.Regression)
    val a = SparseRegression.solve(x, yM).rowNorms.toSeq
    val b = SparseRegression.solve(x, yM).rowNorms.toSeq
    assert(a == b)
  }

  test("row norms match the Breeze LU solver's on fixed regression and 3-class problems") {
    // (n, d, task, seed): a label planted on the first five columns.
    val problems = Seq((120, 8, TaskKind.Regression, 11), (400, 40, TaskKind.Regression, 12),
                       (800, 150, TaskKind.Regression, 13), (150, 12, TaskKind.Classification, 14),
                       (500, 60, TaskKind.Classification, 15), (800, 150, TaskKind.Classification, 16))
    for ((n, d, task, seed) <- problems) {
      val (x, signal) = planted(n, d, 0 until 5, seed, noise = 0.5)
      val y = task match {
        case TaskKind.Regression     => signal
        case TaskKind.Classification => signal.map(v => if (v < -1) 0.0 else if (v < 1) 1.0 else 2.0)
      }
      val cols = MatrixOps.standardize(x)
      val got = SparseRegression.solve(cols, SparseRegression.labelMatrix(y, task)).rowNorms
      val want = SparseRegressionSpec.breezeRowNorms(
        new DenseMatrix(n, d, cols.flatten), SparseRegressionSpec.breezeLabels(y, task))
      val scale = want.max
      val worst = got.indices.map(j => math.abs(got(j) - want(j))).max
      assert(worst <= 1e-4 * scale, s"n=$n d=$d $task: worst |Δ| $worst of max norm $scale")
      def order(norms: Array[Double]) = norms.indices.sortBy(j => -norms(j))
      assert(order(got) == order(want), s"n=$n d=$d $task: rankings differ")
    }
  }
}

object SparseRegressionSpec {

  /** The Breeze label matrix: one column, or one-hot rows. */
  def breezeLabels(y: Array[Double], task: TaskKind): DenseMatrix[Double] = task match {
    case TaskKind.Regression => new DenseMatrix(y.length, 1, y.clone())
    case TaskKind.Classification =>
      val m = DenseMatrix.zeros[Double](y.length, math.max(2, y.max.toInt + 1))
      y.indices.foreach(i => m(i, y(i).toInt) = 1.0)
      m
  }

  /** The reference: the same IRLS in Breeze, each ridge step solved by LU
    * (`\`), at the same γ, iterations, tolerance and ε; the row norms of W.
    */
  def breezeRowNorms(x: DenseMatrix[Double], y: DenseMatrix[Double], gamma: Double = 0.1,
                     maxIter: Int = 15, tol: Double = 1e-4): Array[Double] = {
    val n = x.rows; val d = x.cols
    val eps = 1e-8
    def l21(m: DenseMatrix[Double]): Double = (0 until m.rows).map(i => norm(m(i, ::).t)).sum
    var w = DenseMatrix.zeros[Double](d, y.cols)
    var prevObj = Double.MaxValue
    var it = 0
    var done = false
    while (it < maxIter && !done) {
      val resid = x * w - y
      val eDiag = DenseVector.tabulate(n)(i => 1.0 / (2.0 * math.max(eps, norm(resid(i, ::).t))))
      val dDiag = DenseVector.tabulate(d)(j => 1.0 / (2.0 * math.max(eps, norm(w(j, ::).t))))
      val xe = (x(::, *) *:* eDiag).t
      w = (xe * x + diag(dDiag) * gamma) \ (xe * y)
      val obj = l21(x * w - y) + gamma * l21(w)
      if (math.abs(prevObj - obj) <= tol * math.max(1.0, math.abs(prevObj))) done = true
      prevObj = obj
      it += 1
    }
    Array.tabulate(d)(j => norm(w(j, ::).t))
  }
}
