package repro.ml

import breeze.linalg.{DenseMatrix, DenseVector}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.TaskKind

class SparseRegressionSpec extends AnyFunSuite {

  private def planted(n: Int, d: Int, support: Seq[Int], seed: Int,
                      noise: Double = 0.05): (DenseMatrix[Double], DenseVector[Double]) = {
    val rnd = new Random(seed)
    val x = DenseMatrix.fill(n, d)(rnd.nextGaussian())
    val y = DenseVector.tabulate(n) { i =>
      support.map(j => x(i, j)).sum + rnd.nextGaussian() * noise
    }
    (x, y)
  }

  test("labelMatrix builds a column vector for regression") {
    val y = DenseVector(1.0, 2.0, 3.0)
    val m = SparseRegression.labelMatrix(y, TaskKind.Regression)
    assert(m.rows == 3 && m.cols == 1 && m(1, 0) == 2.0)
  }

  test("labelMatrix one-hot encodes classification labels") {
    val y = DenseVector(0.0, 2.0, 1.0)
    val m = SparseRegression.labelMatrix(y, TaskKind.Classification)
    assert(m.rows == 3 && m.cols == 3)
    assert(m(0, 0) == 1.0 && m(1, 2) == 1.0 && m(2, 1) == 1.0)
    assert(m(0, 1) == 0.0)
  }

  test("l21 norm sums row norms") {
    val m = DenseMatrix((3.0, 4.0), (0.0, 0.0), (5.0, 12.0))
    assert(math.abs(SparseRegression.l21(m) - (5.0 + 0.0 + 13.0)) < 1e-12)
  }

  test("solver recovers a planted sparse support") {
    val support = Seq(2, 7, 11)
    val (x, y) = planted(120, 20, support, seed = 1)
    val res = SparseRegression.solve(x, SparseRegression.labelMatrix(y, TaskKind.Regression), gamma = 0.05)
    val top = res.rowNorms.toArray.zipWithIndex.sortBy(-_._1).take(3).map(_._2).toSet
    assert(top == support.toSet, s"top features $top vs planted $support")
  }

  test("solver row norms separate signal from noise by a margin") {
    val support = Seq(0, 1)
    val (x, y) = planted(150, 15, support, seed = 2)
    val res = SparseRegression.solve(x, SparseRegression.labelMatrix(y, TaskKind.Regression), gamma = 0.05)
    val norms = res.rowNorms.toArray
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
    assert(hi.rowNorms.toArray.sum < lo.rowNorms.toArray.sum)
  }

  test("classification: ranks a discriminative feature above noise") {
    val rnd = new Random(5)
    val n = 120
    val x = DenseMatrix.fill(n, 8)(rnd.nextGaussian())
    val y = DenseVector.tabulate(n)(i => if (x(i, 4) > 0) 1.0 else 0.0)
    val res = SparseRegression.solve(x, SparseRegression.labelMatrix(y, TaskKind.Classification), 0.05)
    assert(res.rowNorms.toArray.zipWithIndex.maxBy(_._1)._2 == 4)
  }

  test("solver is deterministic") {
    val (x, y) = planted(60, 8, Seq(1), seed = 7)
    val yM = SparseRegression.labelMatrix(y, TaskKind.Regression)
    val a = SparseRegression.solve(x, yM).rowNorms
    val b = SparseRegression.solve(x, yM).rowNorms
    assert(a == b)
  }
}
