package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.TaskKind

/** Matrices are column arrays, drawn column by column. */
class ReliefSpec extends AnyFunSuite {

  test("ReliefF ranks a class-separating feature above noise") {
    val rnd = new Random(1)
    val n = 200
    val x = Array.tabulate(6, n) { (j, i) =>
      if (j == 2) (if (i % 2 == 0) 2.0 else -2.0) + rnd.nextGaussian() * 0.3
      else rnd.nextGaussian()
    }
    val y = Array.tabulate(n)(i => (i % 2).toDouble)
    val w = Relief.reliefF(x, y, m = 100, k = 5, seed = 3)
    assert(w.zipWithIndex.maxBy(_._1)._2 == 2)
  }

  test("ReliefF weight of pure noise is near zero") {
    val rnd = new Random(2)
    val x = Array.fill(4, 150)(rnd.nextGaussian())
    val y = Array.tabulate(150)(i => (i % 2).toDouble)
    val w = Relief.reliefF(x, y, m = 80, k = 5, seed = 3)
    assert(w.forall(v => math.abs(v) < 0.25))
  }

  test("ReliefF handles more than two classes") {
    val rnd = new Random(3)
    val n = 180
    val x = Array.tabulate(5, n) { (j, i) =>
      if (j == 0) (i % 3).toDouble * 3 + rnd.nextGaussian() * 0.2 else rnd.nextGaussian()
    }
    val y = Array.tabulate(n)(i => (i % 3).toDouble)
    val w = Relief.reliefF(x, y, m = 90, k = 4, seed = 4)
    assert(w.zipWithIndex.maxBy(_._1)._2 == 0)
  }

  test("RReliefF ranks the predictive feature first for regression") {
    val rnd = new Random(4)
    val n = 200
    val x = Array.fill(6, n)(rnd.nextGaussian())
    val y = Array.tabulate(n)(i => 3.0 * x(1)(i) + rnd.nextGaussian() * 0.1)
    val w = Relief.rreliefF(x, y, m = 120, k = 6, seed = 5)
    assert(w.zipWithIndex.maxBy(_._1)._2 == 1)
  }

  test("RReliefF scores noise below signal") {
    val rnd = new Random(5)
    val n = 150
    val x = Array.fill(4, n)(rnd.nextGaussian())
    val y = Array.tabulate(n)(i => x(0)(i) + rnd.nextGaussian() * 0.1)
    val w = Relief.rreliefF(x, y, m = 100, k = 5, seed = 6)
    assert((1 until 4).forall(j => w(0) > w(j)))
  }

  test("weights dispatches by task kind") {
    val rnd = new Random(6)
    val x = Array.fill(3, 60)(rnd.nextGaussian())
    val yc = Array.tabulate(60)(i => (i % 2).toDouble)
    val yr = Array.tabulate(60)(i => x(0)(i))
    assert(Relief.weights(x, yc, TaskKind.Classification, m = 30).length == 3)
    assert(Relief.weights(x, yr, TaskKind.Regression, m = 30).length == 3)
  }

  test("relief is deterministic in the seed") {
    val rnd = new Random(7)
    val x = Array.fill(4, 80)(rnd.nextGaussian())
    val y = Array.tabulate(80)(i => (i % 2).toDouble)
    val a = Relief.reliefF(x, y, 40, 3, seed = 9).toSeq
    val b = Relief.reliefF(x, y, 40, 3, seed = 9).toSeq
    assert(a == b)
  }

  test("constant features get zero-ish relief weight") {
    val rnd = new Random(8)
    val x = Array.tabulate(3, 100)((j, _) => if (j == 2) 1.0 else rnd.nextGaussian())
    val y = Array.tabulate(100)(i => (i % 2).toDouble)
    val w = Relief.reliefF(x, y, 50, 4, seed = 10)
    assert(math.abs(w(2)) < 1e-9)
  }
}
