package repro.fs

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import repro.ml.SparseRegression

/** Property-based checks over the pure (driver-side) pieces, using raw
  * ScalaCheck (the scalatest bridge artifact is not available offline).
  */
class PropsSpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(50), p)
    assert(res.passed, res.status.toString)
  }

  private val vec6 = Gen.listOfN(6, Gen.choose(-5.0, 5.0))

  /** The 2 × 3 matrix of six values, by rows. */
  private def rows(vs: Seq[Double]): Array[Array[Double]] = vs.toArray.grouped(3).toArray

  test("orderByScore is a permutation sorted by descending score") {
    check(Prop.forAll(Gen.listOfN(8, Gen.choose(0.0, 1.0))) { scores =>
      val feats = scores.indices.map(i => s"f$i")
      val out = Selection.orderByScore(feats, scores.toArray)
      val s = out.map(f => scores(f.drop(1).toInt))
      out.sorted == feats.sorted && s.zip(s.tail).forall { case (a, b) => a >= b }
    })
  }

  test("l21 norm is nonnegative, zero only for the zero matrix") {
    check(Prop.forAll(vec6) { vs =>
      val n = SparseRegression.l21(rows(vs))
      n >= 0 && (if (vs.forall(_ == 0.0)) n == 0.0 else n > 0.0)
    })
  }

  test("l21 norm satisfies the triangle inequality") {
    check(Prop.forAll(vec6, vec6) { (a, b) =>
      val (ma, mb) = (rows(a), rows(b))
      SparseRegression.l21(rows(a.zip(b).map { case (u, v) => u + v })) <=
        SparseRegression.l21(ma) + SparseRegression.l21(mb) + 1e-9
    })
  }

  test("l21 norm is absolutely homogeneous") {
    check(Prop.forAll(vec6, Gen.choose(-4.0, 4.0)) { (a, c) =>
      val m = rows(a)
      math.abs(SparseRegression.l21(rows(a.map(_ * c))) - math.abs(c) * SparseRegression.l21(m)) < 1e-6
    })
  }

  test("labelMatrix rows sum to one for classification") {
    check(Prop.forAll(Gen.listOfN(10, Gen.choose(0, 3))) { labels =>
      val y = labels.map(_.toDouble).toArray
      val m = SparseRegression.labelMatrix(y, repro.core.TaskKind.Classification)
      y.indices.forall { i => m.indices.map(j => m(j)(i)).sum == 1.0 }
    })
  }
}
