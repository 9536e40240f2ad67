package repro.ml

import repro.core.TaskKind

/** Filter-model feature statistics (§5 baselines), in closed form over the
  * columns of a collected coreset matrix:
  *
  *  - regression F-test: the correlation moments (n, Σv, Σv², Σy, Σy², Σvy)
  *    of each column with the label, finished as F = r²·(n−2)/(1−r²);
  *  - classification F-test (one-way ANOVA): per-class moments of each
  *    column, finished as F = (SSB/(k−1))/(SSW/(n−k));
  *  - mutual information: joint counts over equal-width bins of each
  *    column (and of the label, for regression).
  *
  * Scores are aligned with the columns `x` (one array per column).
  */
object FilterStats {

  /** Equal-width bins per column (and per regression label) for MI. */
  private val MiBins = 8

  /** F statistic per column of `x` against the label `y`. */
  def fScores(x: Array[Array[Double]], y: Array[Double], task: TaskKind): Array[Double] =
    x.map { v =>
      task match {
        case TaskKind.Regression     => regressionF(v, y)
        case TaskKind.Classification => anovaF(v, y)
      }
    }

  /** r²·(n−2)/(1−r²); 0 below 3 rows or for a (near-)constant side. */
  private def regressionF(v: Array[Double], y: Array[Double]): Double = {
    val n = v.length.toDouble
    if (n < 3) return 0.0
    var sv, svv, sy, syy, svy = 0.0
    var i = 0
    while (i < v.length) {
      val (a, b) = (v(i), y(i))
      sv += a; svv += a * a; sy += b; syy += b * b; svy += a * b
      i += 1
    }
    val covVY = svy / n - (sv / n) * (sy / n)
    val varV  = svv / n - math.pow(sv / n, 2)
    val varY  = syy / n - math.pow(sy / n, 2)
    if (varV < 1e-12 || varY < 1e-12) return 0.0
    val r2 = math.min(1.0 - 1e-12, covVY * covVY / (varV * varY))
    r2 * (n - 2) / (1.0 - r2)
  }

  /** (SSB/(k−1))/(SSW/(n−k)) over the k classes present; 0 for fewer than
    * 2 classes, fewer than k + 1 rows or no within-class spread.
    */
  private def anovaF(v: Array[Double], y: Array[Double]): Double = {
    // Per class: (count, Σv, Σv²).
    val moments = scala.collection.mutable.Map.empty[Double, Array[Double]]
    var i = 0
    while (i < v.length) {
      val m = moments.getOrElseUpdate(y(i), new Array[Double](3))
      m(0) += 1; m(1) += v(i); m(2) += v(i) * v(i)
      i += 1
    }
    val groups = moments.values.toSeq
    val n = groups.map(_(0)).sum
    val k = groups.length
    val mean = groups.map(_(1)).sum / n
    val ssb = groups.map { g => val mg = g(1) / g(0); g(0) * (mg - mean) * (mg - mean) }.sum
    val ssw = groups.map(g => g(2) - g(1) * g(1) / g(0)).sum
    if (k < 2 || n - k < 1 || ssw < 1e-12) 0.0
    else (ssb / (k - 1)) / (ssw / (n - k))
  }

  /** Mutual information (nats) per column of `x` with the label `y`, over
    * `MiBins` equal-width value bins; a regression label is binned too.
    */
  def miScores(x: Array[Array[Double]], y: Array[Double], task: TaskKind): Array[Double] = {
    val labels: Array[Int] = task match {
      case TaskKind.Classification =>
        val index = y.distinct.zipWithIndex.toMap
        y.map(index)
      case TaskKind.Regression => bins(y)
    }
    x.map(v => mutualInfo(bins(v), labels))
  }

  /** The equal-width bin of every value, between the column's extremes. */
  private def bins(a: Array[Double]): Array[Int] = {
    if (a.isEmpty) return Array.empty
    val lo = a.min
    val w = math.max(1e-12, a.max - lo)
    a.map(u => math.min(MiBins - 1, math.floor((u - lo) / w * MiBins).toInt))
  }

  /** Σ p(b,l)·ln(p(b,l)/(p(b)·p(l))) over the observed (bin, label) pairs. */
  private def mutualInfo(b: Array[Int], l: Array[Int]): Double = {
    val n = b.length.toDouble
    val joint = b.indices.groupMapReduce(i => (b(i), l(i)))(_ => 1)(_ + _)
    val pB = joint.groupMapReduce(_._1._1)(_._2)(_ + _)
    val pL = joint.groupMapReduce(_._1._2)(_._2)(_ + _)
    joint.iterator.map { case ((bi, li), c) =>
      val pbl = c / n
      pbl * math.log(pbl / ((pB(bi) / n) * (pL(li) / n)))
    }.sum
  }
}
