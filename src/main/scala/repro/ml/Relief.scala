package repro.ml

import scala.util.Random

import repro.core.TaskKind

/** Relief-family feature weighting (§5 baseline): ReliefF for
  * classification and RReliefF for regression, run on the driver over the
  * coreset matrix. O(m·n·d) with m sampled anchor instances and k nearest
  * neighbours; distances use range-normalized Manhattan diff as in the
  * original algorithms. `x` is the matrix as column arrays: `x(j)(i)` is
  * feature j of row i.
  */
object Relief {

  /** Feature weights; higher = more relevant. */
  def weights(x: Array[Array[Double]], y: Array[Double], task: TaskKind,
              m: Int = 150, k: Int = 5, seed: Long = 23L): Array[Double] = task match {
    case TaskKind.Classification => reliefF(x, y, m, k, seed)
    case TaskKind.Regression     => rreliefF(x, y, m, k, seed)
  }

  private def ranges(x: Array[Array[Double]]): Array[Double] =
    x.map { c =>
      var lo = Double.MaxValue; var hi = Double.MinValue
      var i = 0
      while (i < c.length) { val v = c(i); if (v < lo) lo = v; if (v > hi) hi = v; i += 1 }
      math.max(1e-12, hi - lo)
    }

  private def dist(x: Array[Array[Double]], a: Int, b: Int, rng: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < x.length) { s += math.abs(x(j)(a) - x(j)(b)) / rng(j); j += 1 }
    s
  }

  /** k nearest indices to `a` among the `n` rows satisfying `pred`
    * (excluding a).
    */
  private def nearest(x: Array[Array[Double]], n: Int, a: Int, k: Int, rng: Array[Double],
                      pred: Int => Boolean): Array[Int] = {
    val cand = (0 until n).filter(i => i != a && pred(i))
    cand.sortBy(i => dist(x, a, i, rng)).take(k).toArray
  }

  /** ReliefF (Kononenko): hits pull weights down, misses (weighted by
    * class prior renormalized over the complement) push them up.
    */
  def reliefF(x: Array[Array[Double]], y: Array[Double],
              m: Int, k: Int, seed: Long): Array[Double] = {
    val n = y.length; val d = x.length
    val rng = ranges(x)
    val w = new Array[Double](d)
    val classes = y.distinct.sorted
    val prior = classes.map(c => c -> y.count(_ == c).toDouble / n).toMap
    val rand = new Random(seed)
    val anchors = Array.fill(math.min(m, n))(rand.nextInt(n))
    for (a <- anchors) {
      val ca = y(a)
      val hits = nearest(x, n, a, k, rng, i => y(i) == ca)
      for (h <- hits; j <- 0 until d)
        w(j) -= math.abs(x(j)(a) - x(j)(h)) / rng(j) / (anchors.length * math.max(1, hits.length))
      for (c <- classes if c != ca) {
        val misses = nearest(x, n, a, k, rng, i => y(i) == c)
        val pw = prior(c) / math.max(1e-12, 1.0 - prior(ca))
        for (ms <- misses; j <- 0 until d)
          w(j) += pw * math.abs(x(j)(a) - x(j)(ms)) / rng(j) / (anchors.length * math.max(1, misses.length))
      }
    }
    w
  }

  /** RReliefF (Robnik-Šikonja & Kononenko): probabilistic formulation for
    * a numeric target via accumulators N_dC, N_dA[j], N_dC∧dA[j].
    */
  def rreliefF(x: Array[Array[Double]], y: Array[Double],
               m: Int, k: Int, seed: Long): Array[Double] = {
    val n = y.length; val d = x.length
    val rng = ranges(x)
    val yLo = y.min; val yHi = y.max
    val yRange = math.max(1e-12, yHi - yLo)
    var nDC = 0.0
    val nDA = Array.fill(d)(0.0)
    val nDCDA = Array.fill(d)(0.0)
    val rand = new Random(seed)
    val anchors = Array.fill(math.min(m, n))(rand.nextInt(n))
    for (a <- anchors) {
      val nbrs = nearest(x, n, a, k, rng, _ => true)
      for (b <- nbrs) {
        val dY = math.abs(y(a) - y(b)) / yRange
        nDC += dY
        var j = 0
        while (j < d) {
          val dA = math.abs(x(j)(a) - x(j)(b)) / rng(j)
          nDA(j) += dA
          nDCDA(j) += dY * dA
          j += 1
        }
      }
    }
    val total = anchors.length.toDouble * k
    Array.tabulate(d) { j =>
      if (nDC < 1e-12 || total - nDC < 1e-12) 0.0
      else nDCDA(j) / nDC - (nDA(j) - nDCDA(j)) / (total - nDC)
    }
  }
}
