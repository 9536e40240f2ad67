package repro.fs

import org.apache.spark.sql.DataFrame
import scala.util.Random

import repro.core.TaskKind
import repro.ml.{Estimator, MatrixOps}
import repro.ml.MatrixOps.LocalData

/** Random Injection Feature Selection (§6, Algorithms 1–3).
  *
  * Noise features are injected next to the real ones; features that do not
  * consistently outrank *all* injected noise under an ensemble ranking
  * (Random Forest + ℓ2,1 sparse regression) are pruned. The injected noise
  * is a moment-matched N(µ,Σ) over the empirical column distribution
  * (Algorithm 2), which keeps the test hard when signal is a small
  * fraction of the input.
  *
  * `select` collects its input once into a coreset matrix; injection, both
  * rankings of every repeat and the threshold sweep's holdout fits all run
  * on that matrix on the driver. With µ the per-row mean over feature
  * columns and C_i = A_i − µ, a moment-matched sample is
  * µ + Σ_{i∈S} (g_i/√s)·C_i (S a random size-s subset, g ~ N(0,1)): it has
  * mean µ and covariance (1/d)·ΣC_iC_iᵀ in expectation — the empirical
  * moments.
  */
object Rifs {

  private val Eta = 0.2      // fraction of injected features
  private val Nu = 0.5       // RF weight in the aggregate ranking
  private val Sparsity = 32  // s — nonzeros per moment-matched sample

  final case class RifsConfig(
      repeats: Int = 10,                  // k in Algorithm 1
      thresholds: Seq[Double] = Seq(0.5, 0.7, 0.9, 1.0), // T in Algorithm 3
  )

  /** Algorithm 2: append `t` moment-matched noise columns named
    * `__noise_<i>` to `data` and return (data, noiseCols).
    */
  def injectColumns(data: LocalData, t: Int, seed: Long): (LocalData, Seq[String]) = {
    val rnd = new Random(seed)
    val n = data.y.length; val d = data.cols.length
    val s = math.min(Sparsity, d)
    val scale = 1.0 / math.sqrt(s.toDouble)
    // Each row's sum adds its columns left to right.
    val rowMean = new Array[Double](n)
    for (c <- data.cols) { var i = 0; while (i < n) { rowMean(i) += c(i); i += 1 } }
    for (i <- 0 until n) rowMean(i) /= d.toDouble
    // µ + Σ gᵢ(Aᵢ − µ) = µ·(1 − Σgᵢ) + Σ gᵢ·Aᵢ.
    val noise = Array.fill(t) {
      val subset = rnd.shuffle((0 until d).toList).take(s)
      val gs = subset.map(f => f -> rnd.nextGaussian() * scale)
      val meanWeight = 1.0 - gs.map(_._2).sum
      val sample = rowMean.map(_ * meanWeight)
      gs.foreach { case (f, g) =>
        val a = data.cols(f)
        var i = 0
        while (i < n) { sample(i) += g * a(i); i += 1 }
      }
      sample
    }
    val names = (0 until t).map(i => s"__noise_$i")
    (data.withColumns(names, noise), names)
  }

  /** Rank-normalize scores to [0,1]: worst → 0, best → 1. */
  private def rankNormalize(scores: Array[Double]): Array[Double] = {
    val n = scores.length
    val order = scores.zipWithIndex.sortBy(_._1).map(_._2)
    val out = Array.fill(n)(0.0)
    order.zipWithIndex.foreach { case (idx, pos) => out(idx) = if (n == 1) 1.0 else pos.toDouble / (n - 1) }
    out
  }

  /** Algorithm 1: the fraction of repeats in which each feature outranks
    * *all* injected noise features under the aggregate (ν·RF + (1−ν)·SR)
    * ranking.
    */
  def noiseOutrankFractions(data: LocalData, task: TaskKind, cfg: RifsConfig,
                            seed: Long): Array[Double] = {
    val d = data.features.length
    // At least 3 injected features: a single noise column is too weak a
    // baseline for the "ahead of ALL noise" test on small batches.
    val t = math.max(3, math.ceil(Eta * d).toInt)
    val counts = Array.fill(d)(0.0)
    val sr = new Rankers.SparseRegressionRanker()
    for (rep <- 0 until cfg.repeats) {
      val (aug, _) = injectColumns(data, t, seed + 1000L * rep)
      val allFeats = aug.features
      val rf  = rankNormalize(Rankers.RandomForestRanker.rank(aug, allFeats, task, seed + rep))
      val srS = rankNormalize(sr.rank(aug, allFeats, task, seed + rep))
      val agg = Array.tabulate(allFeats.length)(i => Nu * rf(i) + (1 - Nu) * srS(i))
      val maxNoise = (d until allFeats.length).map(agg).max
      var i = 0
      while (i < d) { if (agg(i) > maxNoise) counts(i) += 1.0; i += 1 }
    }
    counts.map(_ / cfg.repeats)
  }

  /** Algorithm 3: sweep thresholds in increasing order while the holdout
    * score stays monotone; on the first decrease output the previous
    * subset. `df` is collected once; everything after runs on the driver.
    */
  def select(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, cfg: RifsConfig = RifsConfig(), seed: Long = 31L): Seq[String] = {
    if (features.isEmpty) return Nil
    val data = MatrixOps.collect(df, features, target)
    val rStar = noiseOutrankFractions(data, task, cfg, seed)
    // Before any threshold is accepted, an empty first subset means no
    // feature ever outranked the noise — prune everything.
    var prevSubset: Seq[String] = Nil
    var prevScore = Double.MinValue
    for (tau <- cfg.thresholds.sorted) {
      val s = features.zip(rStar).collect { case (f, r) if r >= tau => f }
      if (s.isEmpty) return prevSubset
      val score = Estimator.holdoutScore(data, s, task, seed)
      if (score < prevScore) return prevSubset
      prevSubset = s; prevScore = score
    }
    prevSubset
  }
}
