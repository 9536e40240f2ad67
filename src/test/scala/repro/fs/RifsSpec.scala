package repro.fs

import breeze.linalg.{*, axpy, sum, DenseMatrix}
import org.apache.spark.sql.functions._
import scala.util.Random

import repro.SparkSpec
import repro.core.TaskKind
import repro.ml.MatrixOps

class RifsSpec extends SparkSpec {

  // An explicit partition count, so the per-partition `randn` draws (and
  // the pinned values below) do not depend on the core count.
  private lazy val cls = spark.range(0, 400, 1, 4).select(
    (col("id") % 2).cast("double").as("y"),
    ((col("id") % 2).cast("double") * 2 + randn(1) * 0.3).as("s1"),
    ((col("id") % 2).cast("double") * 1.5 + randn(2) * 0.4).as("s2"),
    randn(3).as("n1"), randn(4).as("n2"), randn(5).as("n3"),
    randn(6).as("n4"), randn(7).as("n5")).cache()

  private val feats = Seq("s1", "s2", "n1", "n2", "n3", "n4", "n5")
  private val fastCfg = Rifs.RifsConfig(repeats = 3, thresholds = Seq(0.5, 1.0))

  private lazy val clsData = MatrixOps.collect(cls, feats, "y")

  /** Column `c` of a collected matrix. */
  private def column(data: MatrixOps.LocalData, c: String): Array[Double] =
    data.columns(Seq(c)).head

  /** Algorithm 2 in Breeze, as `injectColumns` computed it on a Breeze
    * matrix: the `t` noise columns it appends to `data`, by the same
    * draws (at most 32 columns per sample).
    */
  private def breezeNoise(data: MatrixOps.LocalData, t: Int, seed: Long): DenseMatrix[Double] = {
    val rnd = new Random(seed)
    val x = new DenseMatrix(data.y.length, data.cols.length, data.cols.flatten)
    val (n, d) = (x.rows, x.cols)
    val noise = DenseMatrix.zeros[Double](n, t)
    val s = math.min(32, d)
    val scale = 1.0 / math.sqrt(s.toDouble)
    val rowMean = sum(x(*, ::)) / d.toDouble
    (0 until t).foreach { j =>
      val subset = rnd.shuffle((0 until d).toList).take(s)
      val gs = subset.map(f => f -> rnd.nextGaussian() * scale)
      val sample = rowMean * (1.0 - gs.map(_._2).sum)
      gs.foreach { case (f, g) => axpy(g, x(::, f), sample) }
      noise(::, j) := sample
    }
    noise
  }

  test("injectColumns equals the Breeze formula exactly") {
    val rnd = new Random(3)
    // Beside the collected matrix, 45 columns: more than the 32 per sample.
    val wide = MatrixOps.LocalData(Array.fill(45)(Array.fill(300)(rnd.nextGaussian() * 3 + 1)),
                                   Array.fill(300)(rnd.nextDouble()), (0 until 45).map(j => s"c$j"))
    for ((data, t) <- Seq(clsData -> 5, wide -> 9)) {
      val (out, noise) = Rifs.injectColumns(data, t, 4L)
      val want = breezeNoise(data, t, 4L)
      noise.zipWithIndex.foreach { case (c, j) =>
        assert(column(out, c).sameElements(want(::, j).toArray), s"$c of ${data.features.length} columns")
      }
    }
  }

  test("injectColumns appends the requested number of noise columns") {
    val (out, noise) = Rifs.injectColumns(clsData, 3, 1L)
    assert(noise == Seq("__noise_0", "__noise_1", "__noise_2"))
    assert(out.y.length == cls.count())
    noise.foreach(c => assert(out.features.contains(c)))
  }

  test("moment-matched injection approximately matches the empirical row mean") {
    // E[sample] = per-row mean of the feature columns.
    val (out, noise) = Rifs.injectColumns(clsData, 30, 4L)
    def avgOfRowMeans(cols: Seq[String]): Double =
      cols.map(column(out, _).sum).sum / cols.length / out.y.length
    val rowMeanAvg = avgOfRowMeans(feats)
    val injAvg = avgOfRowMeans(noise)
    assert(math.abs(injAvg - rowMeanAvg) < 0.4, s"$injAvg vs $rowMeanAvg")
  }

  test("noiseOutrankFractions scores signal near 1 and noise lower") {
    val r = Rifs.noiseOutrankFractions(clsData, TaskKind.Classification, fastCfg, seed = 5L)
    val byName = feats.zip(r).toMap
    assert(byName("s1") >= 0.66, s"s1 fraction ${byName("s1")}")
    val noiseAvg = Seq("n1", "n2", "n3", "n4", "n5").map(byName).sum / 5
    assert(byName("s1") > noiseAvg)
  }

  test("RIFS outputs are pinned") {
    val c = TaskKind.Classification
    val (inj, noise) = Rifs.injectColumns(clsData, 3, 4L)
    val got = Seq(
      "inject sums" -> noise.map(column(inj, _).sum),
      "sr rank"     -> new Rankers.SparseRegressionRanker().rank(clsData, feats, c, 5L).toSeq,
      "fractions"   -> Rifs.noiseOutrankFractions(clsData, c, fastCfg, 5L).toSeq,
      "select"      -> Rifs.select(cls, feats, "y", c, fastCfg, 6L))
    val pinned = Seq(
      "inject sums" -> Seq(230.21723805602738, 169.30115146102742, 34.414104899408535),
      "sr rank"     -> Seq(0.5367064740195028, 0.16711867095295843, 0.001780336641763004,
                           0.00712155501080423, 0.001451528754418811, 0.0032091876583374397,
                           0.007463664194355509),
      "fractions"   -> Seq(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
      "select"      -> Seq("s1", "s2"))
    assert(got == pinned)
  }

  test("select keeps planted signal and prunes most noise") {
    val sel = Rifs.select(cls, feats, "y", TaskKind.Classification, fastCfg, seed = 6L)
    assert(sel.contains("s1"))
    val keptNoise = sel.count(_.startsWith("n"))
    assert(keptNoise <= 2, s"kept noise: $sel")
  }

  test("select on pure noise prunes everything or nearly so") {
    val noiseDf = spark.range(300).select(
      (col("id") % 2).cast("double").as("y"),
      randn(11).as("a"), randn(12).as("b"), randn(13).as("c"), randn(14).as("d"))
    val sel = Rifs.select(noiseDf, Seq("a", "b", "c", "d"), "y", TaskKind.Classification,
                          fastCfg, seed = 7L)
    assert(sel.length <= 2, s"selected from pure noise: $sel")
  }

  test("select works for regression") {
    val reg = spark.range(400).select(randn(1).as("s"), randn(2).as("n1"), randn(3).as("n2"))
      .withColumn("y", col("s") * 3 + randn(4) * 0.2)
    val sel = Rifs.select(reg, Seq("s", "n1", "n2"), "y", TaskKind.Regression, fastCfg, 8L)
    assert(sel.contains("s"))
  }

  test("select on empty feature list returns empty") {
    assert(Rifs.select(cls, Nil, "y", TaskKind.Classification, fastCfg, 9L).isEmpty)
  }

  test("RIFS is deterministic in the seed") {
    val a = Rifs.select(cls, feats, "y", TaskKind.Classification, fastCfg, 10L)
    val b = Rifs.select(cls, feats, "y", TaskKind.Classification, fastCfg, 10L)
    assert(a == b)
  }
}
