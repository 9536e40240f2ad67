package repro.fs

import org.apache.spark.ml.classification.LogisticRegression
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.regression.LinearRegression
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.TaskKind

class RankersSpec extends SparkSpec {

  // Binary classification frame: sig separates, noise doesn't.
  private lazy val cls = spark.range(500).select(
    (col("id") % 2).cast("double").as("y"),
    ((col("id") % 2).cast("double") * 2 + randn(1) * 0.4).as("sig"),
    randn(2).as("n1"), randn(3).as("n2")).cache()

  // Regression frame.
  private lazy val reg = spark.range(500).select(randn(4).as("sig"), randn(5).as("n1"), randn(6).as("n2"))
    .withColumn("y", col("sig") * 3 + randn(7) * 0.2).cache()

  // 3-class frame (for OneVsRest SVC and multinomial logistic paths).
  private lazy val multi = spark.range(450).select(
    (col("id") % 3).cast("double").as("y"),
    ((col("id") % 3).cast("double") * 2 + randn(8) * 0.3).as("sig"),
    randn(9).as("n1")).cache()

  private val feats = Seq("sig", "n1", "n2")

  private def topIs(sig: String, features: Seq[String], scores: Array[Double]): Boolean =
    features(scores.zipWithIndex.maxBy(_._1)._2) == sig

  test("random forest ranker finds the classification signal") {
    val s = Rankers.RandomForestRanker.rank(cls, feats, "y", TaskKind.Classification, 1L)
    assert(topIs("sig", feats, s))
  }

  test("random forest ranker finds the regression signal") {
    val s = Rankers.RandomForestRanker.rank(reg, feats, "y", TaskKind.Regression, 1L)
    assert(topIs("sig", feats, s))
  }

  test("sparse regression ranker finds the signal (both tasks)") {
    val r = new Rankers.SparseRegressionRanker()
    assert(topIs("sig", feats, r.rank(reg, feats, "y", TaskKind.Regression, 1L)))
    assert(topIs("sig", feats, r.rank(cls, feats, "y", TaskKind.Classification, 1L)))
  }

  test("lasso ranker is regression-only and finds the signal") {
    assert(Rankers.LassoRanker.supports(TaskKind.Regression))
    assert(!Rankers.LassoRanker.supports(TaskKind.Classification))
    val s = Rankers.LassoRanker.rank(reg, feats, "y", TaskKind.Regression, 1L)
    assert(topIs("sig", feats, s))
  }

  test("logistic ranker is classification-only and finds the signal") {
    assert(!Rankers.LogisticRanker.supports(TaskKind.Regression))
    val s = Rankers.LogisticRanker.rank(cls, feats, "y", TaskKind.Classification, 1L)
    assert(topIs("sig", feats, s))
  }

  test("logistic ranker handles multiclass") {
    val s = Rankers.LogisticRanker.rank(multi, Seq("sig", "n1"), "y", TaskKind.Classification, 1L)
    assert(topIs("sig", Seq("sig", "n1"), s))
  }

  test("linear SVC ranker binary") {
    val s = Rankers.LinearSVCRanker.rank(cls, feats, "y", TaskKind.Classification, 1L)
    assert(topIs("sig", feats, s))
  }

  test("linear SVC ranker multiclass via one-vs-rest") {
    val s = Rankers.LinearSVCRanker.rank(multi, Seq("sig", "n1"), "y", TaskKind.Classification, 1L)
    assert(topIs("sig", Seq("sig", "n1"), s))
  }

  test("mutual info ranker finds the signal") {
    val s = Rankers.MutualInfoRanker.rank(cls, feats, "y", TaskKind.Classification, 1L)
    assert(topIs("sig", feats, s))
  }

  test("f-test ranker finds the signal (both tasks)") {
    assert(topIs("sig", feats, Rankers.FTestRanker.rank(cls, feats, "y", TaskKind.Classification, 1L)))
    assert(topIs("sig", feats, Rankers.FTestRanker.rank(reg, feats, "y", TaskKind.Regression, 1L)))
  }

  test("relief ranker finds the signal (both tasks)") {
    assert(topIs("sig", feats, Rankers.ReliefRanker.rank(cls, feats, "y", TaskKind.Classification, 1L)))
    assert(topIs("sig", feats, Rankers.ReliefRanker.rank(reg, feats, "y", TaskKind.Regression, 1L)))
  }

  test("rankers return one score per feature") {
    for (r <- Seq[Ranker](Rankers.RandomForestRanker, Rankers.MutualInfoRanker, Rankers.FTestRanker))
      assert(r.rank(cls, feats, "y", TaskKind.Classification, 1L).length == feats.length)
  }

  /** Spark ML's |coefficient_j|·sd_j: its coefficients on the scale of
    * standardized columns, where it minimizes the same objective.
    */
  private def sparkStandardized(df: DataFrame, fit: DataFrame => Array[Double]): Array[Double] = {
    val coefficients = fit(new VectorAssembler().setInputCols(feats.toArray).setOutputCol("fv").transform(df))
    val sds = df.select(feats.map(f => stddev_samp(f)): _*).head().toSeq.map(_.asInstanceOf[Double])
    coefficients.zip(sds).map { case (c, sd) => math.abs(c) * sd }
  }

  private def assertParity(ours: Array[Double], reference: Array[Double]): Unit = {
    val tolerance = 0.05 * ours.max
    assert(ours.zip(reference).forall { case (a, b) => math.abs(a - b) <= tolerance },
           s"ours ${ours.toSeq} vs Spark ML ${reference.toSeq}")
  }

  test("lasso weights match Spark ML's on the standardized scale") {
    val reference = sparkStandardized(reg, a =>
      new LinearRegression().setFeaturesCol("fv").setLabelCol("y")
        .setElasticNetParam(1.0).setRegParam(0.02).setMaxIter(50).fit(a).coefficients.toArray)
    assertParity(Rankers.LassoRanker.rank(reg, feats, "y", TaskKind.Regression, 1L), reference)
  }

  test("binary logistic weights match Spark ML's on the standardized scale") {
    val reference = sparkStandardized(cls, a =>
      new LogisticRegression().setFeaturesCol("fv").setLabelCol("y")
        .setElasticNetParam(1.0).setRegParam(0.01).setMaxIter(50).fit(a).coefficients.toArray)
    assertParity(Rankers.LogisticRanker.rank(cls, feats, "y", TaskKind.Classification, 1L), reference)
  }
}
