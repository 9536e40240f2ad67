package repro.ml

import org.apache.spark.ml.{Model, Estimator => Learner}
import org.apache.spark.ml.classification.{RandomForestClassificationModel, RandomForestClassifier}
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.regression.{RandomForestRegressionModel, RandomForestRegressor}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.TaskKind

/** Spark ML's Random Forest, the reference [[LocalForest]] is compared
  * against, fitted on Spark's own seeded 70/30 split of a frame.
  */
private object SparkForest {
  private val FeaturesCol = "__fv"
  private val PredictionCol = "__p"

  /** Nulls filled with 0 and `features` assembled into [[FeaturesCol]],
    * in at most 4 partitions.
    */
  def assemble(df: DataFrame, features: Seq[String]): DataFrame =
    new VectorAssembler().setInputCols(features.toArray).setOutputCol(FeaturesCol)
      .transform(df.na.fill(0.0, features)).coalesce(4)

  /** A 70/30 split on a seeded rand column, which Spark seeds per partition. */
  def split(df: DataFrame, seed: Long): (DataFrame, DataFrame) = {
    val tagged = df.withColumn("__u", rand(seed))
    (tagged.filter(col("__u") < 0.7).drop("__u"), tagged.filter(col("__u") >= 0.7).drop("__u"))
  }

  /** The task's forest over [[FeaturesCol]], predicting `target` into [[PredictionCol]]. */
  def forest(task: TaskKind, target: String, trees: Int, depth: Int,
             seed: Long): Learner[_ <: Model[_]] = task match {
    case TaskKind.Classification =>
      new RandomForestClassifier()
        .setFeaturesCol(FeaturesCol).setLabelCol(target).setPredictionCol(PredictionCol)
        .setNumTrees(trees).setMaxDepth(depth).setMaxBins(Estimator.Bins).setSeed(seed)
    case TaskKind.Regression =>
      new RandomForestRegressor()
        .setFeaturesCol(FeaturesCol).setLabelCol(target).setPredictionCol(PredictionCol)
        .setNumTrees(trees).setMaxDepth(depth).setMaxBins(Estimator.Bins).setSeed(seed)
  }

  /** [[Estimator.score]] of `model` on the assembled frame `test`. */
  def score(task: TaskKind, model: Model[_], test: DataFrame, target: String): Double = {
    val rows = model.transform(test).select(col(PredictionCol), col(target).cast("double")).collect()
    Estimator.score(task, rows.map(_.getDouble(0)), rows.map(_.getDouble(1)))
  }
}

class LocalForestSpec extends SparkSpec {
  import Estimator.{FastDepth, FastTrees, FinalDepth, FinalTrees}

  private val feats = Seq("s1", "s2", "n1", "n2", "n3", "n4")
  private val planted = Set("s1", "s2")

  private def fixture(label: DataFrame => DataFrame): DataFrame = {
    val d = label(spark.range(0, 900, 1, 4).toDF()).select(
      col("y"), col("s1"), col("s2"),
      randn(21).as("n1"), randn(22).as("n2"), randn(23).as("n3"), randn(24).as("n4")).cache()
    d.count(); d
  }

  private lazy val binary = fixture(_.withColumn("y", (col("id") % 2).cast("double"))
    .withColumn("s1", col("y") * 1.2 + randn(1) * 0.8)
    .withColumn("s2", col("y") * 0.8 + randn(2) * 0.8))

  private lazy val threeClass = fixture(_.withColumn("y", (col("id") % 3).cast("double"))
    .withColumn("s1", col("y") + randn(3) * 0.6)
    .withColumn("s2", when(col("y") === 1.0, 1.5).otherwise(0.0) + randn(4) * 0.6))

  private lazy val regression = fixture(_.withColumn("s1", randn(5)).withColumn("s2", randn(6))
    .withColumn("y", col("s1") * 2 + col("s2") + randn(7) * 0.5))

  /** Both forests at `trees` × `depth` and the same seed on the same
    * 70/30 split: (Spark ML score, local score, Spark ML importances, local
    * importances).
    */
  private def bothForests(df: DataFrame, task: TaskKind, trees: Int, depth: Int,
                          seed: Long): (Double, Double, Array[Double], Array[Double]) = {
    val (tr, te) = SparkForest.split(df, seed)
    val sparkModel = SparkForest.forest(task, "y", trees, depth, seed)
      .fit(SparkForest.assemble(tr, feats))
    val sparkScore = SparkForest.score(task, sparkModel, SparkForest.assemble(te, feats), "y")
    val sparkImp = sparkModel match {
      case m: RandomForestClassificationModel => m.featureImportances.toArray
      case m: RandomForestRegressionModel     => m.featureImportances.toArray
    }
    val (train, test) = (MatrixOps.collect(tr, feats, "y"), MatrixOps.collect(te, feats, "y"))
    val local = LocalForest.fit(train, feats, Array.range(0, train.y.length), task,
                                trees, depth, seed)
    val localScore = Estimator.score(task, Array.tabulate(test.y.length)(local.predict(test.cols, _)),
                                     test.y)
    (sparkScore, localScore, sparkImp, local.importances)
  }

  private def topK(imp: Seq[Double], k: Int): Set[String] =
    feats.zip(imp).sortBy(-_._2).take(k).map(_._1).toSet

  /** Compares the two forests at `trees` × `depth` over five seeds: with
    * two of six features per node, one 25-tree fit's holdout MAE varies by
    * about ±10% with the seed for either forest, so single fits are too
    * noisy to compare.
    */
  private def checkParity(df: DataFrame, task: TaskKind, trees: Int, depth: Int): Unit = {
    val shape = s"$trees × $depth"
    val runs = (1L to 5L).map(bothForests(df, task, trees, depth, _))
    val sparkScore = runs.map(_._1).sum / runs.size
    val localScore = runs.map(_._2).sum / runs.size
    task match {
      case TaskKind.Classification =>
        assert(math.abs(localScore - sparkScore) <= 0.05, s"$shape: accuracy local $localScore vs Spark ML $sparkScore")
      case TaskKind.Regression =>
        val (localMae, sparkMae) = (-localScore, -sparkScore)
        assert(math.abs(localMae - sparkMae) <= 0.1 * sparkMae, s"$shape: MAE local $localMae vs Spark ML $sparkMae")
    }
    val sparkImp = feats.indices.map(j => runs.map(_._3(j)).sum)
    val localImp = feats.indices.map(j => runs.map(_._4(j)).sum)
    assert(topK(sparkImp, planted.size) == planted, s"$shape: Spark ML importances $sparkImp")
    assert(topK(localImp, planted.size) == planted, s"$shape: local importances $localImp")
    runs.foreach(r => assert(math.abs(r._4.sum - 1.0) < 1e-9))
  }

  /** The selection loop's forest and the final estimate's, as (trees, depth). */
  private val shapes = Seq((FastTrees, FastDepth), (FinalTrees, FinalDepth))

  test("binary classification matches Spark ML RF score and planted importances") {
    for ((trees, depth) <- shapes) checkParity(binary, TaskKind.Classification, trees, depth)
  }

  test("3-class classification matches Spark ML RF score and planted importances") {
    for ((trees, depth) <- shapes) checkParity(threeClass, TaskKind.Classification, trees, depth)
  }

  test("regression matches Spark ML RF MAE and planted importances") {
    for ((trees, depth) <- shapes) checkParity(regression, TaskKind.Regression, trees, depth)
  }

  test("the same seed gives bit-identical scores and importances") {
    for ((df, task) <- Seq(binary -> TaskKind.Classification, regression -> TaskKind.Regression)) {
      val data = MatrixOps.collect(df, feats, "y")
      val rows = Array.range(0, data.y.length)
      def imp(seed: Long) = LocalForest.fit(data, feats, rows, task, FastTrees, FastDepth, seed).importances.toSeq
      assert(imp(3L) == imp(3L))
      assert(imp(3L) != imp(4L))
      assert(Estimator.holdoutScore(data, feats, task, 3L) == Estimator.holdoutScore(data, feats, task, 3L))
      assert(Estimator.holdoutScore(df, feats, "y", task, 3L) == Estimator.holdoutScore(data, feats, task, 3L))
    }
  }

  test("bins follow Spark ML's quantile split search") {
    // At most Bins − 1 distinct gaps: every midpoint.
    assert(LocalForest.bin(Array(3.0, 1.0, 2.0, 1.0), Estimator.Bins).thresholds.toSeq == Seq(1.5, 2.5))
    // Many distinct values: Bins − 1 thresholds, codes agree with them.
    val values = Array.tabulate(800)(i => (i * 37 % 800).toDouble)
    val b = LocalForest.bin(values, Estimator.Bins)
    assert(b.thresholds.length == Estimator.Bins - 1)
    assert(b.thresholds.toSeq == b.thresholds.sorted.toSeq)
    values.indices.foreach(i => assert(b.codes(i) == b.thresholds.count(_ < values(i))))
    assert(LocalForest.bin(Array.fill(5)(2.0), Estimator.Bins).nBins == 1)
  }

  test("the driver split is seeded and roughly 70/30") {
    val (tr, te) = LocalForest.split(1000, 9L)
    assert(LocalForest.split(1000, 9L)._1.sameElements(tr))
    assert((tr ++ te).sorted.sameElements(0 until 1000))
    assert(tr.length > 650 && tr.length < 750)
  }
}
