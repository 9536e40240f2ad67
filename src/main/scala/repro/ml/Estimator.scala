package repro.ml

import org.apache.spark.ml.{Model, Estimator => Learner}
import org.apache.spark.ml.classification.RandomForestClassifier
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.regression.RandomForestRegressor
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.TaskKind

/** The paper's fixed estimator (§7), a Random Forest, and the one place
  * that builds a forest for a task and scores predictions. Scores follow a
  * higher-is-better convention: classification → holdout accuracy,
  * regression → negative holdout MAE.
  *
  * `holdoutScore` (the `FastTrees` × `FastDepth` forest) is the cheap
  * inner-loop evaluator used by wrapper selectors: it runs the driver-side
  * [[LocalForest]] on a collected coreset matrix. `autoScore` fits the
  * fixed, larger `FinalTrees` × `FinalDepth` Spark ML forest on the full
  * base table for final estimates.
  */
object Estimator {

  /** Fast inner-loop config. */
  val FastTrees = 25
  val FastDepth = 6

  /** Final-estimate config. Depth capped at 8: deeper forests on wide
    * (500+-feature) frames blow up the per-level split-stats tasks to
    * tens of MB for no accuracy gain at this data scale.
    */
  val FinalTrees = 60
  val FinalDepth = 8

  /** Split bins per column, for both forests: the Spark ML one (whose
    * split stats scale as nodes × features × bins, so 8 bins keeps
    * wide-frame fits from shipping tens-of-MB task binaries) and the
    * [[LocalForest]], which cuts each column of a coreset matrix at the
    * same quantile thresholds once per matrix.
    */
  val Bins = 8

  /** Column holding the assembled feature vector. */
  val FeaturesCol = "__fv"

  /** Column every model fitted through here predicts into. */
  val PredictionCol = "__p"

  /** Deterministic 70/30 split on a seeded rand column. */
  def split(df: DataFrame, seed: Long): (DataFrame, DataFrame) = {
    val tagged = df.withColumn("__u", rand(seed))
    (tagged.filter(col("__u") < 0.7).drop("__u"),
     tagged.filter(col("__u") >= 0.7).drop("__u"))
  }

  /** Nulls filled with 0 and `features` assembled into [[FeaturesCol]],
    * for the Spark ML models: the final estimate, AutoML-lite and the
    * linear rankers. coalesce(4): frames spread over many partitions spend
    * more time scheduling tiny tasks per tree level than computing. It
    * groups cached partitions by block location, so a first fit over an
    * unfilled cache can see another row order than later fits.
    */
  def assemble(df: DataFrame, features: Seq[String]): DataFrame =
    new VectorAssembler().setInputCols(features.toArray).setOutputCol(FeaturesCol)
      .transform(df.na.fill(0.0, features)).coalesce(4)

  /** The task's Random Forest over [[FeaturesCol]], predicting `target`
    * into [[PredictionCol]].
    */
  def forest(task: TaskKind, target: String, trees: Int, depth: Int,
             seed: Long): Learner[_ <: Model[_]] = task match {
    case TaskKind.Classification =>
      new RandomForestClassifier()
        .setFeaturesCol(FeaturesCol).setLabelCol(target).setPredictionCol(PredictionCol)
        .setNumTrees(trees).setMaxDepth(depth).setMaxBins(Bins).setSeed(seed)
    case TaskKind.Regression =>
      new RandomForestRegressor()
        .setFeaturesCol(FeaturesCol).setLabelCol(target).setPredictionCol(PredictionCol)
        .setNumTrees(trees).setMaxDepth(depth).setMaxBins(Bins).setSeed(seed)
  }

  /** Higher-is-better score of [[PredictionCol]] against `target`. */
  def score(task: TaskKind, pred: DataFrame, target: String): Double = task match {
    case TaskKind.Classification => accuracy(pred, target, PredictionCol)
    case TaskKind.Regression     => -mae(pred, target, PredictionCol)
  }

  /** Higher-is-better score of `predicted` against `actual`, on the
    * driver: accuracy, or −MAE (the DataFrame metrics' empty-input values
    * on no rows).
    */
  def score(task: TaskKind, predicted: Array[Double], actual: Array[Double]): Double = {
    val n = actual.length
    task match {
      case TaskKind.Classification =>
        if (n == 0) 0.0 else predicted.indices.count(i => predicted(i) == actual(i)).toDouble / n
      case TaskKind.Regression =>
        if (n == 0) -Double.MaxValue
        else -predicted.indices.map(i => math.abs(actual(i) - predicted(i))).sum / n
    }
  }

  /** Accuracy of a prediction column against the label. */
  def accuracy(pred: DataFrame, target: String, predCol: String): Double = {
    val r = pred.agg(avg(when(col(target) === col(predCol), 1.0).otherwise(0.0))).head
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }

  /** Mean absolute error of a prediction column. */
  def mae(pred: DataFrame, target: String, predCol: String): Double = {
    val r = pred.agg(avg(abs(col(target) - col(predCol)))).head
    if (r.isNullAt(0)) Double.MaxValue else r.getDouble(0)
  }

  /** One fixed-config RF holdout score — the wrapper-loop workhorse.
    * Collects `features` and `target` and fits on the driver.
    */
  def holdoutScore(df: DataFrame, features: Seq[String], target: String,
                   task: TaskKind, seed: Long = 17L): Double =
    if (features.isEmpty) Double.MinValue
    else holdoutScore(MatrixOps.collect(df, features, target), features, task, seed)

  /** The holdout score of the `FastTrees` × `FastDepth` [[LocalForest]]
    * over the columns `features` of a collected matrix, on its seeded
    * 70/30 row split.
    */
  def holdoutScore(data: MatrixOps.LocalData, features: Seq[String],
                   task: TaskKind, seed: Long): Double = {
    if (features.isEmpty) return Double.MinValue
    val (train, test) = LocalForest.split(data.y.length, seed)
    val model = LocalForest.fit(data, features, train, task, FastTrees, FastDepth, seed)
    score(task, test.map(model.predict(data.x, _)), test.map(data.y(_)))
  }

  /** The final estimate: holdout score of the `FinalTrees` × `FinalDepth`
    * forest.
    */
  def autoScore(df: DataFrame, features: Seq[String], target: String,
                task: TaskKind, seed: Long = 17L): Double = {
    if (features.isEmpty) return Double.MinValue
    val (tr, te) = split(df, seed)
    val model = forest(task, target, FinalTrees, FinalDepth, seed).fit(assemble(tr, features))
    score(task, model.transform(assemble(te, features)), target)
  }
}
