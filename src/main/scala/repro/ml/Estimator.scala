package repro.ml

import org.apache.spark.ml.{Model, Estimator => Learner}
import org.apache.spark.ml.classification.RandomForestClassifier
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.regression.RandomForestRegressor
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.TaskKind

/** The paper's fixed estimator (§7), a Random Forest, and the one place
  * that assembles a feature vector, builds a forest for a task and scores
  * predictions. Scores follow a higher-is-better convention:
  * classification → holdout accuracy, regression → negative holdout MAE.
  *
  * `holdoutScore` (the `FastTrees` × `FastDepth` forest) is the cheap
  * inner-loop evaluator used by wrapper selectors; `autoScore` fits the
  * fixed, larger `FinalTrees` × `FinalDepth` forest for final estimates.
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

  /** Few split bins: MLlib RF split-stats scale as nodes × features ×
    * bins; 8 bins keeps wide-frame (500+-feature) fits from shipping
    * tens-of-MB task binaries, with no accuracy gain at this data scale.
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

  /** Nulls filled with 0 and `features` assembled into [[FeaturesCol]].
    * coalesce(4): coreset-scale frames spread over many partitions spend
    * more time scheduling tiny tasks per tree level than computing.
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

  /** Train an RF with the given shape and return the holdout score. */
  private def fitScore(train: DataFrame, test: DataFrame, features: Seq[String],
                       target: String, task: TaskKind,
                       trees: Int, depth: Int, seed: Long): Double = {
    val trA = assemble(train, features)
    val teA = assemble(test, features)
    val model = forest(task, target, trees, depth, seed).fit(trA)
    score(task, model.transform(teA), target)
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

  /** One fixed-config RF holdout score — the wrapper-loop workhorse. */
  def holdoutScore(df: DataFrame, features: Seq[String], target: String,
                   task: TaskKind, seed: Long = 17L): Double = {
    if (features.isEmpty) return Double.MinValue
    val (tr, te) = split(df, seed)
    fitScore(tr, te, features, target, task, FastTrees, FastDepth, seed)
  }

  /** The final estimate: holdout score of the `FinalTrees` × `FinalDepth`
    * forest.
    */
  def autoScore(df: DataFrame, features: Seq[String], target: String,
                task: TaskKind, seed: Long = 17L): Double = {
    if (features.isEmpty) return Double.MinValue
    val (tr, te) = split(df, seed)
    fitScore(tr, te, features, target, task, FinalTrees, FinalDepth, seed)
  }
}
