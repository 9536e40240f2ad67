package repro.automl

import org.apache.spark.ml.{Model, Estimator => Learner}
import org.apache.spark.ml.classification.{GBTClassifier, LogisticRegression, RandomForestClassifier}
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.regression.{GBTRegressor, LinearRegression, RandomForestRegressor}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.TaskKind
import repro.ml.Estimator

/** Substitute for the closed AutoML systems the paper compares against
  * (Microsoft Azure AutoML, Alpine Meadow): a time-budgeted sequential
  * model + hyperparameter search over Spark-ML Random Forests, gradient
  * boosted trees and linear models. Plays the same role in Tables 1/6 —
  * an expensive estimator run directly on the base table ("baseline") or
  * on the fully-materialized join ("all features"), with no ARDA
  * selection in the loop. Documented in DESIGN.md.
  */
object AutoMLLite {

  /** Random Forest shapes tried first, as (trees, depth). */
  private val ForestShapes = Seq((40, 6), (80, 8), (120, 8))

  /** Column holding the assembled feature vector. */
  private val FeaturesCol = "__fv"

  /** Column every model fitted here predicts into. */
  private val PredictionCol = "__p"

  /** Nulls filled with 0 and `features` assembled into [[FeaturesCol]],
    * the input of every model fitted here. coalesce(4): frames spread over
    * many partitions spend more time scheduling tiny tasks per tree level
    * than computing. It groups cached partitions by block location, so a
    * first fit over an unfilled cache can see another row order than
    * later fits.
    */
  def assemble(df: DataFrame, features: Seq[String]): DataFrame =
    new VectorAssembler().setInputCols(features.toArray).setOutputCol(FeaturesCol)
      .transform(df.na.fill(0.0, features)).coalesce(4)

  /** Deterministic 70/30 split on a seeded rand column. Spark seeds `rand`
    * per partition, so the split depends on the frame's partitioning.
    */
  def split(df: DataFrame, seed: Long): (DataFrame, DataFrame) = {
    val tagged = df.withColumn("__u", rand(seed))
    (tagged.filter(col("__u") < 0.7).drop("__u"),
     tagged.filter(col("__u") >= 0.7).drop("__u"))
  }

  /** The task's Spark ML Random Forest over [[FeaturesCol]], predicting
    * `target` into [[PredictionCol]].
    */
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

  /** Higher-is-better score of `model` on the assembled frame `test`: its
    * predictions and `target` are collected and scored by
    * [[Estimator.score]].
    */
  def score(task: TaskKind, model: Model[_], test: DataFrame, target: String): Double = {
    val rows = model.transform(test).select(col(PredictionCol), col(target).cast("double")).collect()
    Estimator.score(task, rows.map(_.getDouble(0)), rows.map(_.getDouble(1)))
  }

  /** Best holdout score found within `budgetSeconds` (accuracy, or −MAE). */
  def search(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, budgetSeconds: Double = 40.0, seed: Long = 17L): Double = {
    if (features.isEmpty) return Double.MinValue
    val (tr0, te0) = split(df, seed)
    val tr = assemble(tr0, features).cache()
    val te = assemble(te0, features).cache()
    tr.count(); te.count()

    val deadline = System.nanoTime() + (budgetSeconds * 1e9).toLong
    val nClasses = task match {
      case TaskKind.Classification => tr.select(target).distinct().count().toInt
      case TaskKind.Regression     => 0
    }

    val forests = ForestShapes.map { case (t, d) => forest(task, target, t, d, seed) }
    val others: Seq[Learner[_ <: Model[_]]] = task match {
      case TaskKind.Classification =>
        val lr = Seq(0.0, 0.01).map { r =>
          new LogisticRegression().setFeaturesCol(FeaturesCol).setLabelCol(target)
            .setPredictionCol(PredictionCol).setRegParam(r).setMaxIter(60)
        }
        // GBT is binary-only in Spark ML.
        val gbt = if (nClasses == 2) Seq(
          new GBTClassifier().setFeaturesCol(FeaturesCol).setLabelCol(target)
            .setPredictionCol(PredictionCol).setMaxIter(15).setMaxDepth(5).setMaxBins(Estimator.Bins).setSeed(seed)
        ) else Nil
        lr ++ gbt
      case TaskKind.Regression =>
        val lin = Seq(0.0, 0.01).map { r =>
          new LinearRegression().setFeaturesCol(FeaturesCol).setLabelCol(target)
            .setPredictionCol(PredictionCol).setRegParam(r).setMaxIter(60)
        }
        val gbt = new GBTRegressor().setFeaturesCol(FeaturesCol).setLabelCol(target)
          .setPredictionCol(PredictionCol).setMaxIter(15).setMaxDepth(5).setMaxBins(Estimator.Bins).setSeed(seed)
        lin :+ gbt
    }

    var best = Double.MinValue
    val it = (forests ++ others).iterator
    var ran = 0
    while (it.hasNext && (ran == 0 || System.nanoTime() < deadline)) {
      best = math.max(best, score(task, it.next().fit(tr), te, target))
      ran += 1
    }
    tr.unpersist(false); te.unpersist(false)
    best
  }
}
