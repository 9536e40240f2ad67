package repro.ml

import org.apache.spark.sql.DataFrame

import repro.core.TaskKind

/** The paper's fixed estimator (§7), a Random Forest, and the one place
  * that fits it and scores its predictions. Scores follow a
  * higher-is-better convention: classification → holdout accuracy,
  * regression → negative holdout MAE.
  *
  * Every fit is a driver-side [[LocalForest]] on a collected matrix, scored
  * on its seeded 70/30 row split. `holdoutScore` (`FastTrees` ×
  * `FastDepth`) is the cheap inner-loop evaluator of the wrapper
  * selectors, over the coreset matrix. `autoScore` (`FinalTrees` ×
  * `FinalDepth`) is the baseline and the final estimate: it collects the
  * full base table, with the kept tables joined in for the final estimate.
  * AutoML-lite fits its other learners on a [[LocalForest.split]] of its
  * own collected matrix and scores them with [[score]] too.
  */
object Estimator {

  /** Fast inner-loop config. */
  val FastTrees = 25
  val FastDepth = 6

  /** Baseline and final-estimate config. */
  val FinalTrees = 60
  val FinalDepth = 8

  /** Split bins per column: the [[LocalForest]] cuts each column of a matrix at this many quantile bins. */
  val Bins = 8

  /** Higher-is-better score of `predicted` against `actual`, on the
    * driver: accuracy, or −MAE (0 and −MaxValue on no rows).
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

  /** One fixed-config RF holdout score — the wrapper-loop workhorse.
    * Collects `features` and `target` and fits on the driver.
    */
  def holdoutScore(df: DataFrame, features: Seq[String], target: String,
                   task: TaskKind, seed: Long = 17L): Double =
    if (features.isEmpty) Double.MinValue
    else holdoutScore(MatrixOps.collect(df, features, target), features, task, seed)

  /** The holdout score of the `FastTrees` × `FastDepth` forest over the
    * columns `features` of a collected matrix.
    */
  def holdoutScore(data: MatrixOps.LocalData, features: Seq[String],
                   task: TaskKind, seed: Long): Double =
    fitAndScore(data, features, task, FastTrees, FastDepth, seed)

  /** The baseline and the final estimate: the holdout score of the
    * `FinalTrees` × `FinalDepth` forest over `features` of `df`, collected
    * to the driver.
    */
  def autoScore(df: DataFrame, features: Seq[String], target: String,
                task: TaskKind, seed: Long = 17L): Double =
    if (features.isEmpty) Double.MinValue
    else fitAndScore(MatrixOps.collect(df, features, target), features, task,
                     FinalTrees, FinalDepth, seed)

  /** A `trees` × `depth` [[LocalForest]] fitted on the seeded 70/30 row
    * split of `data` and scored on the other 30%.
    */
  private def fitAndScore(data: MatrixOps.LocalData, features: Seq[String], task: TaskKind,
                          trees: Int, depth: Int, seed: Long): Double = {
    if (features.isEmpty) return Double.MinValue
    val (train, test) = LocalForest.split(data.y.length, seed)
    val model = LocalForest.fit(data, features, train, task, trees, depth, seed)
    score(task, test.map(model.predict(data.cols, _)), test.map(data.y(_)))
  }
}
