package repro.fs

import org.apache.spark.sql.DataFrame

import repro.core.TaskKind
import repro.ml.{Estimator, FilterStats, Linear, LocalForest, MatrixOps, Relief, SparseRegression}
import repro.ml.MatrixOps.LocalData

/** A feature ranker: assigns every feature a relevance score (higher =
  * better). Rankers are combined with a subset-selection strategy
  * ([[Selection]]) to form a feature selector (§5, §7).
  *
  * Every ranker runs on the driver over a collected coreset matrix, so a
  * selector collects its input once and ranks any subset of its columns.
  */
trait Ranker {
  def name: String
  /** Whether this ranker applies to the task (e.g. lasso is regression-only). */
  def supports(task: TaskKind): Boolean = true

  /** Scores of the columns `features` of `data`. */
  def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double]

  /** Scores of `features` of `df`, collected with `target` into one matrix. */
  final def rank(df: DataFrame, features: Seq[String], target: String,
                 task: TaskKind, seed: Long): Array[Double] =
    rank(MatrixOps.collect(df, features, target), features, task, seed)
}

object Rankers {

  /** Impurity importances of the `FastTrees` × `FastDepth` [[LocalForest]],
    * fitted on every row of the matrix.
    */
  object RandomForestRanker extends Ranker {
    val name = "random forest"
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      LocalForest.fit(data, features, Array.range(0, data.y.length), task,
                      Estimator.FastTrees, Estimator.FastDepth, seed).importances
  }

  /** ℓ2,1 sparse regression (Eq. 1) row-norm ranking — the paper's second
    * ensemble member (§6.2), on standardized columns of the matrix, at the
    * solver's default γ = 0.1.
    */
  final class SparseRegressionRanker extends Ranker {
    val name = "sparse regression"
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] = {
      val x = MatrixOps.standardize(data.columns(features))
      val yMat = SparseRegression.labelMatrix(data.y, task)
      SparseRegression.solve(x, yMat).rowNorms
    }
  }

  /** Lasso |w| ranking: ½·mean squared loss + 0.02‖w‖₁ over standardized
    * columns, 50 iterations; regression only (Table 1 marks lasso n/a on
    * classification datasets).
    */
  object LassoRanker extends Ranker {
    val name = "lasso"
    override def supports(task: TaskKind): Boolean = task == TaskKind.Regression
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      Linear.fit(MatrixOps.standardize(data.columns(features)), data.y, Linear.Squared,
                 l1 = 0.02, l2 = 0.0, iterations = 50).w.map(math.abs)
  }

  /** ℓ1 logistic regression |w| ranking: mean log-loss + 0.01‖w‖₁ over
    * standardized columns, 50 iterations, one-vs-rest beyond binary;
    * classification only.
    */
  object LogisticRanker extends Ranker {
    val name = "logistic reg"
    override def supports(task: TaskKind): Boolean = task == TaskKind.Classification
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      oneVsRest(data, features, Linear.Logistic, l1 = 0.01, l2 = 0.0, iterations = 50)
  }

  /** Linear SVC |w| ranking: mean hinge loss + ½·0.05‖w‖² over
    * standardized columns, 30 iterations, one-vs-rest beyond binary;
    * classification only.
    */
  object LinearSVCRanker extends Ranker {
    val name = "linear svc"
    override def supports(task: TaskKind): Boolean = task == TaskKind.Classification
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      oneVsRest(data, features, Linear.Hinge, l1 = 0.0, l2 = 0.05, iterations = 30)
  }

  /** Mutual information of each column with the label. */
  object MutualInfoRanker extends Ranker {
    val name = "mutual info"
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      FilterStats.miScores(data.columns(features), data.y, task)
  }

  /** F-test: one-way ANOVA F for classification, univariate regression F. */
  object FTestRanker extends Ranker {
    val name = "f-test"
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      FilterStats.fScores(data.columns(features), data.y, task)
  }

  /** ReliefF / RReliefF weights over the collected coreset. */
  object ReliefRanker extends Ranker {
    val name = "relief"
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      Relief.weights(data.columns(features), data.y, task, seed = seed)
  }

  /** Sum over the classes of |w| of the binary fits of each class against
    * the rest; a single fit, of the larger label, for two classes.
    */
  private def oneVsRest(data: LocalData, features: Seq[String], loss: Linear.Loss,
                        l1: Double, l2: Double, iterations: Int): Array[Double] = {
    val sum = new Array[Double](features.length)
    for ((_, fit) <- Linear.oneVsRest(MatrixOps.standardize(data.columns(features)), data.y, loss,
                                      l1, l2, iterations); j <- sum.indices)
      sum(j) += math.abs(fit.w(j))
    sum
  }
}
