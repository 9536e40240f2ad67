package repro.fs

import org.apache.spark.ml.classification.{LinearSVC, LinearSVCModel, LogisticRegression, OneVsRest}
import org.apache.spark.ml.regression.LinearRegression
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.TaskKind
import repro.ml.{Estimator, FilterStats, LocalForest, MatrixOps, Relief, SparseRegression}
import repro.ml.MatrixOps.LocalData

/** A feature ranker: assigns every feature a relevance score (higher =
  * better). Rankers are combined with a subset-selection strategy
  * ([[Selection]]) to form a feature selector (§5, §7).
  */
trait Ranker {
  def name: String
  /** Whether this ranker applies to the task (e.g. lasso is regression-only). */
  def supports(task: TaskKind): Boolean = true
  def rank(df: DataFrame, features: Seq[String], target: String,
           task: TaskKind, seed: Long): Array[Double]
}

/** A ranker that runs on the driver over a collected coreset matrix, so a
  * selector can collect its input once and rank any subset of its columns.
  */
trait LocalRanker extends Ranker {
  /** Scores of the columns `features` of `data`. */
  def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double]

  final def rank(df: DataFrame, features: Seq[String], target: String,
                 task: TaskKind, seed: Long): Array[Double] =
    rank(MatrixOps.collect(df, features, target), features, task, seed)
}

object Rankers {

  import Estimator.{assemble, FeaturesCol}

  /** Impurity importances of the `FastTrees` × `FastDepth` [[LocalForest]],
    * fitted on every row of the matrix.
    */
  object RandomForestRanker extends LocalRanker {
    val name = "random forest"
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      LocalForest.fit(data, features, Array.range(0, data.y.length), task,
                      Estimator.FastTrees, Estimator.FastDepth, seed).importances
  }

  /** ℓ2,1 sparse regression (Eq. 1) row-norm ranking — the paper's second
    * ensemble member (§6.2), on standardized columns of the matrix, at the
    * solver's default γ = 0.1.
    */
  final class SparseRegressionRanker extends LocalRanker {
    val name = "sparse regression"
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] = {
      val x = MatrixOps.standardize(data.columns(features))
      val yMat = SparseRegression.labelMatrix(data.y, task)
      SparseRegression.solve(x, yMat).rowNorms.toArray
    }
  }

  /** Lasso (L1 linear regression) |coefficient| ranking; regression only
    * (Table 1 marks lasso n/a on classification datasets).
    */
  object LassoRanker extends Ranker {
    val name = "lasso"
    override def supports(task: TaskKind): Boolean = task == TaskKind.Regression
    def rank(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, seed: Long): Array[Double] = {
      val a = assemble(df, features)
      val m = new LinearRegression().setFeaturesCol(FeaturesCol).setLabelCol(target)
        .setElasticNetParam(1.0).setRegParam(0.02).setMaxIter(50).fit(a)
      m.coefficients.toArray.map(math.abs)
    }
  }

  /** L1 logistic regression |coefficient| ranking; classification only. */
  object LogisticRanker extends Ranker {
    val name = "logistic reg"
    override def supports(task: TaskKind): Boolean = task == TaskKind.Classification
    def rank(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, seed: Long): Array[Double] = {
      val a = assemble(df, features)
      val m = new LogisticRegression().setFeaturesCol(FeaturesCol).setLabelCol(target)
        .setElasticNetParam(1.0).setRegParam(0.01).setMaxIter(50).fit(a)
      val cm = m.coefficientMatrix
      Array.tabulate(features.length) { j =>
        (0 until cm.numRows).map(i => math.abs(cm(i, j))).sum
      }
    }
  }

  /** Linear SVC |coefficient| ranking (one-vs-rest beyond binary);
    * classification only.
    */
  object LinearSVCRanker extends Ranker {
    val name = "linear svc"
    override def supports(task: TaskKind): Boolean = task == TaskKind.Classification
    def rank(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, seed: Long): Array[Double] = {
      val a = assemble(df, features).withColumn(target, col(target).cast("double"))
      val nClasses = a.select(target).distinct().count().toInt
      val svc = new LinearSVC().setFeaturesCol(FeaturesCol).setLabelCol(target)
        .setRegParam(0.05).setMaxIter(30)
      if (nClasses <= 2) svc.fit(a).coefficients.toArray.map(math.abs)
      else {
        val ovr = new OneVsRest().setClassifier(svc)
          .setFeaturesCol(FeaturesCol).setLabelCol(target).fit(a)
        val out = Array.fill(features.length)(0.0)
        ovr.models.foreach { case m: LinearSVCModel =>
          val c = m.coefficients.toArray
          var j = 0
          while (j < out.length) { out(j) += math.abs(c(j)); j += 1 }
        }
        out
      }
    }
  }

  /** Mutual information over the melted layout (distributed). */
  object MutualInfoRanker extends Ranker {
    val name = "mutual info"
    def rank(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, seed: Long): Array[Double] =
      FilterStats.miScores(df, features, target, task)
  }

  /** F-test (ANOVA / regression F) over the melted layout (distributed,
    * via the FStatAgg UDAF for regression).
    */
  object FTestRanker extends Ranker {
    val name = "f-test"
    def rank(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, seed: Long): Array[Double] =
      FilterStats.fScores(df, features, target, task)
  }

  /** ReliefF / RReliefF weights over the collected coreset. */
  object ReliefRanker extends LocalRanker {
    val name = "relief"
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      Relief.weights(data.columns(features), data.y, task, seed = seed).toArray
  }
}
