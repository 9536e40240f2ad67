package repro.fs

import breeze.linalg.{sum, DenseMatrix, DenseVector}
import breeze.optimize.{DiffFunction, OWLQN}
import org.apache.spark.sql.DataFrame

import repro.core.TaskKind
import repro.ml.{Estimator, FilterStats, LocalForest, MatrixOps, Relief, SparseRegression}
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
      SparseRegression.solve(x, yMat).rowNorms.toArray
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
      fitLinear(MatrixOps.standardize(data.columns(features)), data.y, Squared,
                l1 = 0.02, l2 = 0.0, iterations = 50).map(math.abs).toArray
  }

  /** ℓ1 logistic regression |w| ranking: mean log-loss + 0.01‖w‖₁ over
    * standardized columns, 50 iterations, one-vs-rest beyond binary;
    * classification only.
    */
  object LogisticRanker extends Ranker {
    val name = "logistic reg"
    override def supports(task: TaskKind): Boolean = task == TaskKind.Classification
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      oneVsRest(data, features, Logistic, l1 = 0.01, l2 = 0.0, iterations = 50)
  }

  /** Linear SVC |w| ranking: mean hinge loss + ½·0.05‖w‖² over
    * standardized columns, 30 iterations, one-vs-rest beyond binary;
    * classification only.
    */
  object LinearSVCRanker extends Ranker {
    val name = "linear svc"
    override def supports(task: TaskKind): Boolean = task == TaskKind.Classification
    def rank(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Array[Double] =
      oneVsRest(data, features, Hinge, l1 = 0.0, l2 = 0.05, iterations = 30)
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
      Relief.weights(data.columns(features), data.y, task, seed = seed).toArray
  }

  /** A per-row loss of the linear rankers, of the margin m = x·w + b
    * against the label y (0/1 for the classifiers): (loss, ∂loss/∂m).
    */
  private type Loss = (Double, Double) => (Double, Double)

  /** ½(m − y)². */
  private val Squared: Loss = (m, y) => (0.5 * (m - y) * (m - y), m - y)

  /** log(1 + eᵐ) − y·m, without overflow. */
  private val Logistic: Loss = (m, y) =>
    (math.max(m, 0.0) + math.log1p(math.exp(-math.abs(m))) - y * m, 1.0 / (1.0 + math.exp(-m)) - y)

  /** max(0, 1 − s·m), with the sign s = 2y − 1. */
  private val Hinge: Loss = (m, y) => {
    val s = 2 * y - 1
    if (s * m < 1) (1 - s * m, -s) else (0.0, 0.0)
  }

  /** Sum over the classes of |w| of the binary fits of each class against
    * the rest; a single fit, of the larger label, for two classes.
    */
  private def oneVsRest(data: LocalData, features: Seq[String], loss: Loss,
                        l1: Double, l2: Double, iterations: Int): Array[Double] = {
    val x = MatrixOps.standardize(data.columns(features))
    val classes = data.y.toArray.distinct.sorted
    val positives = if (classes.length <= 2) classes.takeRight(1) else classes
    val out = Array.fill(features.length)(0.0)
    for (c <- positives) {
      val w = fitLinear(x, data.y.map(v => if (v == c) 1.0 else 0.0), loss, l1, l2, iterations)
      var j = 0
      while (j < out.length) { out(j) += math.abs(w(j)); j += 1 }
    }
    out
  }

  /** The weights w of the linear model minimizing the mean `loss` over the
    * rows of `x` plus `l1`‖w‖₁ + ½`l2`‖w‖², with an unpenalized intercept,
    * found by Breeze's OWLQN as Spark ML fits these models (LinearSVC with
    * no ℓ1 term too).
    */
  private def fitLinear(x: DenseMatrix[Double], y: DenseVector[Double], loss: Loss,
                        l1: Double, l2: Double, iterations: Int): DenseVector[Double] = {
    val (n, d) = (x.rows, x.cols)
    val objective = new DiffFunction[DenseVector[Double]] {
      def calculate(p: DenseVector[Double]): (Double, DenseVector[Double]) = {
        val w = p(0 until d)
        val margin = x * w
        val dm = DenseVector.zeros[Double](n) // ∂loss/∂margin per row
        var value = 0.0
        var i = 0
        while (i < n) {
          val (l, g) = loss(margin(i) + p(d), y(i))
          value += l; dm(i) = g
          i += 1
        }
        val grad = DenseVector.zeros[Double](d + 1)
        grad(0 until d) := (x.t * dm) / n.toDouble
        grad(d) = sum(dm) / n
        if (l2 > 0) grad(0 until d) += w * l2
        (value / n + 0.5 * l2 * (w dot w), grad)
      }
    }
    new OWLQN[Int, DenseVector[Double]](iterations, 10, (j: Int) => if (j < d) l1 else 0.0, 1e-6)
      .minimize(objective, DenseVector.zeros[Double](d + 1))(0 until d)
  }
}
