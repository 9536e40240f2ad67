package repro.automl

import org.apache.spark.sql.DataFrame

import repro.core.TaskKind
import repro.ml.{Estimator, Linear, LocalForest, MatrixOps}
import repro.ml.MatrixOps.LocalData

/** Substitute for the closed AutoML systems the paper compares against
  * (Microsoft Azure AutoML, Alpine Meadow): a time-budgeted sequential
  * model + hyperparameter search over Random Forests, linear models and
  * gradient-boosted trees. Plays the same role in Tables 1/6 — an
  * expensive estimator run directly on the base table ("baseline") or
  * on the fully-materialized join ("all features"), with no ARDA
  * selection in the loop. Documented in DESIGN.md. It fits as every ARDA
  * fit does, on the driver over the frame collected in canonical row
  * order, so its score depends on neither partitioning nor cache state.
  */
object AutoMLLite {

  /** Random Forest shapes tried first, as (trees, depth). */
  private val ForestShapes = Seq((40, 6), (80, 8), (120, 8))

  /** ℓ2 penalties of the linear models tried next, and their iterations. */
  private val RidgePenalties = Seq(0.0, 0.01)
  private val RidgeIterations = 60

  /** Gradient-boosted trees, tried last: rounds, tree depth and step. */
  private val BoostRounds = 15
  private val BoostDepth = 5
  private val BoostStep = 0.1

  /** Best holdout score found within `budgetSeconds` (accuracy, or −MAE).
    * The first candidate runs whatever the budget.
    */
  def search(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, budgetSeconds: Double = 40.0, seed: Long = 17L): Double = {
    if (features.isEmpty) return Double.MinValue
    val data = MatrixOps.collect(df, features, target)
    val (train, test) = LocalForest.split(data.y.length, seed)
    val deadline = System.nanoTime() + (budgetSeconds * 1e9).toLong

    // Each candidate is fitted on the train rows when the search reaches it.
    val candidates: Iterator[Int => Double] =
      ForestShapes.iterator.map { case (t, d) =>
        val model = LocalForest.fit(data, features, train, task, t, d, seed)
        model.predict(data.cols, _)
      } ++ RidgePenalties.iterator.map(ridge(data, features, train, task, _)) ++
        // Boosting is for regression and binary classification only, as in Spark ML.
        (if (task == TaskKind.Regression || train.map(data.y(_)).distinct.length == 2)
           Iterator(boost(data, features, train, task, seed))
         else Iterator.empty)
    def score(predict: Int => Double): Double =
      Estimator.score(task, test.map(predict), test.map(data.y(_)))

    var best = score(candidates.next())
    while (candidates.hasNext && System.nanoTime() < deadline) best = math.max(best, score(candidates.next()))
    best
  }

  /** The ℓ2-penalized linear model on the columns standardized over all rows:
    * squared loss, or logistic loss one-vs-rest, predicting the largest margin.
    */
  private def ridge(data: LocalData, features: Seq[String], train: Array[Int],
                    task: TaskKind, l2: Double): Int => Double = {
    val x = MatrixOps.standardize(data.columns(features))
    val (xTrain, yTrain) = (x.map(c => train.map(c)), train.map(data.y))
    def margins(fit: Linear.Fit): Array[Double] =
      Array.tabulate(data.y.length)(i => x.indices.foldLeft(0.0)((m, j) => m + x(j)(i) * fit.w(j)) + fit.b)
    task match {
      case TaskKind.Regression =>
        val m = margins(Linear.fit(xTrain, yTrain, Linear.Squared, 0.0, l2, RidgeIterations))
        m(_)
      case TaskKind.Classification =>
        val fitted = Linear.oneVsRest(xTrain, yTrain, Linear.Logistic, 0.0, l2, RidgeIterations)
          .map { case (c, fit) => c -> margins(fit) }
        // Two classes fit only the larger; the smaller has margin 0.
        val classes =
          if (fitted.size == 1) (yTrain.min, new Array[Double](data.y.length)) +: fitted else fitted
        i => classes.maxBy(_._2(i))._1
    }
  }

  /** Spark ML's gradient-boosted trees: each round is a one-tree
    * [[LocalForest]] regression fit to the pseudo-residuals of squared
    * error, or of log loss on the labels as ±1. The first tree fits the
    * labels with weight 1, every later one has weight `BoostStep`.
    */
  private def boost(data: LocalData, features: Seq[String], train: Array[Int],
                    task: TaskKind, seed: Long): Int => Double = {
    val y = task match {
      case TaskKind.Regression     => data.y
      case TaskKind.Classification => data.y.map(2 * _ - 1)
    }
    val f = new Array[Double](y.length) // the ensemble's margin per row
    var residual = y
    for (round <- 0 until BoostRounds) {
      val tree = LocalForest.fit(data, residual, features, train, TaskKind.Regression,
                                 1, BoostDepth, seed + round)
      val weight = if (round == 0) 1.0 else BoostStep
      f.indices.foreach(i => f(i) += weight * tree.predict(data.cols, i))
      residual = Array.tabulate(y.length)(i => task match {
        case TaskKind.Regression     => 2 * (y(i) - f(i))
        case TaskKind.Classification => 4 * y(i) / (1 + math.exp(2 * y(i) * f(i)))
      })
    }
    task match {
      case TaskKind.Regression     => f(_)
      case TaskKind.Classification => i => if (f(i) > 0) 1.0 else 0.0
    }
  }
}
