package repro.ml

import breeze.linalg.{sum, DenseMatrix, DenseVector}
import breeze.optimize.{DiffFunction, OWLQN}

/** The one linear-model solver, shared by the lasso, ℓ1 logistic and
  * linear SVC rankers and by AutoML-lite's ridge models: one
  * loss-and-gradient function, minimized by Breeze's OWLQN as Spark ML
  * fits these models (LinearSVC with no ℓ1 term too).
  *
  * It takes and returns plain arrays and converts to Breeze only here, for
  * OWLQN: the first Breeze vector in a JVM loads about 1,700 classes, which
  * only a run that fits a linear model pays.
  */
object Linear {

  /** A per-row loss of the margin m = x·w + b against the label y (0/1 for
    * the classifiers): (loss, ∂loss/∂m).
    */
  type Loss = (Double, Double) => (Double, Double)

  /** ½(m − y)². */
  val Squared: Loss = (m, y) => (0.5 * (m - y) * (m - y), m - y)

  /** log(1 + eᵐ) − y·m, without overflow. */
  val Logistic: Loss = (m, y) =>
    (math.max(m, 0.0) + math.log1p(math.exp(-math.abs(m))) - y * m, 1.0 / (1.0 + math.exp(-m)) - y)

  /** max(0, 1 − s·m), with the sign s = 2y − 1. */
  val Hinge: Loss = (m, y) => {
    val s = 2 * y - 1
    if (s * m < 1) (1 - s * m, -s) else (0.0, 0.0)
  }

  /** Fitted weights `w` and intercept `b`. */
  final case class Fit(w: Array[Double], b: Double)

  /** The linear model minimizing the mean `loss` over the rows of the
    * columns `x` plus `l1`‖w‖₁ + ½`l2`‖w‖², with an unpenalized intercept.
    */
  def fit(x: Array[Array[Double]], y: Array[Double], loss: Loss,
          l1: Double, l2: Double, iterations: Int): Fit =
    owlqn(matrix(x, y.length), new DenseVector(y), loss, l1, l2, iterations)

  /** The binary fits of each class of `y` against the rest, as (class,
    * fit); a single fit, of the larger label, for two classes.
    */
  def oneVsRest(x: Array[Array[Double]], y: Array[Double], loss: Loss,
                l1: Double, l2: Double, iterations: Int): Seq[(Double, Fit)] = {
    val m = matrix(x, y.length)
    val classes = y.distinct.sorted
    val positives = if (classes.length <= 2) classes.takeRight(1) else classes
    positives.toSeq.map { c =>
      c -> owlqn(m, new DenseVector(y.map(v => if (v == c) 1.0 else 0.0)), loss, l1, l2, iterations)
    }
  }

  /** The n × d matrix of the columns `x`. */
  private def matrix(x: Array[Array[Double]], n: Int): DenseMatrix[Double] =
    new DenseMatrix(n, x.length, x.flatten)

  private def owlqn(x: DenseMatrix[Double], y: DenseVector[Double], loss: Loss,
                    l1: Double, l2: Double, iterations: Int): Fit = {
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
    val p = new OWLQN[Int, DenseVector[Double]](iterations, 10, (j: Int) => if (j < d) l1 else 0.0, 1e-6)
      .minimize(objective, DenseVector.zeros[Double](d + 1))
    Fit(p(0 until d).toArray, p(d))
  }
}
