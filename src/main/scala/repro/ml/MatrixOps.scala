package repro.ml

import breeze.linalg.{DenseMatrix, DenseVector}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Bridge between DataFrames and driver-local Breeze matrices.
  *
  * The whole selection loop runs on the driver over the *coreset* — the
  * coreset exists precisely to make this cheap (§3.1). Every selector
  * collects its input once per call into a [[LocalData]] and hands that one
  * matrix to every ranker and every holdout fit, so collecting here is by
  * design, not an accident. The baseline and the final estimate collect
  * the full base table the same way (1460–2400 rows here).
  */
object MatrixOps {

  /** A collected design matrix: rows × features, plus the target vector.
    * Treat it as immutable: the per-column bins of the local forest are
    * computed from it once, on first use.
    */
  final case class LocalData(x: DenseMatrix[Double], y: DenseVector[Double],
                             features: Seq[String]) {
    private lazy val index: Map[String, Int] = features.zipWithIndex.toMap

    /** Column of `feature` in `x`. */
    def indexOf(feature: String): Int = index(feature)

    /** Every column cut into [[Estimator.Bins]] quantile bins. */
    lazy val binned: IndexedSeq[LocalForest.Binned] =
      (0 until x.cols).map(j => LocalForest.bin(x(::, j).toArray, Estimator.Bins))

    /** A fresh copy of the columns `of`, in that order. */
    def columns(of: Seq[String]): DenseMatrix[Double] =
      x(::, of.map(indexOf)).toDenseMatrix

    /** This matrix with the columns of `extra` appended as `names`. */
    def withColumns(names: Seq[String], extra: DenseMatrix[Double]): LocalData =
      LocalData(DenseMatrix.horzcat(x, extra), y, features ++ names)
  }

  /** Collect `features` and `target` of `df` into local matrices; nulls
    * (which Preprocess should have removed) default to 0.
    *
    * Rows come back in one canonical order: lexicographic on the collected
    * doubles, features first, then the target. Rows that tie are
    * identical, so the matrix, and every seeded split and bootstrap drawn
    * over its row indices, does not depend on the frame's partitioning or
    * on whether its cache was filled.
    */
  def collect(df: DataFrame, features: Seq[String], target: String): LocalData = {
    val d = features.length
    val rows = df.select((features :+ target).map(c => col(c).cast("double")): _*).collect()
      .map(r => Array.tabulate(d + 1)(j => if (r.isNullAt(j)) 0.0 else r.getDouble(j)))
      .sorted(Lexicographic)
    LocalData(DenseMatrix.tabulate(rows.length, d)((i, j) => rows(i)(j)),
              DenseVector.tabulate(rows.length)(i => rows(i)(d)), features)
  }

  /** Rows of equal length, compared column by column. */
  private val Lexicographic: Ordering[Array[Double]] = (a, b) => {
    var j = 0
    while (j < a.length && java.lang.Double.compare(a(j), b(j)) == 0) j += 1
    if (j == a.length) 0 else java.lang.Double.compare(a(j), b(j))
  }

  /** Column-standardize in place: zero mean, unit variance (constant
    * columns become all-zero). Returns the input for chaining.
    */
  def standardize(m: DenseMatrix[Double]): DenseMatrix[Double] = {
    val n = m.rows
    var j = 0
    while (j < m.cols) {
      var s = 0.0; var s2 = 0.0
      var i = 0
      while (i < n) { val v = m(i, j); s += v; s2 += v * v; i += 1 }
      val mean = s / n
      val sd = math.sqrt(math.max(1e-12, s2 / n - mean * mean))
      i = 0
      while (i < n) { m(i, j) = (m(i, j) - mean) / sd; i += 1 }
      j += 1
    }
    m
  }
}
