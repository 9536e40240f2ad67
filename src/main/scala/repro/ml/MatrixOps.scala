package repro.ml

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Bridge between DataFrames and driver-local column arrays.
  *
  * The whole selection loop runs on the driver over the *coreset* — the
  * coreset exists precisely to make this cheap (§3.1). Every selector
  * collects its input once per call into a [[LocalData]] and hands that one
  * matrix to every ranker and every holdout fit, so collecting here is by
  * design, not an accident. The baseline and the final estimate collect
  * the full base table the same way (1460–2400 rows here).
  *
  * A matrix is one `Array[Double]` per column. Only [[Linear]] converts
  * to Breeze, at its own boundary: the first Breeze vector in a JVM loads
  * about 1,700 classes (over a second), which no forest fit, injection or
  * ℓ2,1 ranking needs to pay.
  */
object MatrixOps {

  /** A collected design matrix: `cols(j)(i)` is feature `j` of row `i`,
    * and `y(i)` the target of row `i`. Treat it as immutable: the
    * per-column bins of the local forest are computed from it once, on
    * first use.
    */
  final case class LocalData(cols: Array[Array[Double]], y: Array[Double],
                             features: Seq[String]) {
    private lazy val index: Map[String, Int] = features.zipWithIndex.toMap

    /** Column of `feature` in `cols`. */
    def indexOf(feature: String): Int = index(feature)

    /** Every column cut into [[Estimator.Bins]] quantile bins. */
    lazy val binned: IndexedSeq[LocalForest.Binned] =
      cols.toIndexedSeq.map(LocalForest.bin(_, Estimator.Bins))

    /** A fresh copy of the columns `of`, in that order. */
    def columns(of: Seq[String]): Array[Array[Double]] =
      of.map(f => cols(indexOf(f)).clone()).toArray

    /** This matrix with the columns `extra` appended as `names`. */
    def withColumns(names: Seq[String], extra: Array[Array[Double]]): LocalData =
      LocalData(cols ++ extra, y, features ++ names)
  }

  /** Collect `features` and `target` of `df` into local columns; nulls
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
    LocalData(Array.tabulate(d)(j => rows.map(_(j))), rows.map(_(d)), features)
  }

  /** Rows of equal length, compared column by column. */
  private val Lexicographic: Ordering[Array[Double]] = (a, b) => {
    var j = 0
    while (j < a.length && java.lang.Double.compare(a(j), b(j)) == 0) j += 1
    if (j == a.length) 0 else java.lang.Double.compare(a(j), b(j))
  }

  /** Standardize each column in place: zero mean, unit variance (constant
    * columns become all-zero). Returns the input for chaining.
    */
  def standardize(cols: Array[Array[Double]]): Array[Array[Double]] = {
    for (c <- cols) {
      val n = c.length
      var s = 0.0; var s2 = 0.0
      var i = 0
      while (i < n) { val v = c(i); s += v; s2 += v * v; i += 1 }
      val mean = s / n
      val sd = math.sqrt(math.max(1e-12, s2 / n - mean * mean))
      i = 0
      while (i < n) { c(i) = (c(i) - mean) / sd; i += 1 }
    }
    cols
  }
}
