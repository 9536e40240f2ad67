package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Post-join preprocessing (§4 "Imputation", §3.1 "binarizes categorical
  * features"): simple imputation — median for numeric columns (cast to
  * double), a draw from the observed values for categorical columns —
  * followed by one-hot binarization of the categoricals.
  *
  * [[fit]] computes a row set's statistics once; only they (small) reach
  * the driver. Applying them is distributed DataFrame operations.
  */
object Preprocess {

  /** Indicator columns [[binarize]] makes per categorical, at most. */
  val MaxLevels = 8

  /** The number of prepared feature columns [[prepare]] makes of a column
    * of type `t`, at most: 1 numeric, 2 indicators per boolean,
    * `MaxLevels` per string, none of any other type.
    */
  def preparedWidth(t: DataType): Int = t match {
    case _: NumericType => 1
    case BooleanType    => 2
    case StringType     => MaxLevels
    case _              => 0
  }

  /** Columns of `df` with a numeric Spark type. */
  def numericCols(df: DataFrame, among: Seq[String]): Seq[String] = {
    val numeric = df.schema.fields.collect {
      case StructField(n, _: NumericType, _, _) => n
    }.toSet
    among.filter(numeric)
  }

  /** Columns of `df` holding strings or booleans — treated as categorical. */
  def categoricalCols(df: DataFrame, among: Seq[String]): Seq[String] = {
    val cat = df.schema.fields.collect {
      case StructField(n, StringType | BooleanType, _, _) => n
    }.toSet
    among.filter(cat)
  }

  /** A row set's statistics from [[fit]]: the medians and draws [[impute]]
    * fills nulls with, and the levels [[binarize]] makes indicators of, by
    * rank. `apply` imputes, then binarizes any frame with these columns,
    * so `c__is_i` is the same level of `c` in every frame it prepares.
    */
  final case class Stats(medians: Seq[(String, Double)], draws: Seq[(String, Seq[String])],
                         levels: Seq[(String, Seq[String])], seed: Long) {
    /** The prepared feature columns: the numerics, then the indicators. */
    def features: Seq[String] = (medians.map(_._1) ++ levels.flatMap(indicators)).distinct

    /** These statistics for only the columns that make `feats`. */
    def restrictedTo(feats: Seq[String]): Stats = {
      val cats = levels.filter(indicators(_).exists(feats.contains)).map(_._1).toSet
      Stats(medians.filter(m => feats.contains(m._1)), draws.filter(d => cats(d._1)),
            levels.filter(l => cats(l._1)), seed)
    }

    def apply(df: DataFrame): DataFrame = {
      val numeric = medians.foldLeft(df) { case (d, (c, m)) =>
        d.withColumn(c, coalesce(col(c).cast(DoubleType), lit(m)))
      }
      val imputed = draws.foldLeft(numeric) { case (d, (c, values)) =>
        val rowHash = xxhash64(d.columns.toSeq.map(col) :+ lit(seed + c.hashCode): _*)
        d.withColumn(c, coalesce(col(c),
          if (values.isEmpty) lit("∅")
          else element_at(array(values.map(lit): _*),
                          (pmod(rowHash, lit(values.length.toLong)) + 1).cast(IntegerType))))
      }
      levels.foldLeft(imputed) { case (d, lv @ (c, values)) =>
        values.zip(indicators(lv)).foldLeft(d) { case (dd, (v, ind)) =>
          dd.withColumn(ind, when(col(c) === lit(v), 1.0).otherwise(0.0))
        }.drop(c)
      }
    }
  }

  private def indicators(levels: (String, Seq[String])): Seq[String] =
    levels._2.indices.map(i => s"${levels._1}__is_$i")

  private def levelsOf(df: DataFrame, cols: Seq[String], maxLevels: Int): Seq[(String, Seq[String])] =
    cols.map { c =>
      c -> df.filter(col(c).isNotNull).groupBy(col(c)).count()
        .orderBy(desc("count"), col(c)).limit(maxLevels)
        .collect().map(_.get(0).toString).toSeq
    }

  private def imputing(df: DataFrame, cols: Seq[String], seed: Long): Stats = {
    val nums = numericCols(df, cols)
    // One multi-column approxQuantile pass: per-column calls would launch
    // one job per feature, which dominates wide (500+-column) batches.
    val medians =
      if (nums.isEmpty) Nil
      else nums.zip(df.stat.approxQuantile(nums.toArray, Array(0.5), 0.01))
        .map { case (c, q) => c -> q.headOption.getOrElse(0.0) }
    // Ordered before the limit: the draws must not depend on partitioning.
    val draws = categoricalCols(df, cols).map { c =>
      c -> df.filter(col(c).isNotNull).select(col(c)).distinct()
        .orderBy(col(c)).limit(64).collect().map(_.get(0).toString).toSeq
    }
    Stats(medians, draws, Nil, seed)
  }

  /** One-hot binarize each categorical column into indicator columns for
    * its up-to-`maxLevels` most frequent values (ties by value); the source
    * column is dropped. Other levels map to all-zero indicators, which is
    * the conventional reference encoding.
    */
  def binarize(df: DataFrame, cols: Seq[String], maxLevels: Int = MaxLevels): DataFrame =
    Stats(Nil, Nil, levelsOf(df, cols, maxLevels), 0L)(df)

  /** Impute nulls: numeric → median (via approxQuantile, cast to double),
    * categorical → a draw from the column's 64 smallest observed distinct
    * values, picked by a seeded hash of the row, so a row gets the same
    * fill at any partitioning.
    */
  def impute(df: DataFrame, cols: Seq[String], seed: Long = 7L): DataFrame =
    imputing(df, cols, seed)(df)

  /** The [[Stats]] of `df`'s `featureCols`, levels counted after imputation. */
  def fit(df: DataFrame, featureCols: Seq[String], seed: Long = 7L): Stats = {
    val stats = imputing(df, featureCols, seed)
    stats.copy(levels = levelsOf(stats(df), stats.draws.map(_._1), MaxLevels))
  }

  /** Full preparation of a joined table: [[fit]], then apply. Returns
    * (prepared df, its feature columns).
    */
  def prepare(df: DataFrame, featureCols: Seq[String], seed: Long = 7L): (DataFrame, Seq[String]) = {
    val stats = fit(df, featureCols, seed)
    (stats(df), stats.features)
  }
}
