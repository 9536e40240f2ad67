package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
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

  /** Indicator columns a [[Stats]] makes per categorical, at most. */
  val MaxLevels = 8

  /** The number of prepared feature columns a [[Stats]] makes of a column
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

  /** A row set's statistics from [[fit]]: the medians numeric nulls are
    * filled with, the values a categorical null is drawn from, and the
    * levels each categorical gets an indicator of, by rank. `apply`
    * imputes, then binarizes any frame with these columns, so `c__is_i` is
    * the same level of `c` in every frame it prepares.
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

    /** `df` imputed, then binarized: each categorical with levels is
      * replaced by its indicator columns, appended in `levels` order.
      * Other values of it map to all-zero indicators, the conventional
      * reference encoding.
      */
    def apply(df: DataFrame): DataFrame = {
      val numeric = df.withColumns(medians.map { case (c, m) =>
        c -> coalesce(col(c).cast(DoubleType), lit(m))
      }.toMap)
      // One column at a time: each draw hashes the row as imputed so far,
      // so a row gets the same fill at any partitioning. A column with no
      // observed value is filled with "∅" if it holds strings; any other
      // type stays null (it has no levels, so binarizing drops it).
      val imputed = draws.foldLeft(numeric) {
        case (d, (c, Seq())) =>
          if (d.schema(c).dataType == StringType) d.withColumn(c, coalesce(col(c), lit("∅"))) else d
        case (d, (c, values)) =>
          val rowHash = xxhash64(d.columns.toSeq.map(col) :+ lit(seed + c.hashCode): _*)
          d.withColumn(c, coalesce(col(c), element_at(array(values.map(lit): _*),
            (pmod(rowHash, lit(values.length.toLong)) + 1).cast(IntegerType))))
      }
      val binarized = levels.map(_._1).toSet
      imputed.select(imputed.columns.toSeq.filterNot(binarized).map(col) ++ levels.flatMap { lv =>
        lv._2.zip(indicators(lv)).map { case (v, ind) =>
          when(col(lv._1) === lit(v), 1.0).otherwise(0.0).as(ind)
        }
      }: _*)
    }
  }

  private def indicators(levels: (String, Seq[String])): Seq[String] =
    levels._2.indices.map(i => s"${levels._1}__is_$i")

  /** The [[Stats]] of `df`'s `featureCols`, in two Spark actions whatever
    * the width (one without categoricals):
    *  1. one aggregation: each numeric's approximate median (nulls and NaN
    *     ignored, 0 if nothing is left) and each categorical's 64 smallest
    *     observed values, which its nulls are drawn from;
    *  2. one count of every categorical's values after imputation, all
    *     columns at once: its `MaxLevels` most frequent, ties by value.
    */
  def fit(df: DataFrame, featureCols: Seq[String], seed: Long = 7L): Stats = {
    val nums = numericCols(df, featureCols)
    val cats = categoricalCols(df, featureCols)
    if (nums.isEmpty && cats.isEmpty) return Stats(Nil, Nil, Nil, seed)
    val aggs = nums.map { c =>
      val v = col(c).cast(DoubleType)
      percentile_approx(when(!isnan(v), v), lit(0.5), lit(100))
    } ++ cats.map(c => slice(array_sort(collect_set(col(c))), 1, 64))
    val row = df.agg(aggs.head, aggs.tail: _*).head()
    val medians = nums.zipWithIndex.map { case (c, i) => c -> (if (row.isNullAt(i)) 0.0 else row.getDouble(i)) }
    val draws = cats.zipWithIndex.map { case (c, i) => c -> row.getSeq[Any](nums.size + i).map(_.toString) }
    val imputing = Stats(medians, draws, Nil, seed)
    if (cats.isEmpty) return imputing
    val top = imputing(df).select(cats.map(c => col(c).cast(StringType).as(c)): _*)
      .unpivot(Array.empty[Column], "column", "value")
      .filter(col("value").isNotNull)
      .groupBy("column", "value").count()
      .groupBy("column")
      .agg(slice(array_sort(collect_list(struct(-col("count"), col("value")))), 1, MaxLevels))
      .collect().map(r => r.getString(0) -> r.getSeq[Row](1).map(_.getString(1))).toMap
    imputing.copy(levels = cats.map(c => c -> top.getOrElse(c, Nil)))
  }
}
