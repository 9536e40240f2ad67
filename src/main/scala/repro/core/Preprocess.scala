package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Post-join preprocessing (§4 "Imputation", §3.1 "binarizes categorical
  * features"): simple imputation — median for numeric columns (cast to
  * double), a draw from the observed values for categorical columns —
  * followed by one-hot binarization of the categoricals.
  *
  * Everything is expressed as distributed DataFrame operations; only the
  * per-column medians / category inventories (small) reach the driver.
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

  /** One-hot binarize each categorical column into indicator columns for
    * its up-to-`maxLevels` most frequent values; the source column is
    * dropped. Rarely-seen levels map to all-zero indicators, which is the
    * conventional reference encoding.
    */
  def binarize(df: DataFrame, cols: Seq[String], maxLevels: Int = MaxLevels): DataFrame = {
    cols.foldLeft(df) { (d, c) =>
      val levels = d
        .filter(col(c).isNotNull)
        .groupBy(col(c)).count()
        .orderBy(desc("count"), col(c))
        .limit(maxLevels)
        .collect()
        .map(_.get(0).toString)
      val withInd = levels.zipWithIndex.foldLeft(d) { case (dd, (lv, i)) =>
        dd.withColumn(s"${c}__is_$i", when(col(c) === lit(lv), 1.0).otherwise(0.0))
      }
      withInd.drop(c)
    }
  }

  /** Impute nulls: numeric → median (via approxQuantile), categorical →
    * a draw from the column's 64 smallest observed distinct values, picked
    * by a seeded hash of the row, so a row gets the same fill at any
    * partitioning.
    */
  def impute(df: DataFrame, cols: Seq[String], seed: Long = 7L): DataFrame = {
    val nums = numericCols(df, cols)
    val cats = categoricalCols(df, cols)

    // One multi-column approxQuantile pass: per-column calls would launch
    // one job per feature, which dominates wide (500+-column) batches.
    val medians: Map[String, Double] =
      if (nums.isEmpty) Map.empty
      else {
        val qs = df.stat.approxQuantile(nums.toArray, Array(0.5), 0.01)
        nums.zip(qs).collect {
          case (c, arr) if arr.nonEmpty => c -> arr.head
        }.toMap
      }

    val afterNum = nums.foldLeft(df) { (d, c) =>
      val m = medians.getOrElse(c, 0.0)
      d.withColumn(c, coalesce(col(c).cast(DoubleType), lit(m)))
    }

    cats.foldLeft(afterNum) { (d, c) =>
      // Ordered before the limit: the inventory must not depend on partitioning.
      val values = d.filter(col(c).isNotNull).select(col(c)).distinct()
        .orderBy(col(c)).limit(64).collect().map(_.get(0).toString)
      if (values.isEmpty) d.withColumn(c, coalesce(col(c), lit("∅")))
      else {
        val rowHash = xxhash64(d.columns.map(col) :+ lit(seed + c.hashCode): _*)
        val pick: Column =
          element_at(array(values.map(lit): _*),
                     (pmod(rowHash, lit(values.length.toLong)) + 1).cast(IntegerType))
        d.withColumn(c, coalesce(col(c), pick))
      }
    }
  }

  /** Full preparation of a joined table: impute `featureCols`, then
    * binarize its categoricals. Returns (prepared df, the numeric features
    * followed by the indicator columns, all doubles).
    */
  def prepare(df: DataFrame, featureCols: Seq[String], seed: Long = 7L): (DataFrame, Seq[String]) = {
    val cats   = categoricalCols(df, featureCols)
    val binned = binarize(impute(df, featureCols, seed), cats)
    val indicators = binned.columns.filter(c => cats.exists(s => c.startsWith(s + "__is_")))
    (binned, (numericCols(df, featureCols) ++ indicators).distinct)
  }
}
