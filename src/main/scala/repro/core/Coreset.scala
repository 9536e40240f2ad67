package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Coreset constructions (§3.1): uniform sampling, stratified sampling
  * (per label, for classification), and an OSNAP-style count-sketch of
  * rows. Sampling runs *before* joins (rows keep their key values);
  * sketching mixes row values and therefore only runs *after* the join
  * (see [[sketch]]), per the paper.
  */
object Coreset {

  /** A seeded hash of every column of the row: the rank by which both
    * samplers keep rows, so a sample does not depend on partitioning.
    */
  private def rowHash(df: DataFrame, seed: Long): Column =
    xxhash64(df.columns.toSeq.map(col) :+ lit(seed): _*)

  /** Uniform sample: the min(n, `size`) rows with the smallest row hash. */
  def uniform(df: DataFrame, size: Int, seed: Long): DataFrame =
    df.orderBy(rowHash(df, seed)).limit(size)

  /** Stratified sample: the ⌈size·n_label/n⌉ rows with the smallest row
    * hash per `target` label, so no label is overlooked (§3.1), then the
    * `size` smallest of those.
    */
  def stratified(df: DataFrame, target: String, size: Int, seed: Long): DataFrame = {
    val n = df.count()
    val byLabel = Window.partitionBy(col(target))
    df.withColumn("__h", rowHash(df, seed))
      .withColumn("__r", row_number().over(byLabel.orderBy(col("__h"))))
      .withColumn("__nl", count(lit(1)).over(byLabel))
      .filter(col("__r") <= ceil(lit(size.toLong) * col("__nl") / lit(n)))
      .orderBy(col("__h")).limit(size)
      .drop("__h", "__r", "__nl")
  }

  /** The rows that are joined before selection: a uniform or (for
    * classification) stratified sample, or for Sketch every row, since a
    * sketch mixes row values and is taken after the join ([[selectionInput]]).
    */
  def build(df: DataFrame, target: String, task: TaskKind, cfg: ArdaConfig): DataFrame =
    cfg.coresetStrategy match {
      case CoresetStrategy.Stratified if task == TaskKind.Classification =>
        stratified(df, target, cfg.coresetSize, cfg.seed)
      case CoresetStrategy.Sketch => df
      case _ =>
        uniform(df, cfg.coresetSize, cfg.seed)
    }

  /** What a selector sees of a joined [[build]] output: for Sketch its
    * `coresetSize`-row count-sketch, S·A over the joined table (§3.1);
    * otherwise the sampled rows themselves.
    */
  def selectionInput(df: DataFrame, features: Seq[String], target: String, task: TaskKind,
                     cfg: ArdaConfig): DataFrame =
    if (cfg.coresetStrategy == CoresetStrategy.Sketch)
      sketch(df, features, target, task, cfg.coresetSize, cfg.seed)
    else df

  /** OSNAP / count-sketch of rows (Definitions 1–2): seeded row hashes give every
    * row one of `rows` buckets and a ±1 sign (at any partitioning); bucket sums are
    * taken per feature — a sparse Π with one nonzero per column of Πᵀ.
    * For classification the sketch is applied independently within each
    * label stratum (the paper's analogue of stratified sampling), so the
    * sketched rows carry a well-defined label. For regression the target
    * column is sketched alongside the features.
    *
    * Expressed as a single groupBy aggregation — the natural distributed
    * form of S·A.
    */
  def sketch(df: DataFrame, features: Seq[String], target: String, task: TaskKind,
             rows: Int, seed: Long): DataFrame = {
    // `rows` is the total sketch size; per-stratum sketches split it
    // across the labels so classification output is still ~`rows` rows.
    val perBucket = task match {
      case TaskKind.Classification =>
        val k = df.select(col(target)).distinct().count().toInt
        math.max(2, rows / math.max(1, k))
      case TaskKind.Regression => rows
    }
    val bucket = pmod(rowHash(df, seed), lit(perBucket.toLong)).cast(IntegerType)
    val sign   = when(pmod(rowHash(df, seed + 1), lit(2L)) === 0, -1.0).otherwise(1.0)
    val tagged = df.withColumn("__bkt", bucket).withColumn("__sgn", sign)
    val sums   = features.map(c => sum(col("__sgn") * col(c).cast(DoubleType)).as(c))
    task match {
      case TaskKind.Classification =>
        // Per-stratum sketch: group by (label, bucket); label survives.
        tagged.groupBy(col(target), col("__bkt"))
          .agg(sums.head, sums.tail: _*)
          .drop("__bkt")
      case TaskKind.Regression =>
        val t = sum(col("__sgn") * col(target).cast(DoubleType)).as(target)
        tagged.groupBy(col("__bkt"))
          .agg(t, sums: _*)
          .drop("__bkt")
    }
  }
}
