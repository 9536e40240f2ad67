package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Join execution (§4).
  *
  * Only LEFT joins are used: augmentation must preserve every base-table
  * row and add no rows. Every join takes one path:
  *   1. prefix the foreign payload columns with the candidate name;
  *   2. for a soft time key that is finer than the base key, truncate it
  *      to the base key's granularity (time resampling; every soft method
  *      but `HardUnmodified`);
  *   3. aggregate the foreign table to one row per join key (numeric →
  *      avg, others → min), which removes one-to-many matches and averages
  *      each resampled period — on a key that is already unique this only
  *      turns numeric payloads into doubles;
  *   4. left-join: on equal keys, or, for the nearest-neighbour soft
  *      methods, to the nearest foreign value (optionally interpolating
  *      between the two bracketing rows).
  *
  * Nearest-neighbour joins are expressed as a union + window ("as-of join"): base and
  * foreign rows are interleaved, sorted by the soft key (partitioned by
  * any hard key components of a composite key), and `last/first(...,
  * ignoreNulls)` recover the bracketing foreign payloads for every base
  * row in one pass — no cross join.
  */
object JoinExec {

  /** Prefix applied to foreign payload columns: `<candidate>__<column>`. */
  def prefixed(cand: String, col: String): String = s"${cand}__$col"

  private val TimeGrans = Seq(86400.0, 3600.0, 60.0, 1.0)

  /** Infer the resolution of a numeric (epoch-seconds) key: the coarsest
    * granularity from day/hour/minute/second that all values align to, or
    * None for keys that are not time-like multiples of a second.
    */
  def inferGranularity(df: DataFrame, keyCol: String): Option[Double] = {
    val c = col(keyCol).cast(DoubleType)
    val aggs = TimeGrans.map(g => max(abs(pmod(c, lit(g)))).as(s"g$g"))
    val row = df
      .filter(c.isNotNull)
      .agg(aggs.head, aggs.tail: _*)
      .collect()
    row.headOption.flatMap { r =>
      TimeGrans.zipWithIndex
        .find { case (_, i) => !r.isNullAt(i) && r.getDouble(i) < 1e-6 }
        .map(_._1)
    }
  }

  /** Aggregate `df` grouped by `keyCols`: numeric columns → avg, others →
    * min (deterministic representative). `join` applies it once to every
    * foreign table, after any time-key truncation.
    */
  def aggregateByKeys(df: DataFrame, keyCols: Seq[String]): DataFrame = {
    val payload = df.columns.filterNot(keyCols.contains)
    val numeric = df.schema.fields.collect { case StructField(n, _: NumericType, _, _) => n }.toSet
    val aggs = payload.map { c =>
      if (numeric(c)) avg(col(c)).as(c) else min(col(c)).as(c)
    }
    if (aggs.isEmpty) df.select(keyCols.map(col): _*).distinct()
    else df.groupBy(keyCols.map(col): _*).agg(aggs.head, aggs.tail: _*)
  }

  /** Execute one candidate join against `left`, returning `left` plus the
    * candidate's payload columns prefixed with `<name>__`.
    */
  def join(left: DataFrame, cand: CandidateJoin,
           method: SoftJoinMethod = SoftJoinMethod.TwoWayNearestNeighbour,
           tolerance: Option[Double] = None,
           seed: Long = 11L): DataFrame = {
    val hardKeys = cand.keys.filter(_.kind == KeyKind.Hard)
    val softKeys = cand.keys.filter(_.kind == KeyKind.Soft)
    require(softKeys.size <= 1, s"at most one soft key component supported, got ${softKeys.size}")
    val keys = hardKeys ++ softKeys
    val keyCols = keys.map(_.foreignCol)

    // Rename payload columns up front so nothing collides with `left`.
    val payloadCols = cand.table.columns.filterNot(keyCols.contains).toSeq
    val renamed = payloadCols.foldLeft(cand.table) { (d, c) =>
      d.withColumnRenamed(c, prefixed(cand.name, c))
    }
    val payload = payloadCols.map(prefixed(cand.name, _))

    val aligned = softKeys.headOption match {
      case Some(soft) if method != SoftJoinMethod.HardUnmodified => truncateToBase(left, renamed, soft)
      case _ => renamed
    }
    // One row per foreign key: removes one-to-many matches and, after
    // truncation, averages each base-granularity period (§4).
    val foreign = aggregateByKeys(aligned, keyCols)

    (softKeys.headOption, method) match {
      case (Some(soft), SoftJoinMethod.NearestNeighbour | SoftJoinMethod.TwoWayNearestNeighbour) =>
        asOfJoin(left, foreign, hardKeys, soft, payload,
                 twoWay = method == SoftJoinMethod.TwoWayNearestNeighbour, tolerance, seed)
      case _ =>
        val cond = keys.map(k => left(k.baseCol) === foreign(k.foreignCol)).reduce(_ && _)
        left.join(foreign, cond, "left")
          .select(left.columns.map(left(_)) ++ payload.map(foreign(_)): _*)
    }
  }

  /** Time resampling (§4): when the foreign soft key is finer than the base
    * key, truncate it to the base key's granularity.
    */
  private def truncateToBase(left: DataFrame, foreign: DataFrame, soft: KeyPair): DataFrame =
    (inferGranularity(left, soft.baseCol), inferGranularity(foreign, soft.foreignCol)) match {
      case (Some(bg), Some(fg)) if fg < bg =>
        foreign.withColumn(
          soft.foreignCol,
          (floor(col(soft.foreignCol).cast(DoubleType) / bg) * bg).cast(DoubleType))
      case _ => foreign
    }

  /** Union-and-window as-of join. For every base row we recover the
    * bracketing foreign rows (largest foreign key ≤ x and smallest ≥ x)
    * and either pick the nearest (NN) or linearly interpolate (two-way NN,
    * with x = λ·y_low + (1−λ)·y_high ⇒ λ = (y_high−x)/(y_high−y_low)).
    * Categorical payloads are picked uniformly between the two bracketing
    * rows (§4) by a seeded hash of the base row, at any partitioning.
    */
  private def asOfJoin(left: DataFrame, foreign: DataFrame,
                       hardKeys: Seq[KeyPair], soft: KeyPair,
                       payload: Seq[String], twoWay: Boolean,
                       tolerance: Option[Double], seed: Long): DataFrame = {
    val numeric = foreign.schema.fields.collect { case StructField(n, _: NumericType, _, _) => n }.toSet

    val leftCols = left.columns.toSeq
    // Shared schema: marker, hard keys, soft key (double), left payloads, foreign payloads.
    val bSide = left
      .withColumn("__isbase", lit(1))
      .withColumn("__k", col(soft.baseCol).cast(DoubleType))
    val bAligned = payload.foldLeft(bSide)((d, c) => d.withColumn(c, lit(null).cast(foreign.schema(c).dataType)))

    val fSide0 = foreign
      .withColumn("__isbase", lit(0))
      .withColumn("__k", col(soft.foreignCol).cast(DoubleType))
    // Rename foreign hard-key cols to the base names so the union lines up.
    val fSide1 = hardKeys.foldLeft(fSide0)((d, k) =>
      if (k.foreignCol == k.baseCol) d else d.withColumnRenamed(k.foreignCol, k.baseCol))
    val fAligned = leftCols.filterNot(c => hardKeys.exists(_.baseCol == c)).foldLeft(fSide1) {
      (d, c) => d.withColumn(c, lit(null).cast(left.schema(c).dataType))
    }

    val unionCols = (Seq("__isbase", "__k") ++ hardKeys.map(_.baseCol) ++
      leftCols.filterNot(c => hardKeys.exists(_.baseCol == c)) ++ payload).distinct
    val u = bAligned.select(unionCols.map(col): _*)
      .unionByName(fAligned.select(unionCols.map(col): _*))

    val part = hardKeys.map(k => col(k.baseCol))
    // Foreign rows sort before base rows at equal keys, so an exact match
    // is visible as the "previous" row with distance 0.
    val ord  = Seq(col("__k").asc, col("__isbase").asc)
    val wPrev = (if (part.nonEmpty) Window.partitionBy(part: _*) else Window.partitionBy())
      .orderBy(ord: _*).rowsBetween(Window.unboundedPreceding, Window.currentRow)
    val wNext = (if (part.nonEmpty) Window.partitionBy(part: _*) else Window.partitionBy())
      .orderBy(col("__k").desc, col("__isbase").asc)
      .rowsBetween(Window.unboundedPreceding, Window.currentRow)

    def fOnly(c: Column): Column = when(col("__isbase") === 0, c)

    var d = u
      .withColumn("__kprev", last(fOnly(col("__k")), ignoreNulls = true).over(wPrev))
      .withColumn("__knext", last(fOnly(col("__k")), ignoreNulls = true).over(wNext))
    for (p <- payload) {
      d = d.withColumn(s"__prev_$p", last(fOnly(col(p)), ignoreNulls = true).over(wPrev))
           .withColumn(s"__next_$p", last(fOnly(col(p)), ignoreNulls = true).over(wNext))
    }
    d = d.filter(col("__isbase") === 1)

    val x     = col("__k")
    val dPrev = when(col("__kprev").isNotNull, abs(x - col("__kprev")))
    val dNext = when(col("__knext").isNotNull, abs(x - col("__knext")))
    val withinTol: Column => Column = dist =>
      tolerance.map(t => dist <= lit(t)).getOrElse(lit(true))
    val hashPicksPrev = pmod(xxhash64(leftCols.map(col) :+ lit(seed): _*), lit(2L)) === 0

    val out = payload.foldLeft(d) { (dd, p) =>
      val prevV = col(s"__prev_$p"); val nextV = col(s"__next_$p")
      val value: Column =
        if (!twoWay) {
          // NN: closest of the bracketing rows, nulls beyond tolerance.
          val pickPrev = col("__knext").isNull ||
            (col("__kprev").isNotNull && dPrev <= dNext)
          when(pickPrev && col("__kprev").isNotNull && withinTol(dPrev), prevV)
            .when(!pickPrev && col("__knext").isNotNull && withinTol(dNext), nextV)
        } else {
          val lam = when(col("__knext") === col("__kprev"), lit(1.0))
            .otherwise((col("__knext") - x) / (col("__knext") - col("__kprev")))
          val both = col("__kprev").isNotNull && col("__knext").isNotNull
          if (numeric(p)) {
            when(both, lam * prevV + (lit(1.0) - lam) * nextV)
              .when(col("__kprev").isNotNull && withinTol(dPrev), prevV)
              .when(col("__knext").isNotNull && withinTol(dNext), nextV)
          } else {
            // Categorical: uniform pick between the bracketing rows (§4).
            when(both, when(hashPicksPrev, prevV).otherwise(nextV))
              .when(col("__kprev").isNotNull && withinTol(dPrev), prevV)
              .when(col("__knext").isNotNull && withinTol(dNext), nextV)
          }
        }
      dd.withColumn(p, value)
    }
    out.select((leftCols ++ payload).map(col): _*)
  }
}
