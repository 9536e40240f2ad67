package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Join execution (§4).
  *
  * Only LEFT joins are used: augmentation must preserve every base-table
  * row and add no rows. Every join takes one path and runs no Spark job:
  *   1. prefix the foreign payload columns with the candidate name;
  *   2. aggregate the foreign table to one row per join key (numeric →
  *      avg, others → min), which removes one-to-many matches and averages
  *      each resampled period — on a key that is already unique this only
  *      turns numeric payloads into doubles;
  *   3. left-join: on equal keys, or, for the nearest-neighbour soft
  *      methods, to the nearest foreign value (optionally interpolating
  *      between the two bracketing rows).
  *
  * Time resampling happens once, in [[JoinPlan.plan]]: a planned candidate
  * arrives resampled, an unplanned one is joined on its keys as they are.
  *
  * Nearest-neighbour joins are expressed as a union + window ("as-of join"):
  * base rows and foreign rows, each side carried as one struct, are
  * interleaved and sorted by the soft key (partitioned by any hard key
  * components of a composite key). One `last(foreign struct, ignoreNulls)`
  * per direction recovers the whole bracketing foreign row, key and
  * payload together, for every base row in one pass — no cross join.
  */
object JoinExec {

  /** Prefix applied to foreign payload columns: `<candidate>__<column>`. */
  def prefixed(cand: String, col: String): String = s"${cand}__$col"

  /** Aggregate `df` grouped by `keyCols`: numeric columns → avg, others →
    * min (deterministic representative). `join` applies it once to every
    * foreign table.
    */
  def aggregateByKeys(df: DataFrame, keyCols: Seq[String]): DataFrame = {
    val payload = df.columns.toSeq.filterNot(keyCols.contains)
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
    val payloadCols = cand.table.columns.toSeq.filterNot(keyCols.contains)
    val payload = payloadCols.map(prefixed(cand.name, _))
    val renamed = cand.table.withColumnsRenamed(payloadCols.zip(payload).toMap)

    // One row per foreign key: removes one-to-many matches and, on a
    // resampled candidate, averages each base-granularity period (§4).
    val foreign = aggregateByKeys(renamed, keyCols)

    (softKeys.headOption, method) match {
      case (Some(soft), SoftJoinMethod.NearestNeighbour | SoftJoinMethod.TwoWayNearestNeighbour) =>
        asOfJoin(left, foreign, hardKeys, soft, payload,
                 twoWay = method == SoftJoinMethod.TwoWayNearestNeighbour, tolerance, seed)
      case _ =>
        val cond = keys.map(k => left(k.baseCol) === foreign(k.foreignCol)).reduce(_ && _)
        left.join(foreign, cond, "left")
          .select(left.columns.toSeq.map(left(_)) ++ payload.map(foreign(_)): _*)
    }
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

    // Each side of the union: the hard keys under their base names, the
    // soft key as a double, a base marker, and one struct — the base row
    // (`__b`) or the foreign key and payload (`__f`).
    val bSide = left.select(hardKeys.map(k => col(k.baseCol)) ++ Seq(
      col(soft.baseCol).cast(DoubleType).as("__k"), lit(1).as("__isbase"),
      struct(leftCols.map(col): _*).as("__b")): _*)
    val fk = col(soft.foreignCol).cast(DoubleType)
    val fSide = foreign.select(hardKeys.map(k => col(k.foreignCol).as(k.baseCol)) ++ Seq(
      fk.as("__k"), lit(0).as("__isbase"),
      struct(fk.as("k") +: payload.map(col): _*).as("__f")): _*)

    // Foreign rows sort before base rows at equal keys, so an exact match
    // is the previous row at distance 0. Both frames end at the current
    // row: a frame to UNBOUNDED FOLLOWING is recomputed for every row.
    def upTo(order: Column) = Window.partitionBy(hardKeys.map(k => col(k.baseCol)): _*)
      .orderBy(order, col("__isbase").asc)
      .rowsBetween(Window.unboundedPreceding, Window.currentRow)
    val joined = bSide.unionByName(fSide, allowMissingColumns = true)
      .withColumn("__prev", last(col("__f"), ignoreNulls = true).over(upTo(col("__k").asc)))
      .withColumn("__next", last(col("__f"), ignoreNulls = true).over(upTo(col("__k").desc)))
      .filter(col("__isbase") === 1)

    val (x, kPrev, kNext) = (col("__k"), col("__prev.k"), col("__next.k"))
    val (hasPrev, hasNext) = (kPrev.isNotNull, kNext.isNotNull)
    val (dPrev, dNext) = (abs(x - kPrev), abs(x - kNext))
    val withinTol: Column => Column = dist =>
      tolerance.map(t => dist <= lit(t)).getOrElse(lit(true))
    val hashPicksPrev =
      pmod(xxhash64(leftCols.map(col("__b").getField) :+ lit(seed): _*), lit(2L)) === 0

    def value(p: String): Column = {
      val (prevV, nextV) = (col("__prev").getField(p), col("__next").getField(p))
      if (!twoWay) {
        // NN: closest of the bracketing rows, nulls beyond tolerance.
        val pickPrev = !hasNext || (hasPrev && dPrev <= dNext)
        when(pickPrev && hasPrev && withinTol(dPrev), prevV)
          .when(!pickPrev && hasNext && withinTol(dNext), nextV)
      } else {
        val lam = when(kNext === kPrev, lit(1.0)).otherwise((kNext - x) / (kNext - kPrev))
        // Categorical: uniform pick between the bracketing rows (§4).
        val between =
          if (numeric(p)) lam * prevV + (lit(1.0) - lam) * nextV
          else when(hashPicksPrev, prevV).otherwise(nextV)
        when(hasPrev && hasNext, between)
          .when(hasPrev && withinTol(dPrev), prevV)
          .when(hasNext && withinTol(dNext), nextV)
      }
    }
    joined.select(leftCols.map(c => col("__b").getField(c).as(c)) ++
                  payload.map(p => value(p).as(p)): _*)
  }
}
