package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

/** Join planning (§4): priority scoring of candidates, the Tuple-Ratio
  * prefilter of Kumar et al. [42], time resampling of soft keys, and
  * table grouping into batches that respect the feature budget.
  */
object JoinPlan {

  /** A candidate annotated with planning statistics. `cand` is the
    * candidate as it is joined ([[resampled]]); the statistics are of the
    * table as given. `nFeatures` counts the feature columns its payload
    * becomes when prepared ([[Preprocess.preparedWidth]]), read from the
    * schema.
    */
  final case class PlannedJoin(cand: CandidateJoin, score: Double,
                               nFeatures: Int, tupleRatio: Double)

  /** Multiple-option keys (§4): ARDA joins on each key option separately,
    * so expand every alternative into its own candidate.
    */
  def expandAlternatives(cands: Seq[CandidateJoin]): Seq[CandidateJoin] =
    cands.flatMap { c =>
      c +: c.altKeys.zipWithIndex.map { case (ks, i) =>
        c.copy(name = s"${c.name}__alt$i", keys = ks, altKeys = Nil)
      }
    }

  /** Intersection score: the fraction of distinct base hard-key tuples
    * that appear in the foreign table — one left join to its flagged
    * distinct keys, counted in one aggregation. Pure soft-key candidates
    * score 1.0 (a nearest-neighbour join always matches something); the
    * discovery system's own score, if present, takes precedence (§4).
    */
  def intersectionScore(base: DataFrame, cand: CandidateJoin): Double = {
    val hard = cand.keys.filter(_.kind == KeyKind.Hard)
    if (hard.isEmpty) 1.0
    else {
      val b = base.select(hard.map(k => col(k.baseCol)): _*).distinct()
      val f = cand.table.select(hard.map(k => col(k.foreignCol).as(k.baseCol)): _*).distinct()
        .withColumn("__hit", lit(true))
      val counts = b.join(f, hard.map(_.baseCol), "left").agg(count(lit(1)), count(col("__hit"))).head()
      if (counts.getLong(0) == 0) 0.0 else counts.getLong(1).toDouble / counts.getLong(0)
    }
  }

  /** Tuple Ratio (§7.3 / [42]): n_S / n_R with n_S = base-table rows and
    * n_R = the size of the foreign-key domain in the foreign table.
    */
  def tupleRatio(baseRows: Long, cand: CandidateJoin): Double = {
    val nR = cand.table
      .select(cand.keys.map(k => col(k.foreignCol)): _*)
      .distinct()
      .count()
    if (nR == 0) Double.PositiveInfinity else baseRows.toDouble / nR
  }

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

  /** Time resampling (§4): `cand` with its soft foreign key truncated to
    * `baseGrain`, the base key's granularity, when the foreign key is
    * finer (inferred only when `baseGrain` is known); otherwise `cand`.
    */
  def resampled(cand: CandidateJoin, baseGrain: Option[Double]): CandidateJoin =
    (cand.keys.find(_.kind == KeyKind.Soft), baseGrain) match {
      case (Some(soft), Some(bg)) if inferGranularity(cand.table, soft.foreignCol).exists(_ < bg) =>
        val fk = col(soft.foreignCol).cast(DoubleType)
        cand.copy(table = cand.table.withColumn(soft.foreignCol, (floor(fk / bg) * bg).cast(DoubleType)))
      case _ => cand
    }

  /** Score, annotate and resample all candidates against the base table,
    * inferring each distinct soft base column's granularity once.
    */
  def plan(base: DataFrame, cands: Seq[CandidateJoin]): Seq[PlannedJoin] = {
    val baseRows = base.count()
    val expanded = expandAlternatives(cands)
    val baseGrain = expanded.flatMap(_.keys).filter(_.kind == KeyKind.Soft).map(_.baseCol).distinct
      .map(c => c -> inferGranularity(base, c)).toMap
    expanded.map { c =>
      val score = c.discoveryScore.getOrElse(intersectionScore(base, c))
      val nFeat = c.table.schema.fields.filterNot(f => c.keys.exists(_.foreignCol == f.name))
        .map(f => Preprocess.preparedWidth(f.dataType)).sum
      val grain = c.keys.find(_.kind == KeyKind.Soft).flatMap(k => baseGrain(k.baseCol))
      PlannedJoin(resampled(c, grain), score, nFeat, tupleRatio(baseRows, c))
    }
  }

  /** TR-rule prefilter: drop tables whose tuple ratio is at least τ (the
    * decision rule of [42]: such joins are safe to avoid).
    */
  def trFilter(planned: Seq[PlannedJoin], tau: Double): Seq[PlannedJoin] =
    planned.filter(_.tupleRatio < tau)

  /** Group candidates into join batches (§4 "Table grouping"):
    *  - TableJoin: one table per batch, priority order;
    *  - BudgetJoin: as many tables per batch as fit `budget` features
    *    (a single table wider than the budget ships alone);
    *  - FullMaterialization: all tables in one batch.
    */
  def group(planned: Seq[PlannedJoin], strategy: GroupingStrategy,
            budget: Int): Seq[Seq[PlannedJoin]] = {
    val ordered = planned.sortBy(p => (-p.score, p.cand.name))
    strategy match {
      case GroupingStrategy.TableJoin           => ordered.map(Seq(_))
      case GroupingStrategy.FullMaterialization => if (ordered.isEmpty) Nil else Seq(ordered)
      case GroupingStrategy.BudgetJoin =>
        val batches = Seq.newBuilder[Seq[PlannedJoin]]
        var cur = Vector.empty[PlannedJoin]
        var used = 0
        for (p <- ordered) {
          if (p.nFeatures >= budget && cur.isEmpty) {
            batches += Seq(p) // wider than the budget: ships alone
          } else if (used + p.nFeatures > budget && cur.nonEmpty) {
            batches += cur
            cur = Vector(p); used = p.nFeatures
          } else {
            cur = cur :+ p; used += p.nFeatures
          }
        }
        if (cur.nonEmpty) batches += cur
        batches.result()
    }
  }
}
