package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.fs.FeatureSelector
import repro.ml.Estimator

/** End-to-end ARDA (§3): coreset → join plan → batched join execution →
  * feature selection → final estimate on the augmented full base table.
  *
  * [[ArdaPipeline]] caches everything that does not depend on the feature
  * selector (coreset, plan, joined batches) so that the evaluation
  * harness can run many selectors over one prepared pipeline, as the
  * paper's Table 1 does.
  */
object Arda {

  /** Outcome of one ARDA run with a given selector; `trainedOn` lists the final estimator's columns. */
  final case class ArdaResult(
      dataset: String,
      method: String,
      baselineScore: Double,
      augmentedScore: Double,
      selected: Seq[String],
      keptCandidates: Seq[String],
      trainedOn: Seq[String],
      fsSeconds: Double,
      totalSeconds: Double,
      nCandidates: Int,
      nCandidatesAfterFilter: Int,
      nBatches: Int,
  )

  def run(taskDef: AugTask, cfg: ArdaConfig, selector: FeatureSelector): ArdaResult = {
    val p = new ArdaPipeline(taskDef, cfg)
    try p.runSelector(selector)
    finally p.close()
  }
}

/** Selector-independent ARDA state: prepared base, coreset, join plan and
  * per-batch joined frames (all cached), each with its fitted statistics.
  */
final class ArdaPipeline(val taskDef: AugTask, val cfg: ArdaConfig) {
  import Arda._

  private val id = taskDef.idCol
  private var cached = List.empty[DataFrame]
  /** Cache and count `df`, unless it is already cached (the Sketch coreset is `baseFull`). */
  private def cache(df: DataFrame): DataFrame =
    if (df.storageLevel != StorageLevel.NONE) df else { val c = df.cache(); c.count(); cached ::= c; c }

  /** Full base table, preprocessed. */
  lazy val (baseFull, baseFeats): (DataFrame, Seq[String]) = {
    val stats = Preprocess.fit(taskDef.base, taskDef.baseFeatureCols, cfg.seed)
    (cache(stats(taskDef.base)), stats.features)
  }

  /** The paper's baseline: the estimator on the (prepared) base table. */
  lazy val baselineScore: Double =
    Estimator.autoScore(baseFull, baseFeats, taskDef.target, taskDef.task, cfg.seed)

  /** Coreset of the prepared base table: the sampled rows, or every row
    * under Sketch, whose count-sketch is taken after each batch join.
    */
  lazy val coreset: DataFrame =
    cache(Coreset.build(baseFull, taskDef.target, taskDef.task, cfg))

  /** The coreset and its features: sampled from the prepared base. */
  lazy val coresetPrepared: (DataFrame, Seq[String]) = (coreset, baseFeats)

  lazy val planned: Seq[JoinPlan.PlannedJoin] = JoinPlan.plan(taskDef.base, taskDef.candidates)

  lazy val filtered: Seq[JoinPlan.PlannedJoin] =
    cfg.trTau.map(t => JoinPlan.trFilter(planned, t)).getOrElse(planned)

  lazy val batches: Seq[Seq[JoinPlan.PlannedJoin]] =
    JoinPlan.group(filtered, cfg.grouping, cfg.coresetSize)

  /** Fold many candidate joins, truncating lineage every few joins —
    * chaining 100+ left joins in one logical plan makes Catalyst analysis
    * quadratic, so we eagerly localCheckpoint periodically.
    */
  private def foldJoins(start: DataFrame, cands: Seq[CandidateJoin]): DataFrame =
    cands.zipWithIndex.foldLeft(start) { case (d, (c, i)) =>
      val j = JoinExec.join(d, c, cfg.softJoin, cfg.softTolerance, cfg.seed)
      if ((i + 1) % 8 == 0) j.localCheckpoint(true) else j
    }

  /** Each batch joined against the coreset (cached) and fitted on its new columns. */
  private lazy val batchJoins: Seq[(Seq[JoinPlan.PlannedJoin], DataFrame, Preprocess.Stats)] =
    batches.map { batch =>
      val joined = cache(foldJoins(coreset, batch.map(_.cand)))
      val newRaw = joined.columns.filterNot(coreset.columns.contains).toSeq
      (batch, joined, Preprocess.fit(joined, newRaw, cfg.seed))
    }

  /** Each batch's joined coreset prepared with its statistics: (batch,
    * frame keyed by id, new feature columns). Shared by all selectors.
    */
  lazy val batchFrames: Seq[(Seq[JoinPlan.PlannedJoin], DataFrame, Seq[String])] =
    batchJoins.map { case (batch, joined, stats) =>
      (batch, stats(joined).select((coreset.columns.toSeq ++ stats.features).distinct.map(col): _*),
       stats.features)
    }

  /** The planned candidate a prepared feature column came from. Columns
    * are `<candidate>__<col>[__is_k]` and alternate-key candidates are
    * named `<candidate>__alt<i>`, so the longest matching name wins.
    */
  def sourceOf(feature: String): Option[String] =
    planned.map(_.cand.name).filter(n => feature.startsWith(s"${n}__")).maxByOption(_.length)

  /** The *full* prepared base table with the tables that make the batch
    * features `feats` joined in and prepared as their batches were.
    */
  def augmentedBase(feats: Seq[String]): DataFrame = {
    val sources = feats.flatMap(sourceOf).toSet
    batchJoins.foldLeft(foldJoins(baseFull, filtered.map(_.cand).filter(c => sources(c.name)))) {
      case (d, (_, _, stats)) => stats.restrictedTo(feats)(d)
    }
  }

  /** Run feature selection batch-by-batch, then train the final estimator
    * on the augmented full base table.
    */
  def runSelector(selector: FeatureSelector): ArdaResult = {
    require(selector.supports(taskDef.task), s"${selector.name} does not support ${taskDef.task}")
    val t0 = System.nanoTime()
    var acc = coreset
    var kept = Vector.empty[String]
    var fsNanos = 0L
    for ((_, frame, newFeats) <- batchFrames if newFeats.nonEmpty) {
      val selDf =
        if (kept.isEmpty) frame
        else acc.select((col(id) +: kept.map(col)): _*).join(frame, Seq(id))
      val feats = (baseFeats ++ kept ++ newFeats).distinct
      // Sketch coresets apply *after* the join (§3.1): selection sees the
      // count-sketched rows, while batch assembly keeps the real rows.
      val selInput = Coreset.selectionInput(selDf, feats, taskDef.target, taskDef.task, cfg)
      val f0 = System.nanoTime()
      val sel = selector.select(selInput, feats, taskDef.target, taskDef.task, cfg.seed)
      fsNanos += System.nanoTime() - f0
      val keepNew = newFeats.filter(sel.toSet)
      if (keepNew.nonEmpty) {
        acc = selDf.select((acc.columns.toSeq ++ keepNew).distinct.map(col): _*)
        kept ++= keepNew
      }
    }

    // Final estimate (§3 "Final estimate"): retrain on exactly the
    // selected columns of the augmented full base table.
    val keptCands = kept.flatMap(sourceOf).distinct
    val trainedOn = baseFeats ++ kept
    val augScore =
      if (kept.isEmpty) baselineScore
      else Estimator.autoScore(augmentedBase(kept), trainedOn, taskDef.target, taskDef.task, cfg.seed)

    ArdaResult(
      dataset = taskDef.name,
      method = selector.name,
      baselineScore = baselineScore,
      augmentedScore = augScore,
      selected = kept,
      keptCandidates = keptCands,
      trainedOn = trainedOn,
      fsSeconds = fsNanos / 1e9,
      totalSeconds = (System.nanoTime() - t0) / 1e9,
      nCandidates = planned.size,
      nCandidatesAfterFilter = filtered.size,
      nBatches = batches.size,
    )
  }

  def close(): Unit = {
    cached.foreach(_.unpersist(blocking = false))
    cached = Nil
  }
}
