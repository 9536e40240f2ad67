package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.SynthWorlds
import repro.fs.{FeatureSelector, FeatureSelectors, Rankers, Rifs}

/** End-to-end ARDA on a small world: the augmented model must beat the
  * baseline, signal tables must be discovered, and every configuration
  * axis (grouping, TR filter, sketch coreset) must run.
  */
class ArdaSpec extends SparkSpec {

  // A compact hard-key world: cheap enough for unit tests.
  private def miniWorld = {
    val w = SynthWorlds.schoolL(spark, nTables = 10)
    w
  }

  private val fastRifs = new FeatureSelectors.RifsSelector(
    Rifs.RifsConfig(repeats = 3, thresholds = Seq(0.5, 1.0)))

  private def cfg = ArdaConfig(coresetSize = 500)

  test("pipeline plans, filters and batches candidates") {
    val p = new ArdaPipeline(miniWorld.task, cfg)
    try {
      assert(p.planned.size == 10)
      assert(p.batches.nonEmpty)
      assert(p.batches.flatten.size == 10)
    } finally p.close()
  }

  test("KeepAll augmentation beats the baseline on a signal-rich world") {
    val r = Arda.run(miniWorld.task, cfg, FeatureSelectors.KeepAll)
    assert(r.augmentedScore > r.baselineScore,
           s"aug ${r.augmentedScore} vs base ${r.baselineScore}")
    assert(r.selected.nonEmpty)
  }

  test("RIFS augmentation beats the baseline and keeps signal tables") {
    val w = miniWorld
    val r = Arda.run(w.task, cfg, fastRifs)
    assert(r.augmentedScore > r.baselineScore,
           s"aug ${r.augmentedScore} vs base ${r.baselineScore}")
    assert(r.keptCandidates.exists(w.signalTables.contains),
           s"kept ${r.keptCandidates}, signal ${w.signalTables}")
  }

  test("random-forest selector discovers signal tables") {
    val w = miniWorld
    val r = Arda.run(w.task, cfg, new FeatureSelectors.Ranked(Rankers.RandomForestRanker))
    assert(r.keptCandidates.exists(w.signalTables.contains))
  }

  test("TR prefilter reduces candidate count and still runs") {
    val r = Arda.run(miniWorld.task, cfg.copy(trTau = Some(15.0)), FeatureSelectors.KeepAll)
    assert(r.nCandidatesAfterFilter < r.nCandidates)
    assert(r.augmentedScore > Double.MinValue)
  }

  test("table-join grouping produces one batch per candidate") {
    val p = new ArdaPipeline(miniWorld.task, cfg.copy(grouping = GroupingStrategy.TableJoin))
    try assert(p.batches.size == 10)
    finally p.close()
  }

  test("full materialization grouping produces a single batch") {
    val p = new ArdaPipeline(miniWorld.task, cfg.copy(grouping = GroupingStrategy.FullMaterialization))
    try assert(p.batches.size == 1)
    finally p.close()
  }

  test("sketch coreset strategy runs end to end") {
    val r = Arda.run(miniWorld.task, cfg.copy(coresetStrategy = CoresetStrategy.Sketch),
                     new FeatureSelectors.Ranked(Rankers.FTestRanker))
    assert(r.augmentedScore > Double.MinValue)
  }

  test("sketch coreset joins every base row and selects on the joined table's sketch") {
    val skCfg = cfg.copy(coresetStrategy = CoresetStrategy.Sketch)
    var seen = Vector.empty[DataFrame]
    val recorder = new FeatureSelector {
      val name = "recorder"
      def select(df: DataFrame, features: Seq[String], target: String,
                 task: TaskKind, seed: Long): Seq[String] = { seen :+= df; Nil }
    }
    def rows(df: DataFrame): Seq[String] =
      df.collect().toSeq.map(_.toSeq.map {
        case d: Double => f"$d%.6f"
        case x         => String.valueOf(x)
      }.mkString(",")).sorted
    val p = new ArdaPipeline(miniWorld.task, skCfg)
    try {
      val (_, frame, newFeats) = p.batchFrames.head
      assert(newFeats.nonEmpty)
      assert(frame.count() == p.baseFull.count())
      p.runSelector(recorder)
      val sketched = Coreset.sketch(frame, (p.baseFeats ++ newFeats).distinct, p.taskDef.target,
                                    p.taskDef.task, skCfg.coresetSize, skCfg.seed)
      assert(rows(seen.head) == rows(sketched))
    } finally p.close()
  }

  test("a sketch coreset is the cached base, not cached again") {
    val p = new ArdaPipeline(miniWorld.task, cfg.copy(coresetStrategy = CoresetStrategy.Sketch))
    try {
      p.baseFull
      assert(jobsIn("sketch-coreset")(p.coreset) == 0)
    } finally p.close()
  }

  test("fs time is measured and batches counted") {
    val r = Arda.run(miniWorld.task, cfg, new FeatureSelectors.Ranked(Rankers.FTestRanker))
    assert(r.fsSeconds > 0)
    assert(r.nBatches >= 1)
  }

  test("features joined on an alternate key reach the final estimate") {
    // `t` carries signal only when joined on its alternate key k2.
    val t = spark.range(0, 50, 1, 2).select(col("id").as("fk"), randn(21).as("x"))
    val base = spark.range(0, 400, 1, 4)
      .select(col("id"), (col("id") % 50).as("k1"), floor(rand(22) * 50).cast("long").as("k2"),
              randn(23).as("b"))
      .join(t.withColumnRenamed("fk", "k2"), "k2")
      .withColumn("y", col("x") * 3 + randn(24) * 0.1).drop("x")
    val task = AugTask("alt", base, "y", TaskKind.Regression, Seq(CandidateJoin("t", t,
      Seq(KeyPair("k1", "fk", KeyKind.Hard)), altKeys = Seq(Seq(KeyPair("k2", "fk", KeyKind.Hard))))))
    val r = Arda.run(task, cfg, FeatureSelectors.KeepAll)
    assert(r.keptCandidates.toSet == Set("t", "t__alt0"), s"kept ${r.keptCandidates}")
    assert(r.augmentedScore > r.baselineScore,
           s"aug ${r.augmentedScore} vs base ${r.baselineScore}")
  }

  // Taxi with 4 of its candidates: hourly (resampled), daily one-to-many, hourly noise, month noise.
  private def taxiSubset = {
    val w = SynthWorlds.taxi(spark)
    w.task.copy(candidates = w.task.candidates.filter(c =>
      Set("weather0", "events", "tnoise0", "mnoise0").contains(c.name)))
  }

  test("soft-join world runs end to end (taxi subset)") {
    val r = Arda.run(taxiSubset, cfg, new FeatureSelectors.Ranked(Rankers.RandomForestRanker))
    assert(r.augmentedScore > r.baselineScore,
           s"aug ${r.augmentedScore} vs base ${r.baselineScore}")
  }

  test("the soft-join final estimate runs one Spark job, its collect (taxi subset)") {
    val p = new ArdaPipeline(taxiSubset, cfg)
    try {
      p.batchFrames
      p.baselineScore
      // Planned candidates are already resampled: no granularity queries.
      val jobs = jobsIn("soft-final-estimate")(p.runSelector(FeatureSelectors.KeepAll))
      assert(jobs == 1, s"$jobs jobs")
    } finally p.close()
  }

  test("the final estimate runs one Spark job, its collect") {
    // At most 7 candidates: foldJoins makes no checkpoint.
    val p = new ArdaPipeline(SynthWorlds.schoolL(spark, nTables = 6).task, cfg)
    try {
      p.batchFrames
      p.baselineScore
      val jobs = jobsIn("final-estimate")(p.runSelector(FeatureSelectors.KeepAll))
      assert(jobs == 1, s"$jobs jobs")
    } finally p.close()
  }

  test("the final estimator trains on exactly the selected columns") {
    val t = spark.range(0, 40, 1, 2).select(col("id").as("fk"),
      element_at(array(lit("u"), lit("v"), lit("w")), (col("id") % 3 + 1).cast("int")).as("c"))
    val base = spark.range(0, 400, 1, 4)
      .select(col("id"), (col("id") % 40).as("k"), randn(31).as("b"), randn(32).as("y"))
    val task = AugTask("cat", base, "y", TaskKind.Regression,
                       Seq(CandidateJoin("t", t, Seq(KeyPair("k", "fk", KeyKind.Hard)))))
    val oneIndicator = new FeatureSelector {
      val name = "one indicator"
      def select(df: DataFrame, features: Seq[String], target: String,
                 task: TaskKind, seed: Long): Seq[String] = features.filter(_ == "t__c__is_1")
    }
    val p = new ArdaPipeline(task, cfg)
    try {
      val r = p.runSelector(oneIndicator)
      assert(r.selected == Seq("t__c__is_1"))
      assert(r.trainedOn == p.baseFeats ++ r.selected)
    } finally p.close()
  }
}
