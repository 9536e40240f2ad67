package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.{MicroBench, SynthWorlds}
import repro.fs.{FeatureSelector, FeatureSelectors, Rankers}

/** Table 2: coreset strategies for classification datasets — accuracy
  * change of stratified sampling and sketching over uniform sampling, for
  * the paper's nine methods, on School (S) (full ARDA pipeline), Digits
  * and Kraken (micro protocol).
  */
object Table2 {

  def methods: Seq[FeatureSelector] = Seq(
    new FeatureSelectors.Ranked(Rankers.FTestRanker),
    new FeatureSelectors.Ranked(Rankers.MutualInfoRanker),
    new FeatureSelectors.Ranked(Rankers.RandomForestRanker),
    new FeatureSelectors.Ranked(new Rankers.SparseRegressionRanker()),
    FeatureSelectors.KeepAll,
    new FeatureSelectors.RifsSelector(Harness.RifsBench),
    FeatureSelectors.Forward,
    new FeatureSelectors.Ranked(Rankers.LinearSVCRanker),
    new FeatureSelectors.Ranked(Rankers.ReliefRanker),
  )

  private val strategies: Seq[CoresetStrategy] = Seq(
    CoresetStrategy.Uniform, CoresetStrategy.Stratified, CoresetStrategy.Sketch)

  /** (method → strategy → score) for School (S), via the ARDA pipeline. */
  def schoolScores(spark: SparkSession): Map[String, Map[CoresetStrategy, Double]] = {
    val world = SynthWorlds.schoolS(spark)
    val results = strategies.map { s =>
      val cfg = Harness.benchCfg.copy(coresetStrategy = s)
      val rs = Harness.runSelectors(world, cfg, methods)
      s -> rs.map(r => r.method -> r.augmentedScore).toMap
    }.toMap
    methods.map(m => m.name -> strategies.map(s => s -> results(s)(m.name)).toMap).toMap
  }

  /** (method → strategy → score) for a micro dataset. */
  def microScores(micro: MicroBench.Micro): Map[String, Map[CoresetStrategy, Double]] = {
    val noisy = MicroBench.withNoise(micro)
    val full = noisy.df.cache(); full.count()
    try methods.map { m =>
      m.name -> strategies.map { s =>
        val (score, _, _) = Harness.runMicro(noisy, m, s, 600, seed = 13L)
        s -> score
      }.toMap
    }.toMap
    finally full.unpersist(false)
  }

  def run(spark: SparkSession): Seq[String] = {
    val datasets: Seq[(String, Map[String, Map[CoresetStrategy, Double]])] = Seq(
      "School (S)" -> schoolScores(spark),
      "Digits"     -> microScores(MicroBench.digits(spark)),
      "Kraken"     -> microScores(MicroBench.kraken(spark)),
    )
    for {
      (ds, byMethod) <- datasets
      m <- methods
    } yield {
      val sc = byMethod(m.name)
      val u = sc(CoresetStrategy.Uniform)
      val dStrat  = Harness.pctChange(TaskKind.Classification, sc(CoresetStrategy.Stratified), u)
      val dSketch = Harness.pctChange(TaskKind.Classification, sc(CoresetStrategy.Sketch), u)
      f"$ds%-11s | ${m.name}%-20s | stratified=${Harness.pct(dStrat)}%-9s | sketch=${Harness.pct(dSketch)}"
    }
  }
}
