package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.SynthWorlds
import repro.fs.{FeatureSelector, FeatureSelectors, Rankers}

/** Table 3: sketching vs uniform sampling on the regression datasets —
  * %-change of the final score when selection runs on a post-join
  * count-sketch instead of a uniform row sample.
  */
object Table3 {

  def methods: Seq[FeatureSelector] = Seq(
    new FeatureSelectors.RifsSelector(Harness.RifsBench),
    new FeatureSelectors.Ranked(new Rankers.SparseRegressionRanker()),
    new FeatureSelectors.Ranked(Rankers.FTestRanker),
    new FeatureSelectors.Ranked(Rankers.LassoRanker),
    new FeatureSelectors.Ranked(Rankers.MutualInfoRanker),
    new FeatureSelectors.Ranked(Rankers.ReliefRanker),
    FeatureSelectors.KeepAll,
    new FeatureSelectors.Ranked(Rankers.RandomForestRanker),
    FeatureSelectors.Forward,
  )

  def run(spark: SparkSession): Seq[String] = {
    val worlds = Seq("Taxi" -> SynthWorlds.taxi(spark), "Pickup" -> SynthWorlds.pickup(spark),
                     "Poverty" -> SynthWorlds.poverty(spark))
    for {
      (ds, world) <- worlds
      lines = {
        def scores(s: CoresetStrategy): Map[String, Double] =
          Harness.runSelectors(world, Harness.benchCfg.copy(coresetStrategy = s), methods)
            .map(r => r.method -> r.augmentedScore).toMap
        val uni = scores(CoresetStrategy.Uniform)
        val sk  = scores(CoresetStrategy.Sketch)
        methods.map { m =>
          val d = Harness.pctChange(TaskKind.Regression, sk(m.name), uni(m.name))
          f"$ds%-8s | ${m.name}%-20s | sketch vs uniform = ${Harness.pct(d)}"
        }
      }
      l <- lines
    } yield l
  }
}
