package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.SynthWorlds
import repro.fs.{FeatureSelector, FeatureSelectors, Rankers}

/** Table 5: table-grouping strategies — change in final score of
  * table-join and full-materialization relative to budget-join, for four
  * selectors on four datasets.
  */
object Table5 {

  def methods: Seq[FeatureSelector] = Seq(
    new FeatureSelectors.RifsSelector(Harness.RifsBench),
    FeatureSelectors.Forward,
    new FeatureSelectors.Ranked(Rankers.RandomForestRanker),
    new FeatureSelectors.Ranked(new Rankers.SparseRegressionRanker()),
  )

  def run(spark: SparkSession): Seq[String] = {
    val worlds = Seq("Taxi" -> SynthWorlds.taxi(spark), "Pickup" -> SynthWorlds.pickup(spark),
                     "Poverty" -> SynthWorlds.poverty(spark), "School(S)" -> SynthWorlds.schoolS(spark))
    for {
      (ds, world) <- worlds
      lines = {
        def scores(g: GroupingStrategy): Map[String, Double] =
          Harness.runSelectors(world, Harness.benchCfg.copy(grouping = g), methods)
            .map(r => r.method -> r.augmentedScore).toMap
        val budget  = scores(GroupingStrategy.BudgetJoin)
        val table   = scores(GroupingStrategy.TableJoin)
        val fullmat = scores(GroupingStrategy.FullMaterialization)
        val task = world.task.task
        methods.map { m =>
          val dT = Harness.pctChange(task, table(m.name), budget(m.name))
          val dF = Harness.pctChange(task, fullmat(m.name), budget(m.name))
          f"$ds%-10s | ${m.name}%-20s | table=${Harness.pct(dT)}%-9s | fullmat=${Harness.pct(dF)}"
        }
      }
      l <- lines
    } yield l
  }
}
