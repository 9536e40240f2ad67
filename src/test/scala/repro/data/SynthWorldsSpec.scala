package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._

class SynthWorldsSpec extends SparkSpec {

  private lazy val taxi = SynthWorlds.taxi(spark)
  private lazy val pickup = SynthWorlds.pickup(spark)
  private lazy val poverty = SynthWorlds.poverty(spark)
  private lazy val schoolS = SynthWorlds.schoolS(spark)

  test("taxi world has the paper's candidate count") {
    assert(taxi.task.candidates.size == 29)
    assert(taxi.signalTables.size == 4)
  }

  test("pickup world has the paper's candidate count") {
    assert(pickup.task.candidates.size == 23)
    assert(pickup.signalTables.size == 3)
  }

  test("poverty world has the paper's candidate count") {
    assert(poverty.task.candidates.size == 39)
    assert(poverty.signalTables.size == 5)
  }

  test("school (S) has 16 candidates, school (L) scales to the requested size") {
    assert(schoolS.task.candidates.size == 16)
    val l = SynthWorlds.schoolL(spark, nTables = 40)
    assert(l.task.candidates.size == 40)
  }

  test("base tables carry a unique id column") {
    for (w <- Seq(taxi, pickup, poverty, schoolS)) {
      val df = w.task.base
      assert(df.columns.contains(w.task.idCol))
      assert(df.select(w.task.idCol).distinct().count() == df.count())
    }
  }

  test("classification targets are balanced-ish binary labels") {
    val counts = schoolS.task.base.groupBy("passed").count().collect()
      .map(r => r.getDouble(0) -> r.getLong(1)).toMap
    assert(counts.keySet == Set(0.0, 1.0))
    val frac = counts(1.0).toDouble / counts.values.sum
    assert(frac > 0.3 && frac < 0.7, s"label fraction $frac")
  }

  test("taxi base time key has day granularity") {
    assert(JoinPlan.inferGranularity(taxi.task.base, "ts").contains(86400.0))
  }

  test("taxi signal tables are finer-grained than the base key") {
    val weather = taxi.task.candidates.find(_.name == "weather0").get
    assert(JoinPlan.inferGranularity(weather.table, "ts").contains(3600.0))
  }

  test("signal feature correlates with the target after joining") {
    val c = poverty.task.candidates.find(_.name == "census0").get
    val joined = JoinExec.join(poverty.task.base, c)
    val corr = joined.stat.corr("census0__sig", "poverty_rate")
    assert(math.abs(corr) > 0.25, s"corr $corr")
  }

  test("noise tables do not correlate with the target") {
    val c = poverty.task.candidates.find(_.name == "rnoise0").get
    val joined = JoinExec.join(poverty.task.base, c)
    val corr = joined.na.drop().stat.corr("rnoise0__n0", "poverty_rate")
    assert(math.abs(corr) < 0.1, s"corr $corr")
  }

  test("tuple-ratio structure matches the paper's removals for school (S)") {
    val planned = JoinPlan.plan(schoolS.task.base, schoolS.task.candidates)
    val removed = planned.size - JoinPlan.trFilter(planned, 15.0).size
    assert(removed == 2, s"removed $removed")
  }

  test("tuple-ratio structure matches the paper's removals for poverty") {
    val planned = JoinPlan.plan(poverty.task.base, poverty.task.candidates)
    val removed = planned.size - JoinPlan.trFilter(planned, 15.0).size
    assert(removed == 36, s"removed $removed")
  }

  test("tuple-ratio structure matches the paper's removals for taxi") {
    val planned = JoinPlan.plan(taxi.task.base, taxi.task.candidates)
    val removed = planned.size - JoinPlan.trFilter(planned, 24.0).size
    assert(removed == 10, s"removed $removed")
  }

  test("pickup TR filtering removes the day-keyed signal table") {
    val planned = JoinPlan.plan(pickup.task.base, pickup.task.candidates)
    val kept = JoinPlan.trFilter(planned, 17.0).map(_.cand.name).toSet
    assert(!kept.contains("daystats"))
    assert(planned.size - kept.size == 17, s"removed ${planned.size - kept.size}")
  }

  test("worlds are deterministic in the seed") {
    val a = SynthWorlds.poverty(spark).task.base.agg(sum("poverty_rate")).head().getDouble(0)
    val b = SynthWorlds.poverty(spark).task.base.agg(sum("poverty_rate")).head().getDouble(0)
    assert(a == b)
  }

  test("base feature lists exclude keys and target") {
    for (w <- Seq(taxi, pickup, poverty, schoolS)) {
      val bf = w.task.baseFeatureCols
      assert(!bf.contains(w.task.target))
      assert(!bf.contains(w.task.idCol))
      bf.foreach(f => assert(w.task.base.columns.contains(f)))
    }
  }

  test("one-to-many signal table has duplicate keys (taxi events)") {
    val events = taxi.task.candidates.find(_.name == "events").get.table
    assert(events.select("ts_day").distinct().count() < events.count())
  }

  test("foreign tables have partial coverage producing some nulls") {
    val c = poverty.task.candidates.find(_.name == "census0").get
    val joined = JoinExec.join(poverty.task.base, c)
    assert(joined.filter(col("census0__sig").isNull).count() > 0)
  }
}
