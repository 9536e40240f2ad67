package repro.core

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class JoinPlanSpec extends SparkSpec {
  import spark.implicits._

  private def cand(name: String, df: org.apache.spark.sql.DataFrame,
                   key: String = "k", fk: String = "fk",
                   kind: KeyKind = KeyKind.Hard, score: Option[Double] = None) =
    CandidateJoin(name, df, Seq(KeyPair(key, fk, kind)), discoveryScore = score)

  test("intersection score counts matched distinct base keys") {
    val base = Seq(1L, 2L, 3L, 4L).toDF("k")
    val f = Seq(1L, 2L, 9L).toDF("fk")
    assert(JoinPlan.intersectionScore(base, cand("t", f)) == 0.5)
  }

  test("intersection score is computed over distinct keys") {
    val base = Seq(1L, 1L, 1L, 2L).toDF("k")
    val f = Seq(1L).toDF("fk")
    assert(JoinPlan.intersectionScore(base, cand("t", f)) == 0.5)
  }

  test("intersection score matches DuckDB semi-join count") {
    // Duplicated base key (1, a), a null key component, an unmatched key
    // (2, a), and a soft time component that never matches: the score
    // counts distinct hard-key tuples only.
    val base = Seq[(Option[Long], String, Double)](
      (Some(1L), "a", 0.5), (Some(1L), "a", 1.5), (Some(1L), "a", 2.5), (Some(1L), "b", 0.5),
      (Some(2L), "a", 0.5), (None, "a", 0.5), (Some(3L), "c", 9.0)).toDF("k1", "k2", "t")
    val f = Seq[(Option[Long], String, Double, Double)](
      (Some(1L), "a", 100.0, 1.0), (Some(1L), "a", 101.0, 2.0), (Some(1L), "b", 200.0, 3.0),
      (Some(2L), "c", 300.0, 4.0), (None, "a", 400.0, 5.0), (Some(3L), "c", 500.0, 6.0))
      .toDF("fk1", "fk2", "ft", "v")
    val c = CandidateJoin("t", f, Seq(KeyPair("k1", "fk1", KeyKind.Hard),
      KeyPair("k2", "fk2", KeyKind.Hard), KeyPair("t", "ft", KeyKind.Soft)))
    Oracle.assertEquivalent(Seq(JoinPlan.intersectionScore(base, c)).toDF("score"),
      """SELECT CAST(COUNT(*) FILTER (WHERE EXISTS (
        |    SELECT 1 FROM f WHERE f.fk1 = d.k1 AND f.fk2 = d.k2)) AS DOUBLE) / COUNT(*) AS score
        |FROM (SELECT DISTINCT k1, k2 FROM b) d""".stripMargin,
      "b" -> base, "f" -> f)
  }

  test("intersection score runs one Spark job") {
    val base = spark.range(0, 400, 1, 4).select((col("id") % 50).as("k"), col("id").as("v")).cache()
    val f = spark.range(0, 300, 1, 3).select((col("id") % 70 + 30).as("fk")).cache()
    base.count(); f.count()
    val jobs = jobsIn("intersection")(assert(JoinPlan.intersectionScore(base, cand("t", f)) == 0.4))
    assert(jobs == 1)
    base.unpersist(); f.unpersist()
  }

  test("pure soft-key candidates score 1.0") {
    val base = Seq(1.0, 2.0).toDF("t")
    val f = Seq(5.0).toDF("ft")
    assert(JoinPlan.intersectionScore(base, cand("t", f, "t", "ft", KeyKind.Soft)) == 1.0)
  }

  test("tuple ratio is base rows over foreign key domain") {
    val f = Seq(1L, 2L, 2L, 3L).toDF("fk") // 3 distinct keys
    assert(JoinPlan.tupleRatio(12L, cand("t", f)) == 4.0)
  }

  test("tuple ratio's distinct-key count matches DuckDB on a composite key") {
    val f = Seq[(Option[Long], String, Double)](
      (Some(1L), "a", 1.0), (Some(1L), "a", 2.0), (Some(1L), "b", 3.0),
      (Some(2L), "a", 4.0), (None, "a", 5.0), (None, "a", 6.0), (Some(3L), "c", 7.0))
      .toDF("fk1", "fk2", "v")
    val c = CandidateJoin("t", f, Seq(KeyPair("k1", "fk1", KeyKind.Hard), KeyPair("k2", "fk2", KeyKind.Hard)))
    Oracle.assertEquivalent(Seq(JoinPlan.tupleRatio(30L, c)).toDF("tr"),
      "SELECT CAST(30 AS DOUBLE) / COUNT(*) AS tr FROM (SELECT DISTINCT fk1, fk2 FROM f)",
      "f" -> f)
  }

  test("trFilter removes candidates with TR >= tau") {
    val small = Seq(1L, 2L).toDF("fk")       // TR = 100/2 = 50
    val big = (1L to 100L).toDF("fk")        // TR = 1
    val base = (1L to 100L).toDF("k")
    val planned = JoinPlan.plan(base, Seq(cand("small", small), cand("big", big)))
    val kept = JoinPlan.trFilter(planned, 15.0)
    assert(kept.map(_.cand.name) == Seq("big"))
  }

  test("plan resamples an hourly soft candidate to day keys and keeps its tuple ratio") {
    val day = 86400.0
    val base = Seq(day * 10, day * 11, day * 12).toDF("ts")
    val hourly = cand("w", Seq((day * 10 + 3600, 1.0), (day * 10 + 7200, 3.0), (day * 11, 5.0))
      .toDF("fts", "v"), "ts", "fts", KeyKind.Soft)
    val hard = cand("h", Seq((1L, 1.0)).toDF("fk", "v"), score = Some(1.0))
    val notTime = cand("n", Seq((0.5, 1.0), (1.25, 2.0)).toDF("fts", "v"), "ts", "fts", KeyKind.Soft)
    val Seq(w, h, n) = JoinPlan.plan(base, Seq(hourly, hard, notTime))
    assert(w.cand.table.select("fts").as[Double].collect().sorted.toSeq == Seq(day * 10, day * 10, day * 11))
    assert(w.tupleRatio == JoinPlan.tupleRatio(3L, hourly))
    assert(h.cand == hard && n.cand == notTime)
  }

  test("plan infers a soft base column's granularity once, a candidate's only on a time base") {
    val day = 86400.0
    def soft(name: String) =
      cand(name, Seq((day * 10 + 3600, 1.0)).toDF("fts", "v"), "ts", "fts", KeyKind.Soft)
    var runs = 0
    def jobs(base: org.apache.spark.sql.DataFrame, cs: Seq[CandidateJoin]): Int = {
      runs += 1
      jobsIn(s"plan-$runs")(JoinPlan.plan(base, cs))
    }
    val trJobs = jobsIn("tuple-ratio")(JoinPlan.tupleRatio(1L, soft("a")))
    // A second candidate on the same base column adds its tuple ratio and
    // its own granularity, not the base's again.
    val daily = Seq(day * 10, day * 11).toDF("ts")
    assert(jobs(daily, Seq(soft("a"), soft("b"))) - jobs(daily, Seq(soft("a"))) == trJobs + 1)
    // On a base key with no time granularity, no candidate's is inferred.
    val notTime = Seq(0.5, 1.25).toDF("ts")
    assert(jobs(notTime, Seq(soft("a"), soft("b"))) - jobs(notTime, Seq(soft("a"))) == trJobs)
  }

  test("plan uses the discovery score when present") {
    val base = Seq(1L).toDF("k")
    val f = Seq(9L).toDF("fk")
    val p = JoinPlan.plan(base, Seq(cand("t", f, score = Some(0.77))))
    assert(p.head.score == 0.77)
  }

  test("plan counts payload features excluding key columns") {
    val base = Seq(1L).toDF("k")
    val f = Seq((1L, 1.0, 2.0, "s")).toDF("fk", "a", "b", "c")
    val p = JoinPlan.plan(base, Seq(cand("t", f)))
    assert(p.head.nFeatures == 10) // a, b and up to 8 indicators of c
  }

  test("budget grouping counts a string column by its one-hot width") {
    val base = Seq(1L).toDF("k")
    val planned = JoinPlan.plan(base, Seq("a", "b", "c").map(n =>
      cand(n, Seq((1L, "x"), (2L, "y")).toDF("fk", "s"), score = Some(0.5))))
    assert(planned.map(_.nFeatures) == Seq(8, 8, 8))
    val g = JoinPlan.group(planned, GroupingStrategy.BudgetJoin, 20)
    assert(g.map(_.map(_.cand.name)) == Seq(Seq("a", "b"), Seq("c")))
  }

  test("expandAlternatives emits one candidate per alt key option") {
    val f = Seq((1L, 2L, 1.0)).toDF("fk1", "fk2", "v")
    val c = CandidateJoin("t", f, Seq(KeyPair("a", "fk1", KeyKind.Hard)),
      altKeys = Seq(Seq(KeyPair("b", "fk2", KeyKind.Hard))))
    val out = JoinPlan.expandAlternatives(Seq(c))
    assert(out.map(_.name) == Seq("t", "t__alt0"))
    assert(out(1).keys.head.baseCol == "b")
  }

  test("table-join grouping is one candidate per batch, highest score first") {
    val base = Seq(1L).toDF("k")
    val f1 = Seq(1L).toDF("fk"); val f2 = Seq(1L).toDF("fk")
    val planned = JoinPlan.plan(base,
      Seq(cand("lo", f1, score = Some(0.1)), cand("hi", f2, score = Some(0.9))))
    val g = JoinPlan.group(planned, GroupingStrategy.TableJoin, 100)
    assert(g.map(_.map(_.cand.name)) == Seq(Seq("hi"), Seq("lo")))
  }

  test("full materialization grouping is a single batch") {
    val base = Seq(1L).toDF("k")
    val planned = JoinPlan.plan(base, Seq(cand("a", Seq(1L).toDF("fk")), cand("b", Seq(1L).toDF("fk"))))
    val g = JoinPlan.group(planned, GroupingStrategy.FullMaterialization, 1)
    assert(g.size == 1 && g.head.size == 2)
  }

  test("budget grouping packs features up to the budget") {
    val base = Seq(1L).toDF("k")
    def wide(name: String, n: Int) = {
      val cols = Seq(col("id").as("fk")) ++ (0 until n).map(i => rand(i).as(s"c$i"))
      cand(name, spark.range(2).select(cols: _*), score = Some(1.0 - name.hashCode % 10 * 0.01))
    }
    val planned = JoinPlan.plan(base, Seq(wide("a", 3), wide("b", 3), wide("c", 3)))
    val g = JoinPlan.group(planned, GroupingStrategy.BudgetJoin, 6)
    assert(g.size == 2)
    assert(g.map(_.map(_.nFeatures).sum).forall(_ <= 6))
  }

  test("a table wider than the budget ships alone") {
    val base = Seq(1L).toDF("k")
    val cols = Seq(col("id").as("fk")) ++ (0 until 10).map(i => rand(i).as(s"c$i"))
    val wide = cand("wide", spark.range(2).select(cols: _*))
    val slim = cand("slim", Seq((1L, 1.0)).toDF("fk", "v"))
    val planned = JoinPlan.plan(base, Seq(wide, slim))
    val g = JoinPlan.group(planned, GroupingStrategy.BudgetJoin, 5)
    assert(g.exists(b => b.map(_.cand.name) == Seq("wide")))
  }

  test("batches are ordered by score priority") {
    val base = Seq(1L).toDF("k")
    val planned = JoinPlan.plan(base, Seq(
      cand("worst", Seq((1L, 1.0)).toDF("fk", "v"), score = Some(0.1)),
      cand("best", Seq((1L, 1.0)).toDF("fk", "v"), score = Some(0.9))))
    val g = JoinPlan.group(planned, GroupingStrategy.BudgetJoin, 1)
    assert(g.head.head.cand.name == "best")
  }
}
