package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.{Oracle, SparkSpec}

class JoinExecSpec extends SparkSpec {
  import spark.implicits._

  test("inferGranularity detects day-resolution keys") {
    val df = Seq(86400.0 * 100, 86400.0 * 101, 86400.0 * 350).toDF("ts")
    assert(JoinPlan.inferGranularity(df, "ts").contains(86400.0))
  }

  test("inferGranularity detects hour-resolution keys") {
    val df = Seq(3600.0 * 5, 3600.0 * 7, 86400.0 * 2).toDF("ts")
    assert(JoinPlan.inferGranularity(df, "ts").contains(3600.0))
  }

  test("inferGranularity detects minute and second resolutions") {
    assert(JoinPlan.inferGranularity(Seq(60.0, 120.0, 180.0).toDF("t"), "t").contains(60.0))
    assert(JoinPlan.inferGranularity(Seq(61.0, 122.0).toDF("t"), "t").contains(1.0))
  }

  test("inferGranularity returns None for non-time-like keys") {
    val df = Seq(0.5, 1.25, 3.75).toDF("t")
    assert(JoinPlan.inferGranularity(df, "t").isEmpty)
  }

  test("aggregateByKeys averages numeric and mins categorical payloads") {
    val df = Seq((1L, 10.0, "b"), (1L, 20.0, "a"), (2L, 5.0, "c")).toDF("k", "v", "s")
    val out = JoinExec.aggregateByKeys(df, Seq("k")).orderBy("k").collect()
    assert(out(0).getDouble(1) == 15.0 && out(0).getString(2) == "a")
    assert(out(1).getDouble(1) == 5.0 && out(1).getString(2) == "c")
  }

  test("aggregateByKeys matches DuckDB GROUP BY") {
    val df = Seq((1L, 10.0), (1L, 20.0), (2L, 5.0), (2L, 7.0), (3L, 1.0)).toDF("k", "v")
    val out = JoinExec.aggregateByKeys(df, Seq("k"))
      .select(col("k").cast("long").as("k"), col("v").cast("double").as("v"))
    Oracle.assertEquivalent(out,
      "SELECT CAST(k AS BIGINT) AS k, AVG(CAST(v AS DOUBLE)) AS v FROM t GROUP BY k",
      "t" -> df)
  }

  test("hard join is a LEFT join preserving all base rows") {
    val base = Seq((1L, 10L), (2L, 20L), (3L, 99L)).toDF("id", "k")
    val f = Seq((10L, 1.0), (20L, 2.0)).toDF("fk", "v")
    val out = JoinExec.join(base, CandidateJoin("t", f, Seq(KeyPair("k", "fk", KeyKind.Hard))))
    assert(out.count() == 3)
    assert(out.columns.toSet == Set("id", "k", "t__v"))
    val m = out.collect().map(r => r.getLong(0) -> Option(r.get(2))).toMap
    assert(m(1L).contains(1.0) && m(2L).contains(2.0) && m(3L).isEmpty)
  }

  test("hard left join matches DuckDB left join") {
    val base = Seq((1L, 10L), (2L, 20L), (3L, 99L)).toDF("id", "k")
    val f = Seq((10L, 1.0), (20L, 2.0)).toDF("fk", "v")
    val out = JoinExec.join(base, CandidateJoin("t", f, Seq(KeyPair("k", "fk", KeyKind.Hard))))
      .select(col("id").cast("long").as("id"), col("t__v").cast("double").as("t__v"))
    Oracle.assertEquivalent(out,
      "SELECT CAST(b.id AS BIGINT) AS id, CAST(f.v AS DOUBLE) AS t__v " +
        "FROM b LEFT JOIN f ON b.k = f.fk",
      "b" -> base, "f" -> f)
  }

  test("one-to-many foreign rows are pre-aggregated, not duplicated") {
    val base = Seq((1L, 10L), (2L, 20L)).toDF("id", "k")
    val f = Seq((10L, 1.0), (10L, 3.0), (20L, 5.0)).toDF("fk", "v")
    val out = JoinExec.join(base, CandidateJoin("t", f, Seq(KeyPair("k", "fk", KeyKind.Hard))))
    assert(out.count() == 2)
    val m = out.collect().map(r => r.getLong(0) -> r.getDouble(2)).toMap
    assert(m(1L) == 2.0 && m(2L) == 5.0)
    // Integer payloads come back as double whether or not the key repeats,
    // so the joined schema does not depend on the data.
    for (rows <- Seq(Seq((10L, 4L), (20L, 6L)), Seq((10L, 3L), (10L, 5L), (20L, 6L)))) {
      val outN = JoinExec.join(base,
        CandidateJoin("t", rows.toDF("fk", "n"), Seq(KeyPair("k", "fk", KeyKind.Hard))))
      assert(outN.schema("t__n").dataType == DoubleType)
      assert(outN.collect().map(r => r.getLong(0) -> r.getDouble(2)).toMap == Map(1L -> 4.0, 2L -> 6.0))
    }
  }

  test("composite hard key join") {
    val base = Seq((1L, 1L, 1L), (2L, 1L, 2L)).toDF("id", "k1", "k2")
    val f = Seq((1L, 1L, 7.0), (1L, 2L, 9.0)).toDF("a", "b", "v")
    val out = JoinExec.join(base, CandidateJoin("t", f,
      Seq(KeyPair("k1", "a", KeyKind.Hard), KeyPair("k2", "b", KeyKind.Hard))))
    val m = out.collect().map(r => r.getLong(0) -> r.getDouble(3)).toMap
    assert(m(1L) == 7.0 && m(2L) == 9.0)
  }

  test("soft NN join picks the nearest foreign key") {
    val base = Seq((1L, 10.0), (2L, 26.0)).toDF("id", "t")
    val f = Seq((9.0, 100.0), (20.0, 200.0), (30.0, 300.0)).toDF("ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft))),
                            SoftJoinMethod.NearestNeighbour)
    val m = out.collect().map(r => r.getLong(0) -> r.getDouble(2)).toMap
    assert(m(1L) == 100.0) // 10 closest to 9
    assert(m(2L) == 300.0) // 26 closest to 30 (dist 4) vs 20 (dist 6)
  }

  test("soft NN join exact match has distance zero") {
    val base = Seq((1L, 20.0)).toDF("id", "t")
    val f = Seq((19.0, 1.0), (20.0, 2.0), (21.0, 3.0)).toDF("ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft))),
                            SoftJoinMethod.NearestNeighbour)
    assert(out.head().getDouble(2) == 2.0)
  }

  test("soft NN join respects the tolerance threshold") {
    val base = Seq((1L, 10.0), (2L, 100.0)).toDF("id", "t")
    val f = Seq((12.0, 7.0)).toDF("ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft))),
                            SoftJoinMethod.NearestNeighbour, tolerance = Some(5.0))
    val m = out.collect().map(r => r.getLong(0) -> Option(r.get(2))).toMap
    assert(m(1L).contains(7.0))
    assert(m(2L).isEmpty) // |100−12| > 5 ⇒ null
  }

  test("two-way NN join interpolates linearly between bracketing rows") {
    val base = Seq((1L, 15.0)).toDF("id", "t")
    val f = Seq((10.0, 100.0), (20.0, 200.0)).toDF("ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft))),
                            SoftJoinMethod.TwoWayNearestNeighbour)
    // x=15 ⇒ λ = (20−15)/(20−10) = 0.5 ⇒ 0.5·100 + 0.5·200 = 150
    assert(math.abs(out.head().getDouble(2) - 150.0) < 1e-9)
  }

  test("two-way NN join weights the nearer bracketing row more") {
    val base = Seq((1L, 12.0)).toDF("id", "t")
    val f = Seq((10.0, 100.0), (20.0, 200.0)).toDF("ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft))),
                            SoftJoinMethod.TwoWayNearestNeighbour)
    // λ = (20−12)/10 = 0.8 ⇒ 0.8·100 + 0.2·200 = 120
    assert(math.abs(out.head().getDouble(2) - 120.0) < 1e-9)
  }

  test("two-way NN join falls back to the single available side") {
    val base = Seq((1L, 5.0), (2L, 25.0)).toDF("id", "t")
    val f = Seq((10.0, 100.0), (20.0, 200.0)).toDF("ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft))),
                            SoftJoinMethod.TwoWayNearestNeighbour)
    val m = out.collect().map(r => r.getLong(0) -> r.getDouble(2)).toMap
    assert(m(1L) == 100.0) // only a next row exists
    assert(m(2L) == 200.0) // only a prev row exists
  }

  test("two-way NN join picks one of the bracketing categorical values") {
    val base = Seq((1L, 15.0)).toDF("id", "t")
    val f = Seq((10.0, "lo"), (20.0, "hi")).toDF("ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft))),
                            SoftJoinMethod.TwoWayNearestNeighbour)
    assert(Set("lo", "hi").contains(out.head().getString(2)))
  }

  test("time resampling aggregates a finer foreign table to base granularity") {
    val day = 86400.0
    val base = Seq((1L, day * 10), (2L, day * 11)).toDF("id", "ts")
    // hourly foreign rows within day 10 average to 2.0; day 11 to 6.0
    val f = Seq((day * 10, 1.0), (day * 10 + 3600, 3.0),
                (day * 11 + 3600, 5.0), (day * 11 + 7200, 7.0)).toDF("ts", "v")
    val cand = CandidateJoin("w", f, Seq(KeyPair("ts", "ts", KeyKind.Soft)))
    val out = JoinExec.join(base, JoinPlan.resampled(cand, JoinPlan.inferGranularity(base, "ts")),
                            SoftJoinMethod.Hard)
    val m = out.collect().map(r => r.getLong(0) -> r.getDouble(2)).toMap
    assert(m(1L) == 2.0 && m(2L) == 6.0)
  }

  test("hard unmodified join on mismatched granularity loses matches") {
    val day = 86400.0
    val base = Seq((1L, day * 10)).toDF("id", "ts")
    val f = Seq((day * 10 + 3600, 3.0)).toDF("ts", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("ts", "ts", KeyKind.Soft))),
                            SoftJoinMethod.Hard)
    assert(out.head().isNullAt(2))
  }

  test("NN soft join also resamples finer foreign tables first") {
    val day = 86400.0
    val base = Seq((1L, day * 10)).toDF("id", "ts")
    val f = Seq((day * 10, 1.0), (day * 10 + 3600, 3.0)).toDF("ts", "v")
    val cand = CandidateJoin("w", f, Seq(KeyPair("ts", "ts", KeyKind.Soft)))
    val out = JoinExec.join(base, JoinPlan.resampled(cand, JoinPlan.inferGranularity(base, "ts")),
                            SoftJoinMethod.NearestNeighbour)
    assert(out.head().getDouble(2) == 2.0) // aggregated day value, not one hour's
  }

  // DuckDB oracles for the soft joins. Each foreign fixture repeats one key
  // (pre-aggregated to its mean), one base key matches a foreign key
  // exactly, and base keys fall before the first and after the last
  // foreign key. A foreign row with a NULL payload sits at a base key and
  // just below the next one: a base row bracketed by it gets its NULL, not
  // an older row's value. Payloads are numeric: categorical two-way picks
  // are random.
  private val Day = 86400.0

  /** Both bracketing foreign rows of every base row: the nearest at or
    * below (`klo`, `vlo`) and at or above (`khi`, `vhi`) its key.
    */
  private val Bracketed =
    "WITH b AS (SELECT CAST(id AS BIGINT) AS id, CAST(t AS DOUBLE) AS t FROM base), " +
      "f AS (SELECT CAST(ft AS DOUBLE) AS ft, AVG(CAST(v AS DOUBLE)) AS v FROM fr GROUP BY 1), " +
      "j AS (SELECT b.id, b.t, lo.ft AS klo, lo.v AS vlo, hi.ft AS khi, hi.v AS vhi " +
      "FROM b ASOF LEFT JOIN f lo ON b.t >= lo.ft ASOF LEFT JOIN f hi ON b.t <= hi.ft) "

  private def softJoined(base: DataFrame, f: DataFrame, method: SoftJoinMethod,
                         tolerance: Option[Double] = None,
                         resample: Boolean = false): DataFrame = {
    val cand = CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft)))
    val joined = if (resample) JoinPlan.resampled(cand, JoinPlan.inferGranularity(base, "t")) else cand
    JoinExec.join(base, joined, method, tolerance)
      .select(col("id").cast("long").as("id"), col("w__v").cast("double").as("w__v"))
  }

  test("hour-to-day resampling join matches DuckDB truncate, group and left join") {
    val base = Seq(9.0, 10.0, 11.0, 13.0).zipWithIndex
      .map { case (d, i) => (i.toLong, d * Day) }.toDF("id", "t")
    val f = Seq((Day * 10, 1.0), (Day * 10 + 3600, 3.0), (Day * 10 + 3600, 5.0),
                (Day * 11 + 7200, 7.0), (Day * 12 + 3600, 9.0)).toDF("ft", "v")
    Oracle.assertEquivalent(softJoined(base, f, SoftJoinMethod.Hard, resample = true),
      "WITH b AS (SELECT CAST(id AS BIGINT) AS id, CAST(t AS DOUBLE) AS t FROM base), " +
        "f AS (SELECT floor(CAST(ft AS DOUBLE) / 86400) * 86400 AS ft, " +
        "AVG(CAST(v AS DOUBLE)) AS v FROM fr GROUP BY 1) " +
        "SELECT b.id AS id, f.v AS w__v FROM b LEFT JOIN f ON b.t = f.ft",
      "base" -> base, "fr" -> f)
  }

  test("NN join with a tolerance matches DuckDB as-of joins") {
    val base = Seq(3.0, 7.0, 20.0, 24.0, 25.0, 26.0, 35.0, 40.0).zipWithIndex
      .map { case (t, i) => (i.toLong, t) }.toDF("id", "t")
    val f = Seq((10.0, Some(1.0)), (20.0, Some(2.0)), (20.0, Some(4.0)), (25.0, None),
                (30.0, Some(5.0))).toDF("ft", "v")
    // The nearer bracketing row wins, the lower one on a tie; null beyond 5.
    Oracle.assertEquivalent(softJoined(base, f, SoftJoinMethod.NearestNeighbour, Some(5.0)),
      Bracketed + "SELECT id, CASE " +
        "WHEN klo IS NOT NULL AND (khi IS NULL OR t - klo <= khi - t) " +
        "THEN CASE WHEN t - klo <= 5 THEN vlo END " +
        "WHEN khi IS NOT NULL THEN CASE WHEN khi - t <= 5 THEN vhi END END AS w__v FROM j",
      "base" -> base, "fr" -> f)
  }

  test("two-way NN join matches DuckDB as-of joins with interpolation") {
    val base = Seq(5.0, 10.0, 15.0, 20.0, 25.0, 27.0, 35.0).zipWithIndex
      .map { case (t, i) => (i.toLong, t) }.toDF("id", "t")
    val f = Seq((10.0, Some(100.0)), (20.0, Some(200.0)), (20.0, Some(400.0)), (25.0, None),
                (30.0, Some(600.0))).toDF("ft", "v")
    // λ·v_lo + (1−λ)·v_hi with λ = (k_hi − t)/(k_hi − k_lo); one side alone otherwise.
    Oracle.assertEquivalent(softJoined(base, f, SoftJoinMethod.TwoWayNearestNeighbour),
      Bracketed + "SELECT id, CASE " +
        "WHEN klo IS NOT NULL AND khi IS NOT NULL THEN CASE WHEN khi = klo THEN vlo " +
        "ELSE (khi - t) / (khi - klo) * vlo + (1 - (khi - t) / (khi - klo)) * vhi END " +
        "WHEN klo IS NOT NULL THEN vlo WHEN khi IS NOT NULL THEN vhi END AS w__v FROM j",
      "base" -> base, "fr" -> f)
  }

  test("composite hard + soft key joins match DuckDB as-of joins within each group") {
    // Group 2 has no foreign row at all, so none of its base rows matches.
    val base = Seq((1L, 5.0), (1L, 10.0), (1L, 14.0), (1L, 22.0), (1L, 31.0), (2L, 10.0), (2L, 20.0))
      .zipWithIndex.map { case ((g, t), i) => (i.toLong, g, t) }.toDF("id", "g", "t")
    val f = Seq((1L, 10.0, 100.0), (1L, 20.0, 200.0), (1L, 20.0, 400.0), (1L, 25.0, 600.0))
      .toDF("fg", "ft", "v")
    val cand = CandidateJoin("w", f,
      Seq(KeyPair("g", "fg", KeyKind.Hard), KeyPair("t", "ft", KeyKind.Soft)))
    def joined(method: SoftJoinMethod, tolerance: Option[Double]): DataFrame =
      JoinExec.join(base, cand, method, tolerance)
        .select(col("id").cast("long").as("id"), col("w__v").cast("double").as("w__v"))
    val bracketed =
      "WITH b AS (SELECT CAST(id AS BIGINT) AS id, CAST(g AS BIGINT) AS g, " +
        "CAST(t AS DOUBLE) AS t FROM base), " +
        "f AS (SELECT CAST(fg AS BIGINT) AS g, CAST(ft AS DOUBLE) AS ft, " +
        "AVG(CAST(v AS DOUBLE)) AS v FROM fr GROUP BY 1, 2), " +
        "j AS (SELECT b.id, b.t, lo.ft AS klo, lo.v AS vlo, hi.ft AS khi, hi.v AS vhi " +
        "FROM b ASOF LEFT JOIN f lo ON b.g = lo.g AND b.t >= lo.ft " +
        "ASOF LEFT JOIN f hi ON b.g = hi.g AND b.t <= hi.ft) "
    Oracle.assertEquivalent(joined(SoftJoinMethod.NearestNeighbour, Some(5.0)),
      bracketed + "SELECT id, CASE " +
        "WHEN klo IS NOT NULL AND (khi IS NULL OR t - klo <= khi - t) " +
        "THEN CASE WHEN t - klo <= 5 THEN vlo END " +
        "WHEN khi IS NOT NULL THEN CASE WHEN khi - t <= 5 THEN vhi END END AS w__v FROM j",
      "base" -> base, "fr" -> f)
    Oracle.assertEquivalent(joined(SoftJoinMethod.TwoWayNearestNeighbour, None),
      bracketed + "SELECT id, CASE " +
        "WHEN klo IS NOT NULL AND khi IS NOT NULL THEN CASE WHEN khi = klo THEN vlo " +
        "ELSE (khi - t) / (khi - klo) * vlo + (1 - (khi - t) / (khi - klo)) * vhi END " +
        "WHEN klo IS NOT NULL THEN vlo WHEN khi IS NOT NULL THEN vhi END AS w__v FROM j",
      "base" -> base, "fr" -> f)
  }

  test("mixed composite key: hard component partitions the soft match") {
    val base = Seq((1L, 1L, 10.0), (2L, 2L, 10.0)).toDF("id", "g", "t")
    val f = Seq((1L, 11.0, 100.0), (2L, 9.0, 200.0)).toDF("g", "ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f,
      Seq(KeyPair("g", "g", KeyKind.Hard), KeyPair("t", "ft", KeyKind.Soft))),
      SoftJoinMethod.NearestNeighbour)
    val m = out.collect().map(r => r.getLong(0) -> r.getDouble(3)).toMap
    assert(m(1L) == 100.0 && m(2L) == 200.0)
  }

  test("two-way NN join picks the same categorical values at any shuffle partitioning") {
    // Base row (h, k + 0.5) sits between foreign rows (h, k) and (h, k + 1).
    val base = spark.range(0, 400, 1, 4)
      .select(col("id"), (col("id") % 4).as("h"), (floor(col("id") / 4) + 0.5).as("t"))
    val f = spark.range(0, 400, 1, 4).select((col("id") % 4).as("fh"),
      floor(col("id") / 4).cast(DoubleType).as("ft"), col("id").cast("string").as("s"))
    val cand = CandidateJoin("f", f,
      Seq(KeyPair("h", "fh", KeyKind.Hard), KeyPair("t", "ft", KeyKind.Soft)))
    // Without adaptive execution, which would coalesce the small shuffle
    // back to one partition.
    val picks = Seq("1", "7").map { n =>
      withConf("spark.sql.shuffle.partitions" -> n, "spark.sql.adaptive.enabled" -> "false") {
        JoinExec.join(base, cand).select("id", "f__s").collect()
          .map(r => r.getLong(0) -> r.getString(1)).toMap
      }
    }
    assert(picks.head.size == 400)
    val differ = picks.head.count { case (id, v) => picks(1)(id) != v }
    assert(differ == 0, s"$differ of 400 picks differ")
  }

  test("a soft-key join runs no Spark job, for every method") {
    val day = 86400.0
    val base = Seq((1L, day * 10), (2L, day * 11)).toDF("id", "ts")
    val f = Seq((day * 10, 1.0), (day * 10 + 3600, 3.0), (day * 11 + 7200, 7.0)).toDF("ts", "v")
    val cand = CandidateJoin("w", f, Seq(KeyPair("ts", "ts", KeyKind.Soft)))
    for (m <- Seq(SoftJoinMethod.NearestNeighbour, SoftJoinMethod.TwoWayNearestNeighbour,
                  SoftJoinMethod.Hard)) {
      val jobs = jobsIn(s"soft-join-$m")(JoinExec.join(base, cand, m))
      assert(jobs == 0, s"$m: $jobs jobs")
    }
  }

  test("soft join preserves all base rows and columns") {
    val base = Seq((1L, 5.0, "x"), (2L, 7.0, "y")).toDF("id", "t", "extra")
    val f = Seq((6.0, 1.0)).toDF("ft", "v")
    val out = JoinExec.join(base, CandidateJoin("w", f, Seq(KeyPair("t", "ft", KeyKind.Soft))),
                            SoftJoinMethod.NearestNeighbour)
    assert(out.count() == 2)
    assert(out.columns.toSeq == Seq("id", "t", "extra", "w__v"))
  }

  test("payload columns are prefixed with the candidate name") {
    val base = Seq((1L, 10L)).toDF("id", "k")
    val f = Seq((10L, 1.0, 2.0)).toDF("fk", "a", "b")
    val out = JoinExec.join(base, CandidateJoin("tbl", f, Seq(KeyPair("k", "fk", KeyKind.Hard))))
    assert(out.columns.toSet == Set("id", "k", "tbl__a", "tbl__b"))
  }
}
