package repro.ml

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.TaskKind

class FilterStatsSpec extends SparkSpec {
  import spark.implicits._

  private def fScores(df: DataFrame, features: Seq[String], task: TaskKind): Array[Double] = {
    val d = MatrixOps.collect(df, features, "y")
    FilterStats.fScores(d.cols, d.y, task)
  }

  private def miScores(df: DataFrame, features: Seq[String], task: TaskKind): Array[Double] = {
    val d = MatrixOps.collect(df, features, "y")
    FilterStats.miScores(d.cols, d.y, task)
  }

  /** (feature index, F rounded to 4 decimals), one row per feature. */
  private def roundedF(df: DataFrame, features: Seq[String], task: TaskKind): DataFrame =
    fScores(df, features, task).toSeq.zipWithIndex
      .map { case (f, i) => (i, BigDecimal(f).setScale(4, BigDecimal.RoundingMode.HALF_UP).toDouble) }
      .toDF("f", "F")

  // 40 rows: two features with unequal spread, a regression label and a
  // 3-class label.
  private lazy val oracleInput = (0 until 40).map { i =>
    val a = (i * 37 % 11).toDouble
    val b = (i * 13 % 5) + i * 0.1
    (a, b, 0.5 * a - 0.2 * b + (i * 7 % 3), (i % 3).toDouble)
  }.toDF("a", "b", "yr", "yc")

  test("regression F matches DuckDB regr_r2") {
    val df = oracleInput.withColumnRenamed("yr", "y")
    Oracle.assertEquivalent(roundedF(df, Seq("a", "b"), TaskKind.Regression),
      """SELECT f, ROUND(r2 * (n - 2) / (1 - r2), 4) AS F FROM (
        |  SELECT 0 AS f, regr_r2(CAST(y AS DOUBLE), CAST(a AS DOUBLE)) AS r2, COUNT(*) AS n FROM t
        |  UNION ALL
        |  SELECT 1 AS f, regr_r2(CAST(y AS DOUBLE), CAST(b AS DOUBLE)) AS r2, COUNT(*) AS n FROM t)
        |""".stripMargin,
      "t" -> df)
  }

  test("classification F matches a DuckDB GROUP BY one-way ANOVA") {
    val df = oracleInput.withColumnRenamed("yc", "y")
    Oracle.assertEquivalent(roundedF(df, Seq("a", "b"), TaskKind.Classification),
      """WITH v AS (
        |  SELECT 0 AS f, CAST(a AS DOUBLE) AS v, y FROM t
        |  UNION ALL SELECT 1 AS f, CAST(b AS DOUBLE) AS v, y FROM t),
        |g AS (SELECT f, y, COUNT(*) AS ng, AVG(v) AS mg FROM v GROUP BY f, y),
        |a AS (SELECT f, COUNT(*) AS n, AVG(v) AS m FROM v GROUP BY f),
        |w AS (SELECT v.f, SUM((v.v - g.mg) * (v.v - g.mg)) AS ssw
        |      FROM v JOIN g ON v.f = g.f AND v.y = g.y GROUP BY v.f),
        |b AS (SELECT g.f, COUNT(*) AS k, SUM(g.ng * (g.mg - a.m) * (g.mg - a.m)) AS ssb
        |      FROM g JOIN a ON g.f = a.f GROUP BY g.f)
        |SELECT b.f, ROUND((ssb / (k - 1)) / (ssw / (n - k)), 4) AS F
        |FROM b JOIN w ON b.f = w.f JOIN a ON a.f = b.f""".stripMargin,
      "t" -> df)
  }

  test("regression F matches the closed-form r^2 (n-2) / (1-r^2)") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    val noise = Seq(0.3, -0.2, 0.25, -0.3, 0.1, -0.15)
    val ys = xs.zip(noise).map { case (x, e) => 2 * x + e }
    val df = xs.zip(ys).toDF("x", "y")
    val f = fScores(df, Seq("x"), TaskKind.Regression)(0)
    // closed form on the driver
    val n = xs.length
    val mx = xs.sum / n; val my = ys.sum / n
    val cov = xs.zip(ys).map { case (a, b) => (a - mx) * (b - my) }.sum / n
    val vx = xs.map(a => (a - mx) * (a - mx)).sum / n
    val vy = ys.map(b => (b - my) * (b - my)).sum / n
    val r2 = cov * cov / (vx * vy)
    val expected = r2 * (n - 2) / (1 - r2)
    assert(math.abs(f - expected) / expected < 1e-6, s"$f vs $expected")
  }

  test("regression F of an uncorrelated feature is small") {
    val df = spark.range(400).select(randn(1).as("x"), randn(2).as("y"))
    val f = fScores(df, Seq("x"), TaskKind.Regression)(0)
    assert(f < 6.0)
  }

  test("regression F of constant feature is zero") {
    val df = Seq((1.0, 1.0), (1.0, 2.0), (1.0, 3.0)).toDF("x", "y")
    assert(fScores(df, Seq("x"), TaskKind.Regression)(0) == 0.0)
  }

  test("classification ANOVA F matches hand computation") {
    // two groups: {1,2,3} and {6,7,8}: SSB = 37.5, SSW = 4, F = 37.5/(4/4)
    val df = Seq((1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (6.0, 1.0), (7.0, 1.0), (8.0, 1.0))
      .toDF("x", "y")
    val f = fScores(df, Seq("x"), TaskKind.Classification)(0)
    assert(math.abs(f - 37.5) < 1e-9, s"F=$f")
  }

  test("classification F ranks a separating feature above noise") {
    val df = spark.range(400).select(
      (col("id") % 2).cast("double").as("y"),
      ((col("id") % 2).cast("double") * 3 + randn(1)).as("sig"),
      randn(2).as("noise"))
    val f = fScores(df, Seq("sig", "noise"), TaskKind.Classification)
    assert(f(0) > 10 * math.max(f(1), 1e-9))
  }

  test("MI of an informative binary feature is near the label entropy") {
    // y == x exactly: MI = H(y) = ln 2
    val df = spark.range(600).select(
      (col("id") % 2).cast("double").as("y"),
      (col("id") % 2).cast("double").as("x"))
    val mi = miScores(df, Seq("x"), TaskKind.Classification)(0)
    assert(math.abs(mi - math.log(2)) < 0.02, s"mi=$mi")
  }

  test("MI of independent noise is near zero") {
    val df = spark.range(800).select((col("id") % 2).cast("double").as("y"), randn(5).as("x"))
    val mi = miScores(df, Seq("x"), TaskKind.Classification)(0)
    assert(mi < 0.05, s"mi=$mi")
  }

  test("MI works for regression targets via label binning") {
    val df = spark.range(600).select(randn(1).as("x")).withColumn("y", col("x") * 2)
    val mi = miScores(df, Seq("x"), TaskKind.Regression)(0)
    val dfN = spark.range(600).select(randn(2).as("x"), randn(3).as("y"))
    val miN = miScores(dfN, Seq("x"), TaskKind.Regression)(0)
    assert(mi > 4 * miN, s"signal mi=$mi noise mi=$miN")
  }

  test("fScores returns one score per feature in order") {
    val df = Seq((1.0, 2.0, 3.0, 0.0), (2.0, 1.0, 3.0, 1.0), (3.0, 0.0, 3.0, 0.0),
                 (4.0, 2.0, 3.0, 1.0)).toDF("a", "b", "c", "y")
    val f = fScores(df, Seq("a", "b", "c"), TaskKind.Classification)
    assert(f.length == 3)
    assert(f(2) == 0.0) // constant feature
  }
}
