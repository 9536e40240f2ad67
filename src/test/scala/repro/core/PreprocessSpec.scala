package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class PreprocessSpec extends SparkSpec {
  import spark.implicits._

  /** `df` prepared with the statistics fitted on it, and its feature columns. */
  private def prepared(df: DataFrame, cols: Seq[String]): (DataFrame, Seq[String]) = {
    val stats = Preprocess.fit(df, cols)
    (stats(df), stats.features)
  }

  /** `df` imputed with the statistics fitted on it, not binarized. */
  private def imputed(df: DataFrame, cols: Seq[String]): DataFrame =
    Preprocess.fit(df, cols).copy(levels = Nil)(df)

  test("numericCols picks numeric types only") {
    val df = Seq((1, 1.5, "a", true)).toDF("i", "d", "s", "b")
    assert(Preprocess.numericCols(df, df.columns.toSeq) == Seq("i", "d"))
  }

  test("categoricalCols picks strings and booleans") {
    val df = Seq((1, 1.5, "a", true)).toDF("i", "d", "s", "b")
    assert(Preprocess.categoricalCols(df, df.columns.toSeq) == Seq("s", "b"))
  }

  test("binarize one-hots frequent levels and drops the source column") {
    // Ten levels: "a" and "b", then eight singletons, of which the cap of
    // eight indicators keeps the six smallest.
    val df = (Seq.fill(4)("a") ++ Seq.fill(3)("b") ++ ('c' to 'j').map(_.toString)).toDF("s")
    val (out, _) = prepared(df, Seq("s"))
    assert(!out.columns.contains("s"))
    assert(out.columns.toSet == (0 until Preprocess.MaxLevels).map(i => s"s__is_$i").toSet)
    // most frequent level "a" maps to indicator 0
    assert(out.agg(sum("s__is_0")).head().getDouble(0) == 4.0)
    assert(out.agg(sum("s__is_1")).head().getDouble(0) == 3.0)
  }

  test("binarize's level ranking matches DuckDB GROUP BY, ORDER BY count, value") {
    // Eleven levels with tied counts: the top 8 by count, ties by value.
    val counts = Seq("k" -> 5, "b" -> 3, "e" -> 3, "a" -> 3, "j" -> 2, "c" -> 2,
                     "i" -> 2, "d" -> 1, "h" -> 1, "f" -> 1, "g" -> 1)
    val df = (counts.flatMap { case (v, n) => Seq.fill(n)(Option(v)) } ++ Seq(None, None))
      .toDF("s")
    // The two nulls are imputed first: the levels are counted on the
    // frame as imputed, and so is the oracle.
    val stats = Preprocess.fit(df, Seq("s"))
    val filled = stats.copy(levels = Nil)(df)
    val out = stats(filled.withColumn("orig", col("s")))
    val ranked = (0 until 8).map { i =>
      out.filter(col(s"s__is_$i") === 1.0).select(col("orig").as("lvl"), lit(i.toLong).as("pos"))
    }.reduce(_ union _).distinct()
    Oracle.assertEquivalent(ranked,
      """SELECT lvl, pos FROM (
        |  SELECT s AS lvl, ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, s) - 1 AS pos
        |  FROM t WHERE s IS NOT NULL GROUP BY s)
        |WHERE pos < 8""".stripMargin,
      "t" -> filled)
  }

  test("median imputation matches DuckDB MEDIAN on an odd number of values") {
    val df = Seq[(Long, Option[Double], Option[Double])](
      (1L, Some(4.0), Some(10.0)), (2L, None, Some(-2.0)), (3L, Some(1.5), None),
      (4L, Some(9.0), Some(7.0)), (5L, Some(-3.0), None), (6L, None, Some(0.5)),
      (7L, Some(2.0), Some(3.0)), (8L, Some(8.0), None), (9L, Some(6.5), None))
      .toDF("id", "x", "z")
    Oracle.assertEquivalent(imputed(df, Seq("x", "z")),
      """SELECT id,
        |  COALESCE(CAST(x AS DOUBLE), (SELECT MEDIAN(CAST(x AS DOUBLE)) FROM t)) AS x,
        |  COALESCE(CAST(z AS DOUBLE), (SELECT MEDIAN(CAST(z AS DOUBLE)) FROM t)) AS z
        |FROM t""".stripMargin,
      "t" -> df)
  }

  test("binarize rare level becomes all-zero row") {
    // "a" and the eight smallest of nine singletons get indicators; "i"
    // and "j" are past the cap.
    val df = (Seq("a", "a") ++ ('b' to 'j').map(_.toString)).toDF("s")
    val (out, feats) = prepared(df, Seq("s"))
    assert(feats.size == Preprocess.MaxLevels)
    assert(out.filter(feats.map(f => col(f) === 0.0).reduce(_ && _)).count() == 2)
  }

  test("binarize handles null categorical values") {
    val df = Seq(Some("a"), None, Some("a"), Some("b")).toDF("s")
    val (out, _) = prepared(df, Seq("s"))
    assert(out.count() == 4)
  }

  test("impute replaces numeric nulls with the median") {
    val df = Seq(Some(1.0), Some(2.0), Some(3.0), None, None).toDF("x")
    val out = imputed(df, Seq("x"))
    assert(out.filter(col("x").isNull).count() == 0)
    assert(out.filter(col("x") === 2.0).count() == 3)
  }

  test("impute replaces categorical nulls with observed values") {
    val df = Seq(Some("a"), Some("b"), None, None, None).toDF("s")
    val out = imputed(df, Seq("s"))
    assert(out.filter(col("s").isNull).count() == 0)
    val filled = out.select("s").collect().map(_.getString(0)).toSet
    assert(filled.subsetOf(Set("a", "b")))
  }

  test("categorical imputation draws from the 64 smallest observed values at any partitioning") {
    val values = (0 until 200).map(i => f"v$i%03d")
    val smallest = values.take(64).toSet
    val rows = (values.map(Option(_)) ++ Seq.fill(100)(None)).zipWithIndex
    val fills = Seq(1, 5).map { parts =>
      val df = rows.toDF("s", "row").repartition(parts)
      val filled = imputed(df, Seq("s")).filter(col("row") >= values.size)
        .select("row", "s").collect().map(r => r.getInt(0) -> r.getString(1)).toMap
      assert(filled.size == 100)
      assert(filled.values.forall(smallest),
             s"$parts partitions: ${filled.values.filterNot(smallest).toSeq.distinct.take(5)}")
      filled
    }
    val differ = fills(0).count { case (row, v) => fills(1)(row) != v }
    assert(differ == 0, "rows filled differently at 1 and 5 partitions")
  }

  test("impute leaves non-null values untouched") {
    val df = Seq(Some(5.0), Some(6.0), Some(7.0), None).toDF("x")
    val out = imputed(df, Seq("x"))
    assert(out.filter(col("x") === 5.0).count() == 1)
    assert(out.filter(col("x") === 7.0).count() == 1)
    assert(out.filter(col("x") === 6.0).count() == 2) // null → median 6
  }

  test("prepare returns only numeric double features") {
    val df = Seq((1.0, "a", 5), (2.0, "b", 6), (3.0, "a", 7)).toDF("x", "s", "i")
    val (out, feats) = prepared(df, Seq("x", "s", "i"))
    assert(feats.contains("x") && feats.contains("i"))
    assert(feats.exists(_.startsWith("s__is_")))
    feats.foreach { f =>
      assert(out.schema(f).dataType == org.apache.spark.sql.types.DoubleType)
    }
  }

  test("prepare preserves non-feature columns") {
    val df = Seq((1L, 1.0, "x", 0.0), (2L, 2.0, "y", 1.0)).toDF("id", "f", "c", "t")
    val (out, _) = prepared(df, Seq("f", "c"))
    assert(out.columns.contains("id") && out.columns.contains("t"))
  }

  test("prepare imputes a null categorical before binarizing it") {
    val df = Seq[(Long, Option[String], Option[Boolean])](
      (1L, Some("a"), Some(true)), (2L, Some("b"), Some(false)), (3L, Some("a"), Some(true)),
      (4L, None, None)).toDF("id", "s", "b")
    val (out, feats) = prepared(df, Seq("s", "b"))
    for (c <- Seq("s", "b")) {
      val inds = feats.filter(_.startsWith(s"${c}__is_"))
      assert(inds.size == 2)
      val row4 = out.filter(col("id") === 4L).select(inds.map(col): _*).head()
      assert(inds.indices.map(row4.getDouble).sorted == Seq(0.0, 1.0), s"$c: $row4")
    }
  }

  test("a boolean categorical that is null in every row fits, applies and has no indicator") {
    // A left-joined boolean payload with no match: no draws, no levels.
    val df = Seq[(Long, Double, Option[Boolean])]((1L, 1.0, None), (2L, 2.0, None))
      .toDF("id", "f", "b")
    val (out, feats) = prepared(df, Seq("f", "b"))
    assert(feats == Seq("f"))
    assert(out.columns.toSeq == Seq("id", "f"))
    assert(out.count() == 2)
  }

  test("prepare imputes nulls in features") {
    val df = Seq((1L, Some(1.0)), (2L, None), (3L, Some(3.0))).toDF("id", "f")
    val (out, feats) = prepared(df, Seq("f"))
    assert(out.filter(col("f").isNull).count() == 0)
    assert(feats == Seq("f"))
  }

  test("prepare row count is unchanged") {
    val df = Seq((1L, 1.0, "a"), (2L, 2.0, "b"), (3L, 3.0, "c")).toDF("id", "f", "c")
    val (out, _) = prepared(df, Seq("f", "c"))
    assert(out.count() == 3)
  }

  test("statistics fitted on one frame encode another frame's levels the same way") {
    val fitOn = Seq("b", "b", "b", "a", "c").toDF("s")
    val applyTo = Seq("a", "a", "a", "b", "c").toDF("s")
    val stats = Preprocess.fit(fitOn, Seq("s"))
    for (df <- Seq(fitOn, applyTo)) {
      val marked = stats(df.withColumn("orig", col("s"))).filter(col("s__is_0") === 1.0)
        .select("orig").distinct().collect().map(_.getString(0)).toSeq
      assert(marked == Seq("b"))
    }
  }

  test("fit runs two Spark jobs with three categoricals, one with none") {
    val df = spark.range(0, 200, 1, 4).select(col("id").as("x"),
      when(col("id") % 7 =!= 0, col("id") * 0.5).as("y"),
      when(col("id") % 5 =!= 0, (col("id") % 11).cast("string")).as("s"),
      when(col("id") % 3 =!= 0, col("id") % 2 === 0).as("b"),
      when(col("id") % 4 =!= 0, (col("id") % 3).cast("string")).as("t"))
    assert(jobsIn("fit-categorical")(Preprocess.fit(df, Seq("x", "y", "s", "b", "t"))) <= 2)
    assert(jobsIn("fit-numeric")(Preprocess.fit(df, Seq("x", "y"))) == 1)
  }

  test("fit's medians equal approxQuantile at relative error 0.01 at any partitioning") {
    // The same rows, collected once, at each partitioning. Both ignore
    // nulls and NaN.
    val src = spark.range(0, 2000, 1, 4).select(
      when(col("id") % 13 === 0, lit(Double.NaN)).when(col("id") % 9 =!= 0, randn(3) * 100).as("x"),
      when(col("id") % 4 =!= 0, (rand(5) * 1000).cast("int")).as("i"),
      lit(null).cast("double").as("none"))
    val rows = src.collect().toSeq
    val cols = Seq("x", "i", "none")
    for (parts <- Seq(1, 3, 8)) {
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, parts), src.schema)
      val expected = cols.zip(df.stat.approxQuantile(cols.toArray, Array(0.5), 0.01))
        .map { case (c, q) => c -> q.headOption.getOrElse(0.0) }
      assert(Preprocess.fit(df, cols).medians == expected, s"$parts partitions")
    }
  }
}
