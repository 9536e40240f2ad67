package repro.automl

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.TaskKind

class AutoMLLiteSpec extends SparkSpec {

  test("classification search beats chance with a separating feature") {
    val df = spark.range(500).select(
      (col("id") % 2).cast("double").as("y"),
      ((col("id") % 2).cast("double") * 2 + randn(1) * 0.4).as("sig"),
      randn(2).as("noise"))
    val s = AutoMLLite.search(df, Seq("sig", "noise"), "y", TaskKind.Classification,
                              budgetSeconds = 20)
    assert(s > 0.85, s"accuracy $s")
  }

  test("regression search finds a low-MAE model") {
    val df = spark.range(500).select(randn(3).as("sig"), randn(4).as("noise"))
      .withColumn("y", col("sig") * 2 + randn(5) * 0.1)
    val s = AutoMLLite.search(df, Seq("sig", "noise"), "y", TaskKind.Regression,
                              budgetSeconds = 20)
    assert(-s < 0.6, s"MAE ${-s}")
  }

  test("empty feature list returns MinValue") {
    val df = spark.range(10).select((col("id") % 2).cast("double").as("y"))
    assert(AutoMLLite.search(df, Nil, "y", TaskKind.Classification) == Double.MinValue)
  }

  test("runs at least one candidate even with a zero budget") {
    val df = spark.range(200).select(
      (col("id") % 2).cast("double").as("y"), randn(1).as("f"))
    val s = AutoMLLite.search(df, Seq("f"), "y", TaskKind.Classification, budgetSeconds = 0)
    assert(s > 0.0)
  }

  test("handles multiclass labels") {
    val df = spark.range(300).select(
      (col("id") % 3).cast("double").as("y"),
      ((col("id") % 3).cast("double") + randn(1) * 0.2).as("sig"))
    val s = AutoMLLite.search(df, Seq("sig"), "y", TaskKind.Classification, budgetSeconds = 15)
    assert(s > 0.8, s"accuracy $s")
  }
}
