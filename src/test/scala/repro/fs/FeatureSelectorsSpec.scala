package repro.fs

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.TaskKind

class FeatureSelectorsSpec extends SparkSpec {

  // Filled caches, so the one job left is the selector's own collect.
  private lazy val cls = {
    val d = spark.range(0, 300, 1, 4).select(
      (col("id") % 2).cast("double").as("y"),
      ((col("id") % 2).cast("double") * 2 + randn(1) * 0.5).as("sig"),
      randn(2).as("n1"), randn(3).as("n2")).cache()
    d.count(); d
  }

  private lazy val reg = {
    val d = spark.range(0, 300, 1, 4).select(randn(4).as("sig"), randn(5).as("n1"), randn(6).as("n2"))
      .withColumn("y", col("sig") * 3 + randn(7) * 0.2).cache()
    d.count(); d
  }

  private val feats = Seq("sig", "n1", "n2")

  test("every standard selector runs exactly one Spark job per select on a cached frame") {
    val jobs = for {
      (df, task) <- Seq(cls -> TaskKind.Classification, reg -> TaskKind.Regression)
      sel <- FeatureSelectors.standard(Rifs.RifsConfig(repeats = 2)) if sel.supports(task)
    } yield s"${sel.name} ($task)" -> jobsIn(s"select ${sel.name} $task")(sel.select(df, feats, "y", task, 1L))
    assert(jobs.size == 21)
    assert(jobs.forall(_._2 == 1), jobs.filter(_._2 != 1).mkString(", "))
  }
}
