package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

class CoresetSpec extends SparkSpec {

  private def labelled(n: Int) =
    spark.range(n).select(col("id"),
      (col("id") % 4).cast("double").as("y"), rand(1).as("f"))

  test("uniform sample returns at most the requested size") {
    val out = Coreset.uniform(labelled(5000), 500, 1L)
    assert(out.count() <= 500)
    assert(out.count() > 300)
  }

  test("uniform sample of a small table is the table itself") {
    val df = labelled(50)
    assert(Coreset.uniform(df, 500, 1L).count() == 50)
  }

  test("uniform sampling is deterministic in the seed") {
    val a = Coreset.uniform(labelled(5000), 500, 7L).agg(sum("id")).head().getLong(0)
    val b = Coreset.uniform(labelled(5000), 500, 7L).agg(sum("id")).head().getLong(0)
    assert(a == b)
  }

  test("stratified sampling keeps every label") {
    val out = Coreset.stratified(labelled(4000), "y", 400, 3L)
    val labels = out.select("y").distinct().collect().map(_.getDouble(0)).toSet
    assert(labels == Set(0.0, 1.0, 2.0, 3.0))
  }

  test("stratified sampling is approximately proportional") {
    val out = Coreset.stratified(labelled(8000), "y", 800, 3L)
    val counts = out.groupBy("y").count().collect().map(_.getLong(1))
    val (mn, mx) = (counts.min, counts.max)
    assert(mx.toDouble / mn < 1.6, s"strata too unbalanced: ${counts.toSeq}")
  }

  // Ordered by label over 8 partitions: label 0 fills the first half,
  // labels 1 and 2 a quarter each.
  private lazy val byLabel = {
    val d = spark.range(0, 4000, 1, 8).select(col("id"),
      when(col("id") < 2000, 0.0).when(col("id") < 3000, 1.0).otherwise(2.0).as("y"),
      (col("id") * 7 % 13).cast("double").as("f")).cache()
    d.count(); d
  }

  test("uniform sample keeps each label's share of an input ordered by label") {
    val out = Coreset.uniform(byLabel, 400, 5L)
    assert(out.count() == 400)
    val share = out.groupBy("y").count().collect().map(r => r.getDouble(0) -> r.getLong(1) / 400.0).toMap
    for ((label, expected) <- Seq(0.0 -> 0.5, 1.0 -> 0.25, 2.0 -> 0.25))
      assert(math.abs(share.getOrElse(label, 0.0) - expected) <= 0.25 * expected,
             s"label shares $share, expected 0.5 / 0.25 / 0.25")
  }

  test("uniform and stratified samples do not depend on partitioning") {
    val samplers = Seq[org.apache.spark.sql.DataFrame => org.apache.spark.sql.DataFrame](
      Coreset.uniform(_, 300, 9L), Coreset.stratified(_, "y", 300, 9L))
    for (sample <- samplers) {
      val ids = Seq(byLabel.coalesce(1), byLabel.repartition(5))
        .map(df => sample(df).select("id").collect().map(_.getLong(0)).sorted.toSeq)
      assert(ids.head.size == 300)
      assert(ids.head == ids(1), s"${ids.head.diff(ids(1)).size} of 300 ids differ")
    }
  }

  test("sketches do not depend on partitioning") {
    for (task <- Seq(TaskKind.Classification, TaskKind.Regression)) {
      val sketches = Seq(byLabel.coalesce(1), byLabel.repartition(5)).map { df =>
        Coreset.sketch(df, Seq("f"), "y", task, 60, 9L)
          .collect().map(r => (r.getDouble(0), r.getDouble(1))).sorted.toSeq
      }
      assert(sketches.head == sketches(1), s"$task")
    }
  }

  test("build dispatches stratified for classification") {
    val cfg = ArdaConfig(coresetStrategy = CoresetStrategy.Stratified, coresetSize = 300)
    val out = Coreset.build(labelled(3000), "y", TaskKind.Classification, cfg)
    assert(out.select("y").distinct().count() == 4)
  }

  test("sketch for classification preserves labels and compresses rows") {
    val df = labelled(2000)
    val out = Coreset.sketch(df, Seq("f"), "y", TaskKind.Classification, 50, 5L)
    assert(out.count() <= 4 * 50)
    assert(out.columns.toSet == Set("y", "f"))
    val labels = out.select("y").distinct().count()
    assert(labels == 4)
  }

  test("sketch for regression compresses to at most the bucket count") {
    val df = spark.range(3000).select(rand(2).as("y"), randn(3).as("f1"), randn(4).as("f2"))
    val out = Coreset.sketch(df, Seq("f1", "f2"), "y", TaskKind.Regression, 64, 5L)
    assert(out.count() <= 64)
    assert(out.columns.toSet == Set("y", "f1", "f2"))
  }

  test("sketch bucket sums equal signed column sums (count-sketch identity)") {
    // With one bucket, the sketch equals the signed sum of all rows; in
    // expectation over signs it is 0, but the identity we check is that a
    // single-bucket sketch of an all-ones column has integer value of the
    // signed row count.
    val df = spark.range(100).select(lit(0.0).as("y"), lit(1.0).as("f"))
    val out = Coreset.sketch(df, Seq("f"), "y", TaskKind.Regression, 1, 5L)
    val v = out.select("f").head().getDouble(0)
    assert(v == math.rint(v))
    assert(math.abs(v) <= 100)
  }

  test("sketch approximately preserves column norms (subspace embedding)") {
    // ‖S·a‖² concentrates around ‖a‖² for a count-sketch S.
    val df = spark.range(4000).select(lit(0.0).as("y"), randn(11).as("f"))
    val trueNorm = df.agg(sum(col("f") * col("f"))).head().getDouble(0)
    val sk = Coreset.sketch(df, Seq("f"), "y", TaskKind.Regression, 256, 5L)
    val skNorm = sk.agg(sum(col("f") * col("f"))).head().getDouble(0)
    assert(math.abs(skNorm - trueNorm) / trueNorm < 0.5,
           s"sketch norm $skNorm vs $trueNorm")
  }
}
