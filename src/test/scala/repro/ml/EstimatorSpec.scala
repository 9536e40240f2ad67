package repro.ml

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.automl.AutoMLLite
import repro.core.TaskKind
import repro.fs.Rankers

class EstimatorSpec extends SparkSpec {
  import spark.implicits._

  private lazy val clsDf = spark.range(600).select(
    (col("id") % 2).cast("double").as("y"),
    ((col("id") % 2).cast("double") * 2 + randn(1) * 0.3).as("sig"),
    randn(2).as("noise")).cache()

  private lazy val regDf = spark.range(600).select(randn(3).as("sig"), randn(4).as("noise"))
    .withColumn("y", col("sig") * 3 + randn(5) * 0.1).cache()

  test("accuracy metric") {
    val (y, p) = (Array(1.0, 0.0, 1.0, 0.0), Array(1.0, 1.0, 1.0, 0.0))
    assert(Estimator.score(TaskKind.Classification, p, y) == 0.75)
  }

  test("mae metric") {
    assert(Estimator.score(TaskKind.Regression, Array(2.0, 1.0), Array(1.0, 3.0)) == -1.5)
  }

  test("classification holdout score is high with a separating feature") {
    val s = Estimator.holdoutScore(clsDf, Seq("sig"), "y", TaskKind.Classification)
    assert(s > 0.9, s"accuracy $s")
  }

  test("classification with noise only is near chance") {
    val s = Estimator.holdoutScore(clsDf, Seq("noise"), "y", TaskKind.Classification)
    assert(s < 0.65, s"accuracy $s")
  }

  test("regression score (−MAE) improves with the signal feature") {
    val withSig = Estimator.holdoutScore(regDf, Seq("sig"), "y", TaskKind.Regression)
    val without = Estimator.holdoutScore(regDf, Seq("noise"), "y", TaskKind.Regression)
    assert(withSig > without)
  }

  test("empty feature set scores MinValue") {
    assert(Estimator.holdoutScore(clsDf, Nil, "y", TaskKind.Classification) == Double.MinValue)
  }

  test("autoScore is at least the fast holdout score ballpark") {
    val fast = Estimator.holdoutScore(clsDf, Seq("sig", "noise"), "y", TaskKind.Classification)
    val auto = Estimator.autoScore(clsDf, Seq("sig", "noise"), "y", TaskKind.Classification)
    assert(auto >= fast - 0.05)
  }

  test("holdoutScore on a first pass over an unfilled cache equals later calls") {
    // The pinned test's 4-partition regression frame.
    val d = spark.range(0, 400, 1, 4).select(randn(13).as("sig"), randn(14).as("noise"))
      .withColumn("y", col("sig") * 2 + randn(15) * 0.5)
    val feats = Seq("sig", "noise")
    val scorers = Seq[DataFrame => Double](
      Estimator.holdoutScore(_, feats, "y", TaskKind.Regression),
      Estimator.autoScore(_, feats, "y", TaskKind.Regression),
      AutoMLLite.search(_, feats, "y", TaskKind.Regression, budgetSeconds = 0))
    // Each scorer's first call runs over a cache that is not filled yet.
    val calls = scorers.map { score =>
      d.unpersist(blocking = true)
      val cached = d.cache()
      try Seq.fill(3)(score(cached)) finally cached.unpersist(blocking = true)
    }
    calls.foreach(c => assert(c.distinct.size == 1, s"first and later calls: $calls"))
    // The same rows at 1 and at 5 partitions.
    val filled = d.cache()
    try {
      filled.count()
      val atPartitions = Seq(filled.coalesce(1), filled.repartition(5)).map(p => scorers.map(_(p)))
      assert(atPartitions.forall(_ == calls.map(_.head)),
             s"4 partitions ${calls.map(_.head)}, 1 and 5 partitions $atPartitions")
    } finally filled.unpersist(blocking = true)
  }

  test("autoScore on a cached frame runs exactly one Spark job, the collect") {
    val (cls, reg, feats) = (pinCls, pinReg, Seq("sig", "noise")) // filled caches
    assert(jobsIn("autoScore-cls")(Estimator.autoScore(cls, feats, "y", TaskKind.Classification)) == 1)
    assert(jobsIn("autoScore-reg")(Estimator.autoScore(reg, feats, "y", TaskKind.Regression)) == 1)
  }

  // Fixtures for pinned outputs: an explicit partition count, because
  // `randn` draws per partition, so the generated rows depend on it. Every
  // fit collects its rows in canonical order, so neither the partitioning
  // of the same rows nor a filled cache changes the values.
  private lazy val pinCls = {
    val d = spark.range(0, 400, 1, 4).select(
      (col("id") % 2).cast("double").as("y"),
      ((col("id") % 2).cast("double") + randn(11) * 0.8).as("sig"),
      randn(12).as("noise")).cache()
    d.count(); d
  }

  private lazy val pinReg = {
    val d = spark.range(0, 400, 1, 4).select(randn(13).as("sig"), randn(14).as("noise"))
      .withColumn("y", col("sig") * 2 + randn(15) * 0.5).cache()
    d.count(); d
  }

  test("fitting path outputs are pinned") {
    val feats = Seq("sig", "noise")
    val (c, r) = (TaskKind.Classification, TaskKind.Regression)
    val got = Seq(
      "holdout cls" -> Seq(Estimator.holdoutScore(pinCls, feats, "y", c)),
      "holdout reg" -> Seq(Estimator.holdoutScore(pinReg, feats, "y", r)),
      "auto cls"    -> Seq(Estimator.autoScore(pinCls, feats, "y", c)),
      "auto reg"    -> Seq(Estimator.autoScore(pinReg, feats, "y", r)),
      "rf rank cls" -> Rankers.RandomForestRanker.rank(pinCls, feats, "y", c, 3L).toSeq,
      "rf rank reg" -> Rankers.RandomForestRanker.rank(pinReg, feats, "y", r, 3L).toSeq,
      "automl cls"  -> Seq(AutoMLLite.search(pinCls, feats, "y", c, budgetSeconds = 0)),
      "automl reg"  -> Seq(AutoMLLite.search(pinReg, feats, "y", r, budgetSeconds = 0)))
    val pinned = Seq(
      "holdout cls" -> Seq(0.706766917293233),
      "holdout reg" -> Seq(-0.5964190839199756),
      "auto cls"    -> Seq(0.7142857142857143),
      "auto reg"    -> Seq(-0.5922630348513198),
      "rf rank cls" -> Seq(0.786559403767638, 0.21344059623236192),
      "rf rank reg" -> Seq(0.9728341361021258, 0.027165863897874162),
      "automl cls"  -> Seq(0.6992481203007519),
      "automl reg"  -> Seq(-0.5991460404166128))
    assert(got == pinned)
  }

  test("MatrixOps.collect round-trips values") {
    val df = Seq((1.0, 2.0, 0.0), (3.0, 4.0, 1.0)).toDF("a", "b", "y")
    val l = MatrixOps.collect(df, Seq("a", "b"), "y")
    assert(l.cols(0)(0) == 1.0 && l.cols(1)(1) == 4.0 && l.y(1) == 1.0)
  }

  test("MatrixOps.standardize yields zero mean unit variance") {
    val df = Seq((10.0, 0.0), (20.0, 0.0), (30.0, 0.0)).toDF("a", "y")
    val l = MatrixOps.collect(df, Seq("a"), "y")
    MatrixOps.standardize(l.cols)
    val col = (0 until 3).map(i => l.cols(0)(i))
    assert(math.abs(col.sum) < 1e-9)
    assert(math.abs(col.map(v => v * v).sum / 3 - 1.0) < 1e-9)
  }
}
