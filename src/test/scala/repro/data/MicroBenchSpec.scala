package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.TaskKind

class MicroBenchSpec extends SparkSpec {

  private lazy val kraken = MicroBench.kraken(spark)
  private lazy val digits = MicroBench.digits(spark)

  test("kraken has 1000 rows and the paper's class balance") {
    assert(kraken.df.count() == 1000)
    val pos = kraken.df.filter(col("failure") === 1.0).count()
    assert(math.abs(pos - 432) < 60, s"positives $pos (paper: 432)")
  }

  test("kraken has 30 sensor features, 8 informative") {
    assert(kraken.features.size == 30)
    assert(kraken.informative.size == 8)
    assert(kraken.task == TaskKind.Classification)
  }

  test("digits has 10 classes with ~180 samples each") {
    assert(digits.df.count() == 1800)
    val counts = digits.df.groupBy("digit").count().collect()
    assert(counts.length == 10)
    counts.foreach(r => assert(r.getLong(1) == 180))
  }

  test("digits has 64 pixel features") {
    assert(digits.features.size == 64)
    assert(digits.informative.nonEmpty && digits.informative.size < 64)
  }

  test("withNoise appends 10x noise features") {
    val noisy = MicroBench.withNoise(kraken, factor = 10)
    assert(noisy.features.size == 30 * 11)
    assert(noisy.df.columns.count(_.startsWith("noise")) == 300)
    assert(noisy.df.count() == 1000)
  }

  test("noise features are uncorrelated with the kraken label") {
    val noisy = MicroBench.withNoise(kraken, factor = 1, seed = 99L)
    val corr = noisy.df.stat.corr("noise0", "failure")
    assert(math.abs(corr) < 0.12, s"corr $corr")
  }

  test("informative kraken features separate the classes") {
    val f = kraken.informative.head
    val means = kraken.df.groupBy("failure").agg(avg(f)).collect()
      .map(r => r.getDouble(0) -> r.getDouble(1)).toMap
    assert(math.abs(means(1.0) - means(0.0)) > 0.2)
  }

  test("micro datasets are deterministic") {
    val a = MicroBench.kraken(spark).df.agg(sum("s0")).head().getDouble(0)
    val b = MicroBench.kraken(spark).df.agg(sum("s0")).head().getDouble(0)
    assert(a == b)
  }
}
