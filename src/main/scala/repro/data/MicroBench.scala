package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.util.Random

import repro.core.TaskKind

/** Micro-benchmark datasets (§7.2): synthetic stand-ins for the Kraken
  * supercomputer sensor logs and for sklearn's digits, with planted
  * ground-truth informative features — plus the paper's extreme-noise
  * protocol: appending 10× as many random noise features (uniform /
  * Gaussian / Bernoulli with random parameters) as original features.
  */
object MicroBench {

  /** A micro dataset: frame, feature columns, the ground-truth informative
    * subset, target column and task.
    */
  final case class Micro(name: String, df: DataFrame, features: Seq[String],
                         informative: Set[String], target: String, task: TaskKind)

  /** Kraken analogue: 1000 machines, binary failure label with the
    * paper's 568/432 class balance; 30 "sensor" features of which 8 are
    * informative, the rest irrelevant base features.
    */
  def kraken(spark: SparkSession, seed: Long = 606L): Micro = {
    val n = 1000L
    val nSensors = 30
    val informative = (0 until 8).map(i => s"s$i")
    val rnd = new Random(seed)
    val weights = informative.map(_ => 0.6 + rnd.nextDouble())
    val cols = (0 until nSensors).map(i => randn(seed + i).as(s"s$i"))
    val df0 = spark.range(n).select(col("id") +: cols: _*)
    val latent = informative.zip(weights).map { case (c, w) => col(c) * w }.reduce(_ + _) +
      randn(seed + 100) * 0.8
    // Threshold at ~0.17·σ of the latent to land near 568:432.
    val sd = math.sqrt(weights.map(w => w * w).sum + 0.64)
    val df = df0.withColumn("failure", (latent > 0.171 * sd).cast(DoubleType))
    Micro("Kraken", df, (0 until nSensors).map(i => s"s$i"), informative.toSet, "failure",
          TaskKind.Classification)
  }

  /** Digits analogue: 10 classes × 180 samples, 64 "pixel" features from
    * class prototypes + pixel noise; prototypes differ on a subset of
    * pixels so roughly half the pixels are informative.
    */
  def digits(spark: SparkSession, seed: Long = 707L): Micro = {
    val nPerClass = 180L
    val nClasses = 10
    val nPix = 64
    val rnd = new Random(seed)
    // Prototype pixel intensities per class; ~30% of pixels vary by class,
    // the rest share one value (uninformative). Pixel noise is large
    // relative to prototype separation so the task is non-trivial (the
    // paper's digits baseline is far from perfect).
    val shared = Array.fill(nPix)(rnd.nextDouble() * 16)
    val varies = Array.fill(nPix)(rnd.nextDouble() < 0.3)
    val protos = Array.tabulate(nClasses, nPix) { (_, p) =>
      if (varies(p)) rnd.nextDouble() * 16 else shared(p)
    }
    val base = spark.range(nPerClass * nClasses)
      .select(col("id"), (col("id") % nClasses).cast(DoubleType).as("digit"))
    val pixCols = (0 until nPix).map { p =>
      val lut = array((0 until nClasses).map(c => lit(protos(c)(p))): _*)
      (element_at(lut, col("digit").cast(IntegerType) + 1) + randn(seed + p) * 12.0).as(s"px$p")
    }
    val df = base.select(Seq(col("id"), col("digit")) ++ pixCols: _*)
    val informative = (0 until nPix).filter(varies).map(p => s"px$p").toSet
    Micro("Digits", df, (0 until nPix).map(p => s"px$p"), informative, "digit",
          TaskKind.Classification)
  }

  /** Append `factor`× random noise features drawn from uniform / Gaussian /
    * Bernoulli with randomly initialized parameters (§7.2). Returns the
    * augmented Micro with noise columns added to `features`.
    */
  def withNoise(m: Micro, factor: Int = 10, seed: Long = 808L): Micro = {
    val rnd = new Random(seed)
    val t = m.features.length * factor
    val noiseCols: Seq[Column] = (0 until t).map { i =>
      rnd.nextInt(3) match {
        case 0 => (rand(seed + i) * (1 + 9 * rnd.nextDouble()) + rnd.nextDouble() * 4 - 2).as(s"noise$i")
        case 1 => (randn(seed + i) * (0.5 + 2 * rnd.nextDouble()) + rnd.nextDouble() * 2 - 1).as(s"noise$i")
        case _ => when(rand(seed + i) < 0.2 + 0.6 * rnd.nextDouble(), 1.0).otherwise(0.0).as(s"noise$i")
      }
    }
    val df = m.df.select(m.df.columns.map(col).toSeq ++ noiseCols: _*)
    m.copy(df = df, features = m.features ++ (0 until t).map(i => s"noise$i"))
  }
}
