package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.util.Random

import repro.core._

/** Synthetic augmentation worlds substituting the paper's real datasets
  * (NYC Open Data / DARPA D3M / NYU Auctus repositories are unreachable —
  * see DESIGN.md). Each world is a base table whose target mixes weak
  * base features with *hidden* signal columns that live only in foreign
  * tables, plus a repository where a few tables carry those signals and
  * the rest carry pure noise.
  *
  * Signals are deterministic functions of the join key (`sin(a·key + b)`)
  * so the base-table target and the foreign-table payload agree without
  * any shuffle; time worlds store the signal at a finer granularity (with
  * intra-period noise) so resampling / soft joins are exercised; key
  * domains are sized so the Tuple-Ratio prefilter removes the same
  * *proportion* of tables the paper reports per dataset (Table 4).
  */
object SynthWorlds {

  /** A generated world: the task plus ground truth about which candidate
    * tables carry signal (for assertions; ARDA never sees this).
    */
  final case class World(task: AugTask, signalTables: Set[String])

  private val Day = 86400.0
  private val Hour = 3600.0
  private val Minute = 60.0
  // Day-aligned epoch base (multiple of 86400) so granularity inference
  // sees day-resolution keys as exact day multiples.
  private val Epoch0 = 17400L * 86400.0

  /** Signal value for an integer-like index expression. */
  private def sig(idx: Column, a: Double, b: Double): Column = sin(idx * a + b)

  /** A hard-keyed foreign table over domain 1..K: optional signal column
    * plus noise payload; `coverage` drops a fraction of keys; `fanout`>1
    * duplicates keys (one-to-many, forcing pre-aggregation).
    */
  private def hardForeign(spark: SparkSession, fk: String, k: Long,
                          signal: Option[(Double, Double, Double)], // (a, b, jitter)
                          nNoise: Int, coverage: Double, fanout: Int,
                          seed: Long, withCat: Boolean = false): DataFrame = {
    val n = k * fanout
    val base = spark.range(n).select(((col("id") % k) + 1).as(fk))
      .filter(rand(seed) < coverage)
    val sigCols = signal.toSeq.map { case (a, b, j) =>
      (sig(col(fk), a, b) + randn(seed + 1) * j).as("sig")
    }
    val noiseCols = (0 until nNoise).map(i => randn(seed + 2 + i).as(s"n$i"))
    val catCols = if (withCat)
      Seq(element_at(array(lit("u"), lit("v"), lit("w")),
                     (rand(seed + 99) * 3 + 1).cast(IntegerType)).as("cat"))
    else Nil
    base.select(col(fk) +: (sigCols ++ noiseCols ++ catCols): _*)
  }

  /** A time-keyed foreign table: keys at `gran`-second resolution over
    * `periods` periods of `periodGran` seconds starting at Epoch0. Signal
    * is a function of the *period* index plus intra-period jitter, so
    * aggregating to the period granularity recovers it.
    */
  private def timeForeign(spark: SparkSession, fk: String, periods: Long, periodGran: Double, gran: Double,
                          signal: Option[(Double, Double, Double)],
                          nNoise: Int, coverage: Double, seed: Long): DataFrame = {
    val perPeriod = math.max(1L, (periodGran / gran).toLong)
    val base = spark.range(periods * perPeriod)
      .select((lit(Epoch0) + col("id").cast(DoubleType) * gran).as(fk))
      .filter(rand(seed) < coverage)
    val periodIdx = floor(col(fk) / periodGran)
    val sigCols = signal.toSeq.map { case (a, b, j) =>
      (sig(periodIdx, a, b) + randn(seed + 1) * j).as("sig")
    }
    val noiseCols = (0 until nNoise).map(i => randn(seed + 2 + i).as(s"n$i"))
    base.select(col(fk) +: (sigCols ++ noiseCols): _*)
  }

  /** Latent-to-target: regression adds observation noise; classification
    * thresholds at the (approximately zero) latent median.
    */
  private def toTarget(latent: Column, task: TaskKind, noise: Double, seed: Long): Column =
    task match {
      case TaskKind.Regression     => latent + randn(seed) * noise
      case TaskKind.Classification => (latent + randn(seed) * noise > 0).cast(DoubleType)
    }

  // ----------------------------------------------------------------- taxi
  /** Taxi (regression): one row per day over 4 years; soft day-granularity
    * time key; 29 candidates — 4 signal (3 hourly soft tables + 1
    * one-to-many daily table), 15 fine-keyed noise, 10 month-keyed noise
    * (month domain 48 ⇒ TR = 1460/48 ≈ 30, removed at the paper's τ = 24).
    */
  def taxi(spark: SparkSession, seed: Long = 101L): World = {
    val nDays = 1460L
    val rnd = new Random(seed)
    val day = floor(col("ts") / Day)
    val sigs = Seq.tabulate(3)(i => (0.5 + 2.5 * rnd.nextDouble(), rnd.nextDouble() * 6, 0.9 - 0.2 * i))
    val s4 = (0.5 + 2.5 * rnd.nextDouble(), rnd.nextDouble() * 6, 0.9)
    val base = spark.range(nDays)
      .select(col("id"),
              (lit(Epoch0) + col("id").cast(DoubleType) * Day).as("ts"))
      .withColumn("month", (floor((col("ts") - Epoch0) / (30 * Day)) + 1).cast(LongType))
      .withColumn("b1", randn(seed + 1))
      .withColumn("b2", randn(seed + 2))
      .withColumn("b3", randn(seed + 3))
      .withColumn("cat0", element_at(array(lit("A"), lit("B"), lit("C"), lit("D")),
                                     (rand(seed + 4) * 4 + 1).cast(IntegerType)))
    // The hourly signal tables index by floor(ts/Day) (same formula as
    // timeForeign); the daily one-to-many "events" table indexes its hard
    // domain 1..nDays, which equals id+1 here (one base row per day).
    val latent = col("b1") + col("b2") * 0.5 +
      when(col("cat0") === "A", 0.4).otherwise(0.0) +
      sigs.map { case (a, b, _) => sig(day, a, b) }.reduce(_ + _) * 0.9 +
      sig(col("id") + 1, s4._1, s4._2) * 0.9
    val withT = base.withColumn("trips", toTarget(latent, TaskKind.Regression, 0.4, seed + 5))

    def softKey = Seq(KeyPair("ts", "ts", KeyKind.Soft))
    def monthKey = Seq(KeyPair("month", "month", KeyKind.Hard))

    val signalCands = sigs.zipWithIndex.map { case ((a, b, j), i) =>
      CandidateJoin(s"weather$i",
        timeForeign(spark, "ts", nDays, Day, Hour, Some((a, b, j)), 2, 0.92, seed + 10 + i),
        softKey)
    } :+ CandidateJoin("events",
      hardForeign(spark, "ts_day", nDays, Some((s4._1, s4._2, s4._3)), 2, 0.95, 3, seed + 20)
        .withColumn("ts_day", lit(Epoch0) + (col("ts_day") - 1).cast(DoubleType) * Day),
      Seq(KeyPair("ts", "ts_day", KeyKind.Soft)))
    val fineNoise = (0 until 15).map { i =>
      CandidateJoin(s"tnoise$i",
        timeForeign(spark, "ts", nDays, Day, if (i % 2 == 0) Hour else Day,
                    None, 2 + i % 3, 0.9, seed + 30 + i),
        softKey)
    }
    val monthNoise = (0 until 10).map { i =>
      CandidateJoin(s"mnoise$i",
        hardForeign(spark, "month", 48, None, 2 + i % 3, 0.95, 1, seed + 60 + i, withCat = i % 4 == 0),
        monthKey)
    }
    World(
      AugTask("Taxi", withT, "trips", TaskKind.Regression,
              signalCands ++ fineNoise ++ monthNoise,
              baseFeatures = Some(Seq("b1", "b2", "b3", "cat0"))),
      signalCands.map(_.name).toSet)
  }

  // --------------------------------------------------------------- pickup
  /** Pickup (regression): one row per hour over 90 days; 23 candidates —
    * 3 signal (2 minute-keyed soft + 1 strong day-keyed, which the TR rule
    * removes: day domain 90 ⇒ TR = 2160/90 = 24 ≥ τ = 17, explaining the
    * paper's −15% score change), 4 fine noise, 16 day-keyed noise.
    */
  def pickup(spark: SparkSession, seed: Long = 202L): World = {
    val nDays = 90L
    val nHours = nDays * 24
    val rnd = new Random(seed)
    val hourIdx = floor(col("ts") / Hour)
    val sigsFine = Seq.fill(2)((0.5 + 2.0 * rnd.nextDouble(), rnd.nextDouble() * 6, 0.8))
    val sigDay = (0.5 + 2.0 * rnd.nextDouble(), rnd.nextDouble() * 6, 0.5)
    val base = spark.range(nHours)
      .select(col("id"), (lit(Epoch0) + col("id").cast(DoubleType) * Hour).as("ts"))
      .withColumn("day", (floor((col("ts") - Epoch0) / Day) + 1).cast(LongType))
      .withColumn("b1", randn(seed + 1))
      .withColumn("b2", randn(seed + 2))
      .withColumn("b3", randn(seed + 3))
    // Fine signals index by floor(ts/Hour) (matches timeForeign); the
    // day-keyed signal indexes the base "day" column (domain 1..nDays,
    // matching the hard foreign table's key domain).
    val latent = col("b1") + col("b2") * 0.5 +
      sigsFine.map { case (a, b, _) => sig(hourIdx, a, b) }.reduce(_ + _) * 0.9 +
      sig(col("day"), sigDay._1, sigDay._2) * 1.3
    val withT = base.withColumn("pickups", toTarget(latent, TaskKind.Regression, 0.4, seed + 5))

    def softKey = Seq(KeyPair("ts", "ts", KeyKind.Soft))
    val signalCands = sigsFine.zipWithIndex.map { case ((a, b, j), i) =>
      CandidateJoin(s"flights$i",
        timeForeign(spark, "ts", nHours, Hour, Minute, Some((a, b, j)), 2, 0.92, seed + 10 + i),
        softKey)
    } :+ CandidateJoin("daystats",
      hardForeign(spark, "day", nDays, Some((sigDay._1, sigDay._2, sigDay._3)), 2, 1.0, 1, seed + 20),
      Seq(KeyPair("day", "day", KeyKind.Hard)))
    val fineNoise = (0 until 4).map { i =>
      CandidateJoin(s"tnoise$i",
        timeForeign(spark, "ts", nHours, Hour, if (i % 2 == 0) Minute else Hour,
                    None, 2 + i % 3, 0.9, seed + 30 + i),
        softKey)
    }
    val dayNoise = (0 until 16).map { i =>
      CandidateJoin(s"dnoise$i",
        hardForeign(spark, "day", nDays, None, 2 + i % 3, 0.95, 1, seed + 50 + i, withCat = i % 5 == 0),
        Seq(KeyPair("day", "day", KeyKind.Hard)))
    }
    World(
      AugTask("Pickup", withT, "pickups", TaskKind.Regression,
              signalCands ++ fineNoise ++ dayNoise,
              baseFeatures = Some(Seq("b1", "b2", "b3"))),
      signalCands.map(_.name).toSet)
  }

  // -------------------------------------------------------------- poverty
  /** Poverty (regression): county-keyed; 39 candidates — 2 strong signal +
    * 1 noise keyed by county (TR = 3, kept), 3 weak signal + 33 noise
    * keyed by region (domain 16 ⇒ TR = 150, removed at τ = 15 — matching
    * the paper's 36-of-39 removal with a ~1% score cost).
    */
  def poverty(spark: SparkSession, seed: Long = 303L): World = {
    val nRows = 2400L
    val kCounty = 800L
    val kRegion = 16L
    val rnd = new Random(seed)
    val strong = Seq.tabulate(2)(_ => (0.5 + 2.5 * rnd.nextDouble(), rnd.nextDouble() * 6, 0.15))
    val weak   = Seq.tabulate(3)(_ => (0.5 + 2.5 * rnd.nextDouble(), rnd.nextDouble() * 6, 0.15))
    val base = spark.range(nRows)
      .select(col("id"),
              (rand(seed) * kCounty + 1).cast(LongType).as("county"),
              (rand(seed + 1) * kRegion + 1).cast(LongType).as("region"),
              randn(seed + 2).as("b1"), randn(seed + 3).as("b2"), randn(seed + 4).as("b3"))
    val latent = col("b1") + col("b2") * 0.5 +
      strong.map { case (a, b, _) => sig(col("county"), a, b) }.reduce(_ + _) * 1.1 +
      weak.map { case (a, b, _) => sig(col("region"), a, b) }.reduce(_ + _) * 0.3
    val withT = base.withColumn("poverty_rate", toTarget(latent, TaskKind.Regression, 0.4, seed + 5))

    val countySignal = strong.zipWithIndex.map { case ((a, b, j), i) =>
      CandidateJoin(s"census$i",
        hardForeign(spark, "county", kCounty, Some((a, b, j)), 3, 0.92, 1, seed + 10 + i),
        Seq(KeyPair("county", "county", KeyKind.Hard)))
    }
    val countyNoise = Seq(CandidateJoin("cnoise0",
      hardForeign(spark, "county", kCounty, None, 4, 0.9, 1, seed + 20),
      Seq(KeyPair("county", "county", KeyKind.Hard))))
    val regionSignal = weak.zipWithIndex.map { case ((a, b, j), i) =>
      CandidateJoin(s"rstats$i",
        hardForeign(spark, "region", kRegion, Some((a, b, j)), 2, 1.0, 1, seed + 30 + i),
        Seq(KeyPair("region", "region", KeyKind.Hard)))
    }
    val regionNoise = (0 until 33).map { i =>
      CandidateJoin(s"rnoise$i",
        hardForeign(spark, "region", kRegion, None, 2 + i % 4, 1.0, 1,
                    seed + 40 + i, withCat = i % 6 == 0),
        Seq(KeyPair("region", "region", KeyKind.Hard)))
    }
    World(
      AugTask("Poverty", withT, "poverty_rate", TaskKind.Regression,
              countySignal ++ countyNoise ++ regionSignal ++ regionNoise,
              baseFeatures = Some(Seq("b1", "b2", "b3"))),
      (countySignal ++ regionSignal).map(_.name).toSet)
  }

  // --------------------------------------------------------------- school
  /** School (classification): district-keyed binary target. Small variant:
    * 16 candidates — 4 signal + 10 noise on district (TR = 4, kept), 2
    * noise on state (domain 12 ⇒ TR = 167, removed at τ = 15 — the
    * paper's 2-of-16). Large variant: `nTables` candidates with the same
    * ~11% state-keyed proportion (paper: 39 of 350) and one weak
    * state-keyed signal (paper: −5% after filtering).
    */
  def school(spark: SparkSession, large: Boolean, nTables: Int = 120, seed: Long = 404L): World = {
    val nRows = 2000L
    val kDistrict = 500L
    val kState = 12L
    val rnd = new Random(seed)
    val nSignal = if (large) 5 else 4
    val strong = Seq.tabulate(nSignal)(_ => (0.5 + 2.5 * rnd.nextDouble(), rnd.nextDouble() * 6, 0.15))
    val weakState = (0.5 + 2.5 * rnd.nextDouble(), rnd.nextDouble() * 6, 0.15)
    val base = spark.range(nRows)
      .select(col("id"),
              (rand(seed) * kDistrict + 1).cast(LongType).as("district"),
              (rand(seed + 1) * kState + 1).cast(LongType).as("state"),
              randn(seed + 2).as("b1"), randn(seed + 3).as("b2"),
              element_at(array(lit("pub"), lit("priv"), lit("charter")),
                         (rand(seed + 4) * 3 + 1).cast(IntegerType)).as("cat0"))
    val latent = col("b1") * 0.6 + col("b2") * 0.3 +
      when(col("cat0") === "priv", 0.3).otherwise(0.0) +
      strong.map { case (a, b, _) => sig(col("district"), a, b) }.reduce(_ + _) * 1.0 +
      (if (large) sig(col("state"), weakState._1, weakState._2) * 0.4 else lit(0.0))
    val withT = base.withColumn("passed", toTarget(latent, TaskKind.Classification, 0.35, seed + 5))

    val distKey  = Seq(KeyPair("district", "district", KeyKind.Hard))
    val stateKey = Seq(KeyPair("state", "state", KeyKind.Hard))
    val signalCands = strong.zipWithIndex.map { case ((a, b, j), i) =>
      CandidateJoin(s"demo$i",
        hardForeign(spark, "district", kDistrict, Some((a, b, j)), 2, 0.93,
                    if (i == 0) 2 else 1, seed + 10 + i),
        distKey)
    } ++ (if (large) Seq(CandidateJoin("statesig",
      hardForeign(spark, "state", kState, Some((weakState._1, weakState._2, weakState._3)),
                  2, 1.0, 1, seed + 19),
      stateKey)) else Nil)
    val nStateNoise = if (large) math.max(1, (nTables * 11) / 100 - (if (large) 1 else 0)) else 2
    val nDistNoise  = nTables - signalCands.length - nStateNoise
    val distNoise = (0 until nDistNoise).map { i =>
      CandidateJoin(s"dnoise$i",
        hardForeign(spark, "district", kDistrict, None, 2 + i % 4, 0.9, 1,
                    seed + 30 + i, withCat = i % 7 == 0),
        distKey)
    }
    val stateNoise = (0 until nStateNoise).map { i =>
      CandidateJoin(s"snoise$i",
        hardForeign(spark, "state", kState, None, 2 + i % 3, 1.0, 1, seed + 900 + i),
        stateKey)
    }
    World(
      AugTask(if (large) "School (L)" else "School (S)", withT, "passed", TaskKind.Classification,
              signalCands ++ distNoise ++ stateNoise,
              baseFeatures = Some(Seq("b1", "b2", "cat0"))),
      signalCands.map(_.name).toSet)
  }

  def schoolS(spark: SparkSession, seed: Long = 404L): World = school(spark, large = false, 16, seed)
  def schoolL(spark: SparkSession, nTables: Int = 120, seed: Long = 505L): World =
    school(spark, large = true, nTables, seed)

  /** All real-world-analogue datasets (Table 1 rows). */
  def all(spark: SparkSession): Seq[World] =
    Seq(taxi(spark), pickup(spark), poverty(spark), schoolS(spark), schoolL(spark))
}
