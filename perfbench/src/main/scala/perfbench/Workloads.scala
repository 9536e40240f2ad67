package perfbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core._
import repro.data.{MicroBench, SynthWorlds}
import repro.exp.Harness
import repro.fs.{FeatureSelector, FeatureSelectors, Rankers, Rifs}
import repro.ml.{Estimator, MatrixOps}

/** What one ARDA run produced, and what its output checks found.
  *
  * @param failures one message per broken output invariant: LEFT joins
  *                 that lost or duplicated coreset rows, a coreset of the
  *                 wrong size, selected features that were never offered
  * @param counts   per-run layer counts (candidates, features, selector calls)
  */
final case class Outcome(
    task: TaskKind,
    baseline: Double,
    augmented: Double,
    signalRecall: Double,
    noiseKept: Double,
    failures: Seq[String],
    counts: Map[String, Double],
) {
  /** The paper's headline shape: the augmented score beats the baseline.
    * It is a property of the generated world as much as of the program,
    * so a miss is counted, not treated as a broken output.
    */
  def gainMiss: Boolean = augmented <= baseline
}

/** A workload's inputs, generated from the seed and cached. */
trait Prepared {
  /** One closed-loop ARDA run, with spans around each layer's calls. */
  def run(tr: Tracer): Outcome
  /** Layer probes for the traced run: metric name → value. */
  def probes(tr: Tracer): Map[String, Double]
  def release(): Unit
}

/** A named benchmark workload. */
trait Workload {
  def name: String
  def setup(spark: SparkSession, seed: Long): Prepared
}

object Workloads {

  /** The program's own seed for sampling, model fits and noise injection.
    * Fixed, so that only the generated inputs change with `--seed`.
    */
  val ProgramSeed = 13L

  val all: Seq[Workload] = Seq(KrakenRifs, SchoolLTr, TaxiRifs)

  /** RIFS for both RIFS workloads: the bench config cut to two repeats and
    * the single threshold 1.0 (keep what beat all injected noise both
    * times). Every run then makes the same number of fits, 2 × (RF + ℓ2,1
    * ranking) + 1 holdout fit, so run time does not depend on where a
    * threshold sweep happens to stop for a given world.
    */
  val RifsCfg: Rifs.RifsConfig = Harness.RifsBench.copy(repeats = 2, thresholds = Seq(1.0))

  def byName(n: String): Option[Workload] = all.find(_.name == n)

  /** Wraps the selector ARDA calls: times it in an `fs.select` span and
    * records what it was offered and what it kept.
    */
  final class TimedSelector(inner: FeatureSelector, tr: Tracer) extends FeatureSelector {
    val name: String = inner.name
    override def supports(task: TaskKind): Boolean = inner.supports(task)
    var calls = 0
    var nOffered = 0
    var nKept = 0
    val offered = mutable.LinkedHashSet.empty[String]
    val strays = mutable.Buffer.empty[String]

    def select(df: DataFrame, features: Seq[String], target: String,
               task: TaskKind, seed: Long): Seq[String] = tr.span("fs.select") {
      val out = inner.select(df, features, target, task, seed)
      calls += 1; nOffered += features.size; nKept += out.size
      offered ++= features
      strays ++= out.filterNot(features.toSet)
      out
    }

    def counts: Map[String, Double] = Map(
      "fs.calls" -> calls.toDouble,
      "fs.selected_frac" -> (if (nOffered == 0) 0.0 else nKept.toDouble / nOffered))
  }

  private def cached(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }

  /** Rows equal `rows` and ids are unique: the LEFT-join preservation
    * check, or the coreset's row count.
    */
  private def rowCheck(what: String, df: DataFrame, id: String, rows: Long): Seq[String] = {
    val n = df.count()
    val ids = df.select(col(id)).distinct().count()
    if (n == rows && ids == rows) Nil
    else Seq(s"$what: $n rows, $ids distinct ids, expected $rows")
  }

  private def subsetCheck(sel: TimedSelector, selected: Seq[String]): Seq[String] = {
    val notOffered = sel.strays ++ selected.filterNot(sel.offered)
    if (notOffered.isEmpty) Nil else Seq(s"selected features never offered: ${notOffered.distinct.take(5)}")
  }

  /** Median; 0 for no samples (a probe with nothing to probe). */
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Runs `body` `n` times, each in its own probe span; returns the wall
    * seconds of each call and the Spark jobs of all of them.
    */
  private def repeat(tr: Tracer, name: String, n: Int)(body: => Any): (Seq[Double], Int) = {
    tr.take()
    val secs = (0 until n).map { _ =>
      val t0 = System.nanoTime(); tr.span(name)(body); (System.nanoTime() - t0) / 1e9
    }
    (secs, tr.take().work.values.map(_.jobs).sum)
  }

  private def once(tr: Tracer, name: String)(body: => Any): Double = repeat(tr, name, 1)(body)._1.head

  /** Probes shared by every workload, on one selector input at coreset
    * shape: holdout fits, both RIFS rankers and the driver-side collect.
    */
  private def selectionProbes(tr: Tracer, df: DataFrame, feats: Seq[String], target: String,
                              task: TaskKind): Map[String, Double] = {
    val input = cached(df)
    try {
      val (fits, fitJobs) = repeat(tr, "probe.holdout", 3)(
        Estimator.holdoutScore(input, feats, target, task, ProgramSeed))
      val rf = once(tr, "probe.rf_rank")(
        Rankers.RandomForestRanker.rank(input, feats, target, task, ProgramSeed))
      val sr = once(tr, "probe.sr_rank")(
        new Rankers.SparseRegressionRanker().rank(input, feats, target, task, ProgramSeed))
      val (coll, _) = repeat(tr, "probe.collect", 3)(MatrixOps.collect(input, feats, target))
      Map(
        "estimator.holdout_fit_s" -> median(fits),
        "estimator.holdout_fit_max_s" -> fits.max,
        "estimator.jobs_per_fit" -> fitJobs.toDouble / fits.size,
        "rankers.rf_rank_s" -> rf,
        "rankers.sr_rank_s" -> sr,
        "matrixops.collect_s" -> median(coll))
    } finally input.unpersist(false)
  }

  // ------------------------------------------------------------ kraken_rifs
  /** Table 6 protocol on Kraken with appended noise: uniform coreset,
    * RIFS, final estimate on the full table; the baseline is the original
    * features. No joins, so JoinPlan and JoinExec do no work.
    */
  object KrakenRifs extends Workload {
    val name = "kraken_rifs"
    val CoresetRows = 700
    val NoiseFactor = 3

    def setup(spark: SparkSession, seed: Long): Prepared = {
      val m0 = MicroBench.kraken(spark, seed)
      val noisy = MicroBench.withNoise(m0, NoiseFactor, seed + 1)
      val full = cached(noisy.df)
      new Prepared {
        def run(tr: Tracer): Outcome = {
          val sel = new TimedSelector(new FeatureSelectors.RifsSelector(RifsCfg), tr)
          var core: DataFrame = null
          try {
            val (baseline, chosen, augmented) = tr.span("arda.run") {
              val baseline = tr.span("arda.baseline")(
                Estimator.autoScore(full, m0.features, m0.target, m0.task, ProgramSeed))
              core = tr.span("coreset.build")(
                cached(Coreset.uniform(full, CoresetRows, ProgramSeed)))
              val (chosen, augmented) = tr.span("arda.select") {
                val chosen = sel.select(core, noisy.features, noisy.target, noisy.task, ProgramSeed)
                // As in the Table 6 protocol, an empty selection falls back to two features.
                val safe = if (chosen.isEmpty) noisy.features.take(2) else chosen
                (chosen, Estimator.autoScore(full, safe, noisy.target, noisy.task, ProgramSeed))
              }
              (baseline, chosen, augmented)
            }
            val noise = noisy.features.filterNot(m0.informative)
            Outcome(
              m0.task, baseline, augmented,
              signalRecall = chosen.count(m0.informative).toDouble / m0.informative.size,
              noiseKept = chosen.count(noise.toSet).toDouble / noise.size,
              failures = rowCheck("coreset", core, "id", CoresetRows) ++ subsetCheck(sel, chosen),
              counts = sel.counts ++ Map("arda.kept" -> chosen.size.toDouble))
          } finally if (core != null) core.unpersist(false)
        }

        def probes(tr: Tracer): Map[String, Double] =
          selectionProbes(tr, Coreset.uniform(full, CoresetRows, ProgramSeed),
                          noisy.features, noisy.target, noisy.task) ++
            Map("joinplan.intersection_s" -> 0.0, "joinplan.tuple_ratio_s" -> 0.0,
                "joinexec.hard_join_s" -> 0.0, "joinexec.soft_join_s" -> 0.0)

        def release(): Unit = full.unpersist(false)
      }
    }
  }

  // ------------------------------------------------ world workloads (ARDA)
  /** A synthetic world run through [[ArdaPipeline]], one span per stage.
    * The base and every candidate table are cached in set-up, as a
    * repository already loaded for discovery would be.
    */
  private final class WorldRun(world0: SynthWorlds.World, cfg: ArdaConfig,
                               selector: () => FeatureSelector) extends Prepared {
    private val inputs = mutable.Buffer.empty[DataFrame]
    private def keep(df: DataFrame): DataFrame = { val c = cached(df); inputs += c; c }

    private val world = world0.copy(task = world0.task.copy(
      base = keep(world0.task.base),
      candidates = world0.task.candidates.map(c => c.copy(table = keep(c.table)))))
    private val task = world.task
    /** The last run's pipeline, kept open so the probes reuse its plan,
      * coreset and batches.
      */
    private var last: Option[ArdaPipeline] = None

    def run(tr: Tracer): Outcome = {
      last.foreach(_.close())
      val sel = new TimedSelector(selector(), tr)
      val p = new ArdaPipeline(task, cfg)
      last = Some(p)
      val res = tr.span("arda.run") {
        tr.span("preprocess.base")(p.baseFull)
        tr.span("arda.baseline")(p.baselineScore)
        tr.span("coreset.build")(p.coreset)
        tr.span("preprocess.coreset")(p.coresetPrepared)
        tr.span("joinplan.plan")(p.batches)
        tr.span("joinexec.batch")(p.batchFrames)
        tr.span("arda.select")(p.runSelector(sel))
      }
      val coreRows = p.coresetPrepared._1.count()
      val batchChecks = p.batchFrames.zipWithIndex.flatMap { case ((_, frame, _), i) =>
        rowCheck(s"batch $i", frame, task.idCol, coreRows)
      }
      val names = p.planned.map(_.cand.name)
      val noise = names.filterNot(world.signalTables)
      Outcome(
        task.task, res.baselineScore, res.augmentedScore,
        signalRecall = res.keptCandidates.count(world.signalTables).toDouble / world.signalTables.size,
        noiseKept = res.keptCandidates.count(noise.toSet).toDouble / math.max(1, noise.size),
        failures = batchChecks ++ subsetCheck(sel, res.selected),
        counts = sel.counts ++ Map(
          "arda.kept" -> res.keptCandidates.size.toDouble,
          "joinplan.candidates" -> p.planned.size.toDouble,
          "joinplan.tr_removed" -> (p.planned.size - p.filtered.size).toDouble,
          "joinexec.features_out" -> p.batchFrames.map(_._3.size).sum.toDouble))
    }

    /** Probe at most this many candidates of each kind, to bound the
      * traced run's length.
      */
    private val ProbeCandidates = 4

    def probes(tr: Tracer): Map[String, Double] = {
      val p = last.get // probes follow the measured run
      val (coreDf, coreFeats) = p.coresetPrepared
      val baseRows = task.base.count()
      val cands = p.planned.map(_.cand)
      // Soft-keyed candidates score 1.0 without a semi-join: probe hard ones.
      val interS = cands.filter(_.keys.exists(_.kind == KeyKind.Hard)).take(ProbeCandidates)
        .map(c => once(tr, "probe.intersection")(JoinPlan.intersectionScore(task.base, c)))
      val trS = cands.take(ProbeCandidates)
        .map(c => once(tr, "probe.tuple_ratio")(JoinPlan.tupleRatio(baseRows, c)))
      def joinS(soft: Boolean): Seq[Double] =
        cands.filter(_.keys.exists(_.kind == KeyKind.Soft) == soft).take(ProbeCandidates).map { c =>
          once(tr, "probe.join")(JoinExec.join(coreDf, c, cfg.softJoin, cfg.softTolerance, cfg.seed).count())
        }
      val hard = joinS(soft = false)
      val soft = joinS(soft = true)
      val (_, frame, newFeats) = p.batchFrames.head
      Map(
        "joinplan.intersection_s" -> median(interS),
        "joinplan.tuple_ratio_s" -> median(trS),
        "joinexec.hard_join_s" -> median(hard),
        "joinexec.soft_join_s" -> median(soft)) ++
        selectionProbes(tr, frame, (coreFeats ++ newFeats).distinct, task.target, task.task)
    }

    def release(): Unit = {
      last.foreach(_.close())
      inputs.foreach(_.unpersist(false))
    }
  }

  // ------------------------------------------------------------ school_l_tr
  /** Table 1's "TR rule" row on School (L): hard keys, classification, the
    * TR prefilter at the paper's τ = 17 and no selection (KeepAll), so
    * the run makes no inner-loop fits.
    */
  object SchoolLTr extends Workload {
    val name = "school_l_tr"
    val Candidates = 8
    val Tau = 17.0

    def setup(spark: SparkSession, seed: Long): Prepared =
      new WorldRun(SynthWorlds.schoolL(spark, Candidates, seed),
                   Harness.benchCfg.copy(trTau = Some(Tau), seed = ProgramSeed),
                   () => FeatureSelectors.KeepAll)
  }

  // -------------------------------------------------------------- taxi_rifs
  /** Taxi: soft time keys (two-way NN joins, hour→day resampling),
    * regression and RIFS, with no TR prefilter.
    */
  object TaxiRifs extends Workload {
    val name = "taxi_rifs"
    /** Two signal tables (hourly, resampled to days; daily one-to-many)
      * and two noise tables (hourly soft key, monthly hard key) of the
      * world's 29.
      */
    val Candidates = Set("weather0", "events", "tnoise0", "mnoise0")

    def setup(spark: SparkSession, seed: Long): Prepared = {
      val w = SynthWorlds.taxi(spark, seed)
      new WorldRun(
        SynthWorlds.World(w.task.copy(candidates = w.task.candidates.filter(c => Candidates(c.name))),
                          w.signalTables.intersect(Candidates)),
        Harness.benchCfg.copy(seed = ProgramSeed),
        () => new FeatureSelectors.RifsSelector(RifsCfg))
    }
  }
}
