package repro.exp

import java.io.{File, PrintWriter}

import repro.core._
import repro.data.{MicroBench, SynthWorlds}
import repro.fs.{FeatureSelector, FeatureSelectors, Rifs}
import repro.ml.Estimator

/** Shared experiment machinery for the Table 1–6 benches: bench-scale
  * knobs, ARDA pipeline reuse across selectors, the micro-benchmark
  * protocol, metric formatting and result files.
  */
object Harness {

  /** Bench-scale RIFS (fewer repeats than the paper's k = 10 so the whole
    * suite fits CI time; unit tests cover the full algorithm).
    */
  val RifsBench: Rifs.RifsConfig =
    Rifs.RifsConfig(repeats = 3, thresholds = Seq(0.5, 0.75, 1.0))

  /** Default bench ARDA config. */
  def benchCfg: ArdaConfig = ArdaConfig(coresetSize = 600)

  /** The paper's τ per dataset (Table 4). */
  val PaperTaus: Map[String, Double] = Map(
    "Taxi" -> 24, "Pickup" -> 17, "Poverty" -> 15,
    "School (S)" -> 15, "School (L)" -> 17)

  def standardSelectors: Seq[FeatureSelector] = FeatureSelectors.standard(RifsBench)

  /** `body` over one pipeline for `world`, with its joins executed before
    * `body` times anything; the pipeline is closed afterwards.
    */
  def withPipeline[A](world: SynthWorlds.World, cfg: ArdaConfig)(body: ArdaPipeline => A): A = {
    val p = new ArdaPipeline(world.task, cfg)
    try {
      p.batchFrames
      body(p)
    } finally p.close()
  }

  /** Run every applicable selector over one shared pipeline (joins and
    * plan computed once), mirroring Table 1's structure.
    */
  def runSelectors(world: SynthWorlds.World, cfg: ArdaConfig,
                   selectors: Seq[FeatureSelector]): Seq[Arda.ArdaResult] =
    withPipeline(world, cfg)(p => selectors.filter(_.supports(world.task.task)).map(p.runSelector))

  /** Display metric: regression → MAE (= −score), classification →
    * accuracy in [0,1].
    */
  def display(task: TaskKind, score: Double): Double = task match {
    case TaskKind.Regression     => -score
    case TaskKind.Classification => score
  }

  /** Percent improvement of score `a` over `b` in the paper's convention
    * (positive = better): accuracy ratio for classification, MAE
    * reduction for regression.
    */
  def pctChange(task: TaskKind, a: Double, b: Double): Double = task match {
    case TaskKind.Classification => if (b == 0) 0 else (a - b) / math.abs(b) * 100
    case TaskKind.Regression =>
      val (maeA, maeB) = (-a, -b)
      if (maeB == 0) 0 else (maeB - maeA) / math.abs(maeB) * 100
  }

  /** Micro-benchmark protocol (§7.2 / Tables 2, 6): build a coreset of the
    * noise-augmented matrix with the given strategy, select features on
    * it, then score the selection with the final estimator (`autoScore`) on
    * the full dataset, `m.df` as the caller cached it (or not). Returns
    * (score, fsSeconds, nSelected).
    */
  def runMicro(m: MicroBench.Micro, selector: FeatureSelector,
               strategy: CoresetStrategy, coresetRows: Int,
               seed: Long): (Double, Double, Int) = {
    val cfg = ArdaConfig(coresetStrategy = strategy, coresetSize = coresetRows, seed = seed)
    val core = Coreset.selectionInput(Coreset.build(m.df, m.target, m.task, cfg),
                                      m.features, m.target, m.task, cfg)
    val cached = core.cache(); cached.count()
    val t0 = System.nanoTime()
    val sel = selector.select(cached, m.features, m.target, m.task, seed)
    val fsSec = (System.nanoTime() - t0) / 1e9
    val safe = if (sel.isEmpty) m.features.take(2) else sel
    val score = Estimator.autoScore(m.df, safe, m.target, m.task, seed)
    cached.unpersist(false)
    (score, fsSec, safe.length)
  }

  // ------------------------------------------------------------- output
  def resultsDir: File = {
    val d = new File("bench_results"); d.mkdirs(); d
  }

  /** Print a table and persist it under bench_results/. */
  def emit(name: String, lines: Seq[String]): Unit = {
    val text = lines.mkString("\n")
    println(s"\n===== $name =====\n$text\n")
    val pw = new PrintWriter(new File(resultsDir, s"$name.txt"))
    try pw.println(text) finally pw.close()
  }

  /** Incremental progress line (benches run for minutes; print as we go). */
  def progress(s: String): Unit = { println(s"[bench] $s"); Console.flush() }

  def pct(d: Double): String = f"$d%+.2f%%"
}
