package perfbench

import java.io.File
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

import repro.exp.Harness

import Workloads.median

/** The benchmark's entry point: one client, one ARDA run at a time, one JVM.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
  * }}}
  *
  * It generates the workload's inputs from the seed, then runs ARDA
  * closed-loop for the given seconds (at least once) and checks every
  * run's outputs. The last line of standard output is the JSON result:
  * the end-to-end metrics with `--trace 0`, the per-layer metrics with
  * `--trace 1`. `--work` is the directory for Spark's scratch files.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, work: File)

  /** Set-ups per run; `setup_s` reports their median. */
  val SetupRepeats = 3

  /** Spark `local[k]` with k = cores − 1, at most 3. Driver-side work
    * dominates a run (tasks are busy for about a fifth of the run's core
    * time), so the core left to the driver, JIT and GC threads costs
    * little and steadies run time: on a 4-vCPU host, three runs of one
    * seed took 20.1–21.9 s with `local[4]` and, minutes later,
    * 18.5–19.0 s with `local[3]`.
    */
  val Cores: Int = math.max(1, math.min(3, Runtime.getRuntime.availableProcessors - 1))

  def parse(argv: Seq[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      w  <- need("workload").flatMap(n => Workloads.byName(n).toRight(
              s"unknown workload '$n'; one of ${Workloads.all.map(_.name).mkString(", ")}"))
      s  <- need("seed").flatMap(v => v.toLongOption.toRight(s"--seed: not an integer: $v"))
      se <- need("seconds").flatMap(v => v.toIntOption.filter(_ > 0).toRight(s"--seconds: not a positive integer: $v"))
      t  <- need("trace").flatMap {
              case "0" => Right(false); case "1" => Right(true)
              case v   => Left(s"--trace: expected 0 or 1, got $v")
            }
      wd <- need("work").map(new File(_))
    } yield Args(w, s, se, t, wd)
  }

  /** Seconds for fixed CPU and memory work (sorting random arrays) on
    * `Cores` threads, median of 3: a yardstick for the host's speed, so
    * that host drift can be told apart from a change in the program.
    */
  def calibrate(): Double = median((1 to 3).map { _ =>
    val t0 = System.nanoTime()
    val threads = (0 until Cores).map { i =>
      new Thread(() => {
        val rnd = new java.util.Random(i)
        for (_ <- 1 to 4) java.util.Arrays.sort(Array.fill(1 << 20)(rnd.nextDouble()))
      })
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    (System.nanoTime() - t0) / 1e9
  })

  def session(work: File): SparkSession = {
    SparkSession.builder
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", new File(work, "spark-local").getAbsolutePath)
      .getOrCreate()
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toSeq) match {
      case Right(a) => a
      case Left(msg) => System.err.println(s"perfbench: $msg"); sys.exit(2)
    }
    val calibS = calibrate()
    val t0 = System.nanoTime()
    val spark = session(args.work)
    val sessionS = (System.nanoTime() - t0) / 1e9
    val ok =
      try Bench.run(spark, args, sessionS, calibS)
      finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }
}

/** One ARDA run as measured: its outcome (None if it threw) and what the
  * tracer took for it (wall and CPU seconds and Spark work per span path).
  */
final case class Record(outcome: Option[Outcome], taken: Tracer.Taken, error: Option[String]) {
  def wall: Map[String, Double] = taken.wall
  def work: Map[String, SparkWork] = taken.work
  /** Threw, or broke an output invariant: what `failed` counts. */
  def failed: Boolean = outcome.forall(_.failures.nonEmpty)
  /** Failed, or missed the headline shape: what `fail_frac` counts. */
  def missed: Boolean = failed || outcome.exists(_.gainMiss)
  def runS: Double = wall.getOrElse("arda.run", 0.0)
  def cpuS: Double = taken.cpu.getOrElse("arda.run", 0.0)
  def secs(name: String): Double = Tracer.seconds(wall, name)
  def sparkWork(name: String): SparkWork = Tracer.work(work, name)
}

object Bench {

  private def log(s: String): Unit = { System.err.println(s"[perfbench] $s"); System.err.flush() }

  /** Runs the workload and prints the result line; false if no run succeeded. */
  def run(spark: SparkSession, args: Main.Args, sessionS: Double, calibS: Double): Boolean = {
    val sc = spark.sparkContext
    val listener = if (args.trace) Some(new SpanListener) else None
    listener.foreach(sc.addSparkListener)
    val tr = new Tracer(sc, listener)
    val heap = new HeapWatch

    // Set up several times from the same seed; keep the last inputs.
    var prepared: Prepared = null
    val setupS = (1 to Main.SetupRepeats).map { _ =>
      if (prepared != null) prepared.release()
      val t0 = System.nanoTime()
      prepared = args.workload.setup(spark, args.seed)
      (System.nanoTime() - t0) / 1e9
    }
    log(f"set-up ${setupS.map(s => f"$s%.2f").mkString(" ")} s")

    // No warm-up: the first run pays JIT compilation and Spark code
    // generation, as a one-shot ARDA job in a fresh JVM does.
    heap.reset()
    val records = mutable.Buffer.empty[Record]
    val m0 = System.nanoTime()
    while (records.isEmpty || (System.nanoTime() - m0) / 1e9 < args.seconds) {
      val (outcome, error) =
        try (Some(prepared.run(tr)), None)
        catch { case NonFatal(e) => (None, Some(e.toString)) }
      val rec = Record(outcome, tr.take(), error)
      records += rec
      rec.error.foreach(e => log(s"run failed: $e"))
      rec.outcome.foreach(_.failures.foreach(f => log(s"check failed: $f")))
      log(f"run ${records.size}: ${rec.runS}%.3f s")
    }
    val peakMb = heap.peakMb

    val good = records.filter(_.outcome.isDefined).toSeq
    if (good.isEmpty) { log("no run succeeded"); return false }
    val outs = good.flatMap(_.outcome)
    def med(f: Record => Double): Double = median(good.map(f))
    def medOut(f: Outcome => Double): Double = median(outs.map(f))
    val task = outs.head.task
    val score = medOut(_.augmented)
    val baseline = medOut(_.baseline)
    val runS = med(_.runS)

    // The run's other end-to-end quantities: they vary with the generated
    // world or can be 0, so no bound across seeds holds them.
    val outcome: Seq[(String, Double, String)] = Seq(
      ("cpu_s", med(_.cpuS), "s"),
      ("fs_s", med(_.secs("fs.select")), "s"),
      ("score", score, "score"),
      ("baseline_score", baseline, "score"),
      ("gain_pct", Harness.pctChange(task, score, baseline), "%"),
      ("signal_recall", medOut(_.signalRecall), "frac"),
      ("noise_kept", medOut(_.noiseKept), "frac"),
      ("fail_frac", records.count(_.missed).toDouble / records.size, "frac"),
      ("peak_heap_mb", peakMb, "MB"),
      ("kept", medOut(_.counts.getOrElse("arda.kept", 0.0)), "count"),
      ("runs", records.size.toDouble, "count"),
      ("host_calib_s", calibS, "s"),
    )
    val metrics =
      if (!args.trace) Seq(
        ("run_s", runS, "s"),
        ("setup_s", sessionS + median(setupS), "s"))
      else {
        val probes = prepared.probes(tr)
        def count(k: String) = medOut(_.counts.getOrElse(k, 0.0))
        val cores = sc.defaultParallelism.toDouble
        val planS = med(_.secs("joinplan.plan"))
        Seq(
          ("arda.run_s", runS, "s"),
          ("arda.baseline_s", med(_.secs("arda.baseline")), "s"),
          ("arda.final_s", med(r => r.secs("arda.select") - r.secs("fs.select")), "s"),
          ("arda.jobs", med(_.sparkWork("arda.run").jobs), "count"),
          ("arda.tasks", med(_.sparkWork("arda.run").tasks), "count"),
          ("arda.task_busy_frac", med(r => r.sparkWork("arda.run").busyMs / 1000.0 / (r.runS * cores)), "frac"),
          ("coreset.build_s", med(_.secs("coreset.build")), "s"),
          ("preprocess.base_s", med(_.secs("preprocess.base")), "s"),
          ("preprocess.coreset_s", med(_.secs("preprocess.coreset")), "s"),
          ("joinplan.plan_s", planS, "s"),
          ("joinplan.jobs", med(_.sparkWork("joinplan.plan").jobs), "count"),
          ("joinplan.s_per_candidate",
            if (count("joinplan.candidates") > 0) planS / count("joinplan.candidates") else 0.0, "s"),
          ("joinplan.tr_removed", count("joinplan.tr_removed"), "count"),
          ("joinexec.batch_s", med(_.secs("joinexec.batch")), "s"),
          ("joinexec.jobs", med(_.sparkWork("joinexec.batch").jobs), "count"),
          ("joinexec.features_out", count("joinexec.features_out"), "count"),
          ("fs.select_jobs", med(_.sparkWork("fs.select").jobs), "count"),
          ("fs.calls", count("fs.calls"), "count"),
          ("fs.selected_frac", count("fs.selected_frac"), "frac"),
          ("trace_overhead_pct", med(r => r.taken.listenerS / r.runS * 100), "%"),
        ) ++ probes.toSeq.sortBy(_._1).map { case (k, v) => (k, v, if (k.endsWith("_s")) "s" else "count") } ++
          outcome.collect {
            case ("host_calib_s", v, u) => ("host.calib_s", v, u)
            case (k, v, u) if k != "runs" => (s"arda.$k", v, u)
          }
      }

    val failed = records.count(_.failed)
    println(Json.obj("info" -> Json.metrics(outcome)))
    println(Json.obj(
      "correct" -> (failed == 0).toString,
      "attempted" -> records.size.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.metrics(metrics)))
    true
  }
}

/** The few JSON shapes the result line needs. */
object Json {
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString

  def obj(fields: (String, String)*): String =
    fields.map { case (k, v) => s""""$k": $v""" }.mkString("{", ", ", "}")

  def metrics(ms: Seq[(String, Double, String)]): String =
    obj(ms.map { case (n, v, u) => n -> obj("value" -> num(v), "unit" -> s""""$u"""") }: _*)
}
