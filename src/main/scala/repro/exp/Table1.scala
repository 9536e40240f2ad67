package repro.exp

import org.apache.spark.sql.SparkSession

import repro.automl.AutoMLLite
import repro.core._
import repro.data.SynthWorlds
import repro.fs.FeatureSelectors

/** Table 1 (and the Table-6 protocol shares [[rowsFor]]): every feature
  * selector plus baseline / all-features / AutoML-lite rows on the
  * real-world-analogue datasets. Regression reports MAE, classification
  * reports accuracy; the time column is feature-selection + evaluation
  * seconds, as in the paper.
  */
object Table1 {

  final case class Row(dataset: String, method: String, metric: Double,
                       seconds: Double) {
    def line(task: TaskKind): String = {
      val m = task match {
        case TaskKind.Regression     => f"MAE=$metric%.4f"
        case TaskKind.Classification => f"acc=${metric * 100}%.2f%%"
      }
      f"$dataset%-12s | $method%-28s | $m%-14s | time=$seconds%8.1fs"
    }
    Harness.progress(f"$dataset / $method: metric=$metric%.4f (${seconds}%.0fs)")
  }

  /** All Table-1 rows for one world (shared pipeline across selectors). */
  def rowsFor(world: SynthWorlds.World, cfg: ArdaConfig): Seq[Row] = {
    val task = world.task.task
    val name = world.task.name
    def disp(score: Double) = Harness.display(task, score)

    Harness.withPipeline(world, cfg) { p =>
      // baseline (our): estimator on the base table alone.
      val t0 = System.nanoTime()
      val baseline = p.baselineScore
      val tBase = (System.nanoTime() - t0) / 1e9
      val rows = Seq.newBuilder[Row]
      rows += Row(name, "baseline (our)", disp(baseline), tBase)

      // all features (our): keep everything, no selection.
      val allRes = p.runSelector(FeatureSelectors.KeepAll)
      rows += Row(name, "all features (our)", disp(allRes.augmentedScore), allRes.totalSeconds)

      // AutoML-lite (substitute for Azure AutoML / Alpine Meadow): the full
      // base table, alone and with every candidate joined in, no selection.
      val t1 = System.nanoTime()
      val amlBase = AutoMLLite.search(p.baseFull, p.baseFeats, world.task.target, task)
      rows += Row(name, "baseline (AutoML-lite)", disp(amlBase), (System.nanoTime() - t1) / 1e9)

      val t2 = System.nanoTime()
      val batchFeats = p.batchFrames.flatMap(_._3)
      val amlAll = AutoMLLite.search(p.augmentedBase(batchFeats), p.baseFeats ++ batchFeats,
                                     world.task.target, task)
      rows += Row(name, "all features (AutoML-lite)", disp(amlAll), (System.nanoTime() - t2) / 1e9)

      // TR rule as a stand-alone method: prefilter, keep all features.
      val tau = Harness.PaperTaus.getOrElse(name, 20.0)
      val trRes = Arda.run(world.task, cfg.copy(trTau = Some(tau)), FeatureSelectors.KeepAll)
      rows += Row(name, "TR rule", disp(trRes.augmentedScore), trRes.totalSeconds)

      // Every standard feature selector over the shared pipeline.
      for (sel <- Harness.standardSelectors if sel.supports(task)) {
        val r = p.runSelector(sel)
        rows += Row(name, sel.name, disp(r.augmentedScore), r.totalSeconds)
      }
      rows.result()
    }
  }

  def run(spark: SparkSession): Seq[String] = {
    val worlds = SynthWorlds.all(spark)
    worlds.flatMap { w =>
      val rs = rowsFor(w, Harness.benchCfg)
      rs.map(_.line(w.task.task))
    }
  }
}
