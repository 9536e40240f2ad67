package repro.exp

import org.apache.spark.sql.SparkSession

import repro.automl.AutoMLLite
import repro.core._
import repro.data.MicroBench
import repro.ml.Estimator

/** Table 6: every feature selector on the micro benchmarks (Kraken,
  * Digits) — accuracy and feature-selection time over the 10×-noise
  * matrices, plus baseline / all-features / AutoML-lite rows.
  */
object Table6 {

  def run(spark: SparkSession): Seq[String] = {
    val micros = Seq(MicroBench.kraken(spark), MicroBench.digits(spark))
    micros.flatMap { m0 =>
      val noisy = MicroBench.withNoise(m0)
      val full = noisy.df.cache(); full.count()
      val lines = Seq.newBuilder[String]
      def line(method: String, acc: Double, secs: Double): String = {
        val l = f"${m0.name}%-8s | $method%-26s | acc=${acc * 100}%6.2f%% | time=$secs%8.1fs"
        Harness.progress(l)
        l
      }

      // baseline (our): original features only, no appended noise.
      val t0 = System.nanoTime()
      val baseAcc = Estimator.autoScore(full, m0.features, m0.target, m0.task, 13L)
      lines += line("baseline (our)", baseAcc, (System.nanoTime() - t0) / 1e9)

      // all features (our): original + 10× noise, no selection.
      val t1 = System.nanoTime()
      val allAcc = Estimator.autoScore(full, noisy.features, noisy.target, noisy.task, 13L)
      lines += line("all features (our)", allAcc, (System.nanoTime() - t1) / 1e9)

      // AutoML-lite on base and on all features (Azure/Alpine substitutes).
      val t2 = System.nanoTime()
      val amlBase = AutoMLLite.search(full, m0.features, m0.target, m0.task)
      lines += line("baseline (AutoML-lite)", amlBase, (System.nanoTime() - t2) / 1e9)
      val t3 = System.nanoTime()
      val amlAll = AutoMLLite.search(full, noisy.features, noisy.target, noisy.task)
      lines += line("all features (AutoML-lite)", amlAll, (System.nanoTime() - t3) / 1e9)

      for (sel <- Harness.standardSelectors if sel.supports(m0.task)) {
        val (acc, fsSec, _) =
          Harness.runMicro(noisy, sel, CoresetStrategy.Uniform, 700, 13L)
        lines += line(sel.name, acc, fsSec)
      }
      full.unpersist(false)
      lines.result()
    }
  }
}
