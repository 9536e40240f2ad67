package repro.fs

import org.apache.spark.sql.DataFrame

import repro.core.TaskKind
import repro.ml.MatrixOps
import repro.ml.MatrixOps.LocalData

/** A feature selector: returns the subset of `features` to keep. This is
  * the interface ARDA invokes per join batch (§3) and the micro
  * benchmarks invoke over a noise-augmented matrix (§7.2).
  */
trait FeatureSelector {
  def name: String
  def supports(task: TaskKind): Boolean = true
  def select(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, seed: Long): Seq[String]
}

object FeatureSelectors {

  /** Keep everything — the paper's "all features" row. */
  object KeepAll extends FeatureSelector {
    val name = "all features"
    def select(df: DataFrame, features: Seq[String], target: String,
               task: TaskKind, seed: Long): Seq[String] = features
  }

  /** A ranker, then a subset search over its order (§5, §6.3). The input
    * is collected once; the ranker and every holdout fit of the search run
    * on that matrix. `new Ranked(ranker)` is the ranker with the paper's
    * exponential search — the random forest, sparse regression, mutual
    * info, f-test, lasso, logistic, linear svc and relief rows of Table
    * 1/6.
    */
  final class Ranked(ranker: Ranker, val name: String,
                     search: (LocalData, Seq[String], TaskKind, Long) => Seq[String])
      extends FeatureSelector {
    def this(ranker: Ranker) = this(ranker, ranker.name, Selection.exponentialSearch)
    override def supports(task: TaskKind): Boolean = ranker.supports(task)
    def select(df: DataFrame, features: Seq[String], target: String,
               task: TaskKind, seed: Long): Seq[String] = {
      val data = MatrixOps.collect(df, features, target)
      val scores = ranker.rank(data, features, task, seed)
      search(data, Selection.orderByScore(features, scores), task, seed)
    }
  }

  /** Forward selection over the RF ranking (the paper uses the RF ranker
    * for the wrapper methods).
    */
  val Forward: FeatureSelector =
    new Ranked(Rankers.RandomForestRanker, "forward selection", Selection.forward(_, _, _, _))

  /** Backward elimination over the RF ranking. */
  val Backward: FeatureSelector =
    new Ranked(Rankers.RandomForestRanker, "backward selection", Selection.backward(_, _, _, _))

  /** Recursive feature elimination with the RF ranker. */
  object Rfe extends FeatureSelector {
    val name = "RFE"
    def select(df: DataFrame, features: Seq[String], target: String,
               task: TaskKind, seed: Long): Seq[String] =
      Selection.rfe(MatrixOps.collect(df, features, target), features, task, seed)
  }

  /** RIFS (§6) with the given configuration. */
  final class RifsSelector(cfg: Rifs.RifsConfig = Rifs.RifsConfig()) extends FeatureSelector {
    val name = "RIFS"
    def select(df: DataFrame, features: Seq[String], target: String,
               task: TaskKind, seed: Long): Seq[String] =
      Rifs.select(df, features, target, task, cfg, seed)
  }

  /** All Table 1/6 selectors by display name. */
  def standard(rifsCfg: Rifs.RifsConfig = Rifs.RifsConfig()): Seq[FeatureSelector] = Seq(
    new RifsSelector(rifsCfg),
    Backward,
    Forward,
    Rfe,
    new Ranked(new Rankers.SparseRegressionRanker()),
    new Ranked(Rankers.RandomForestRanker),
    new Ranked(Rankers.FTestRanker),
    new Ranked(Rankers.LassoRanker),
    new Ranked(Rankers.MutualInfoRanker),
    new Ranked(Rankers.ReliefRanker),
    new Ranked(Rankers.LinearSVCRanker),
    new Ranked(Rankers.LogisticRanker),
  )
}
