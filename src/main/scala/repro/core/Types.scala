package repro.core

import org.apache.spark.sql.DataFrame

/** Whether the prediction target is numeric or categorical. */
sealed trait TaskKind
object TaskKind {
  case object Regression     extends TaskKind
  case object Classification extends TaskKind
}

/** Hardness of a join-key component (§2): hard keys need exact matches,
  * soft keys (time, location, age …) join to the *closest* foreign value.
  */
sealed trait KeyKind
object KeyKind {
  case object Hard extends KeyKind
  case object Soft extends KeyKind
}

/** Soft-join strategy (§4); time resampling happens in [[JoinPlan.plan]]. */
sealed trait SoftJoinMethod
object SoftJoinMethod {
  /** Join with the nearest foreign key; nulls beyond `tolerance`. */
  case object NearestNeighbour extends SoftJoinMethod
  /** Interpolate linearly between the bracketing foreign rows. */
  case object TwoWayNearestNeighbour extends SoftJoinMethod
  /** Equal keys: hard join with resampling if planned, else the "simple (hard) join" strawman. */
  case object Hard extends SoftJoinMethod
}

/** Coreset construction strategy (§3.1). */
sealed trait CoresetStrategy
object CoresetStrategy {
  case object Uniform    extends CoresetStrategy
  case object Stratified extends CoresetStrategy
  /** OSNAP-style count-sketch of rows, applied after joins (per stratum
    * for classification) — sketching mixes row values, so it cannot run
    * before the join (§3.1).
    */
  case object Sketch extends CoresetStrategy
}

/** Table-grouping strategy for the join plan (§4). */
sealed trait GroupingStrategy
object GroupingStrategy {
  case object TableJoin           extends GroupingStrategy
  case object BudgetJoin          extends GroupingStrategy
  case object FullMaterialization extends GroupingStrategy
}

/** One join-component pairing a base-table column with a foreign-table
  * column, as produced by a data-discovery system.
  */
final case class KeyPair(baseCol: String, foreignCol: String, kind: KeyKind)

/** A candidate join emitted by the data-discovery system (§2).
  *
  * @param name    unique short name; selected foreign columns are prefixed
  *                with `name__` in the augmented table
  * @param table   the foreign table
  * @param keys    composite key (possibly mixing hard and soft components)
  * @param altKeys additional key options — ARDA joins on each option
  *                separately ("multiple-option key join", §4)
  * @param discoveryScore optional relevance ranking from the discovery
  *                system; when absent ARDA computes an intersection score
  */
final case class CandidateJoin(
    name: String,
    table: DataFrame,
    keys: Seq[KeyPair],
    altKeys: Seq[Seq[KeyPair]] = Nil,
    discoveryScore: Option[Double] = None,
)

/** A full augmentation task: base table + target + candidate repository.
  *
  * @param idCol        unique row id in the base table (joins and batch
  *                     re-assembly key on it)
  * @param baseFeatures base columns usable as model features; when None,
  *                     every column except target, id and join keys
  */
final case class AugTask(
    name: String,
    base: DataFrame,
    target: String,
    task: TaskKind,
    candidates: Seq[CandidateJoin],
    idCol: String = "id",
    baseFeatures: Option[Seq[String]] = None,
) {
  /** Resolved base feature columns. */
  def baseFeatureCols: Seq[String] = baseFeatures.getOrElse {
    val keyCols = candidates.flatMap(c => (c.keys ++ c.altKeys.flatten).map(_.baseCol)).toSet
    base.columns.toSeq.filterNot(c => c == target || c == idCol || keyCols(c))
  }
}

/** ARDA configuration (defaults follow §3–§7: uniform coreset, budget
  * grouping, two-way NN soft joins). The feature budget of a budget-join
  * batch is the coreset size (§4 "Table grouping").
  */
final case class ArdaConfig(
    coresetStrategy: CoresetStrategy = CoresetStrategy.Uniform,
    coresetSize: Int = 1000,
    grouping: GroupingStrategy = GroupingStrategy.BudgetJoin,
    softJoin: SoftJoinMethod = SoftJoinMethod.TwoWayNearestNeighbour,
    softTolerance: Option[Double] = None,
    trTau: Option[Double] = None, // Tuple-Ratio prefilter threshold
    seed: Long = 42L,
)
