package repro.fs

import repro.core.TaskKind
import repro.ml.Estimator
import repro.ml.MatrixOps.LocalData

/** Subset-selection strategies over a ranking (§5, §6.3): the paper's
  * modified exponential search (repeated doubling + binary search),
  * forward selection, backward elimination, and recursive feature
  * elimination. All run on the selector's collected coreset matrix and
  * evaluate candidate subsets with the fast holdout estimator on it, so a
  * search makes no Spark jobs.
  */
object Selection {

  /** Features ordered by descending score (ties broken by name for
    * determinism).
    */
  def orderByScore(features: Seq[String], scores: Array[Double]): Seq[String] =
    features.zip(scores).sortBy { case (f, s) => (-s, f) }.map(_._1)

  /** Modified exponential search (§6.3): test 2, 4, 8, … features until
    * the holdout score decreases at 2^k, then binary-search (2^{k−1}, 2^k];
    * returns the best prefix observed.
    */
  def exponentialSearch(data: LocalData, ordered: Seq[String], task: TaskKind,
                        seed: Long): Seq[String] = {
    val d = ordered.length
    if (d <= 2) return ordered
    def eval(sz: Int): Double = Estimator.holdoutScore(data, ordered.take(sz), task, seed)
    var best = (2, eval(2))
    var prevSz = 2; var prevScore = best._2
    var sz = 4
    var decreasedAt = -1
    while (sz <= d && decreasedAt < 0) {
      val s = eval(sz)
      if (s > best._2) best = (sz, s)
      if (s < prevScore) decreasedAt = sz
      else { prevSz = sz; prevScore = s; sz = math.min(d, sz * 2); if (sz == prevSz) sz = d + 1 }
    }
    if (decreasedAt > 0) {
      var lo = prevSz; var hi = decreasedAt
      while (hi - lo > 1) {
        val mid = (lo + hi) / 2
        val s = eval(mid)
        if (s > best._2) best = (mid, s)
        if (s >= prevScore) lo = mid else hi = mid
      }
    }
    ordered.take(best._1)
  }

  /** Forward selection over the ranking order: greedily keep each next
    * feature only if it improves the holdout score. `cap` bounds the
    * number of model fits (the paper notes this trains the model up to n
    * times and is an order of magnitude slower than RIFS).
    */
  def forward(data: LocalData, ordered: Seq[String], task: TaskKind,
              seed: Long, cap: Int = 40): Seq[String] = {
    var kept = Vector.empty[String]
    var best = Double.MinValue
    for (f <- ordered.take(cap)) {
      val s = Estimator.holdoutScore(data, kept :+ f, task, seed)
      if (s > best) { best = s; kept = kept :+ f }
    }
    if (kept.isEmpty) ordered.take(1) else kept
  }

  /** Backward elimination: start from all features, try removing from the
    * worst-ranked end; keep a removal when the score does not drop.
    */
  def backward(data: LocalData, ordered: Seq[String], task: TaskKind,
               seed: Long, cap: Int = 40): Seq[String] = {
    var kept = ordered.toVector
    var best = Estimator.holdoutScore(data, kept, task, seed)
    for (f <- ordered.reverse.take(cap) if kept.length > 1) {
      val trial = kept.filterNot(_ == f)
      val s = Estimator.holdoutScore(data, trial, task, seed)
      if (s >= best) { best = s; kept = trial }
    }
    kept
  }

  /** Recursive feature elimination with the Random Forest ranker: re-rank,
    * keep the top half (rounded up, at least 2), repeat; return the best
    * subset observed.
    */
  def rfe(data: LocalData, features: Seq[String], task: TaskKind, seed: Long): Seq[String] = {
    var cur = features.toVector
    var best = (cur, Estimator.holdoutScore(data, cur, task, seed))
    while (cur.length > 2) {
      val scores = Rankers.RandomForestRanker.rank(data, cur, task, seed)
      val keepN = math.max(2, (cur.length + 1) / 2)
      cur = orderByScore(cur, scores).take(keepN).toVector
      val s = Estimator.holdoutScore(data, cur, task, seed)
      if (s > best._2) best = (cur, s)
    }
    best._1
  }
}
