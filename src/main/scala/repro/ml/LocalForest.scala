package repro.ml

import scala.util.Random

import repro.core.TaskKind
import repro.ml.MatrixOps.LocalData

/** A driver-side Random Forest over a collected matrix: the learner of
  * every ARDA fit, in the selection loop (holdout fits, RF rankings, RIFS)
  * over the coreset matrix, for the baseline and the final estimate over
  * the full base table, and of AutoML-lite's forests and boosted trees.
  *
  * It has the shape of Spark ML's Random Forest, its tests' reference:
  * Poisson(1) bootstrap weights per tree, a fresh random feature
  * subset at every node (√d for classification, d/3 for regression), Gini
  * or variance impurity, splits at [[Estimator.Bins]]-bin quantile
  * thresholds chosen the way Spark ML chooses them, and impurity
  * importances normalised per tree and then over the forest. The
  * thresholds are computed once per matrix, over all its rows (the holdout
  * rows' feature values too, never their labels). Everything runs on
  * arrays, so one fit costs milliseconds instead of a Spark job graph.
  */
object LocalForest {

  /** One column cut at up to `bins − 1` thresholds; `codes(i)` is the
    * number of thresholds below value `i`, so value ≤ `thresholds(b)`
    * exactly when `codes(i) ≤ b`.
    */
  final class Binned(val thresholds: Array[Double], val codes: Array[Byte]) {
    def nBins: Int = thresholds.length + 1
  }

  /** Spark ML's continuous split search (`findSplitsForContinuousFeature`):
    * every midpoint between distinct values when there are at most
    * `bins − 1` of them, otherwise the midpoints where the running count
    * comes closest to each multiple of n / bins.
    */
  def bin(values: Array[Double], bins: Int): Binned = {
    val sorted = values.sorted
    val distinct = Array.newBuilder[Double]
    val counts = Array.newBuilder[Int]
    var i = 0
    while (i < sorted.length) {
      var j = i
      while (j < sorted.length && sorted(j) == sorted(i)) j += 1
      distinct += sorted(i); counts += j - i
      i = j
    }
    val vs = distinct.result(); val cs = counts.result()
    val nSplits = bins - 1
    val thresholds =
      if (vs.length - 1 <= nSplits)
        Array.tabulate(math.max(0, vs.length - 1))(k => (vs(k) + vs(k + 1)) / 2.0)
      else {
        val stride = values.length.toDouble / bins
        val out = Array.newBuilder[Double]
        var current = cs(0).toDouble
        var target = stride
        var k = 1
        while (k < vs.length) {
          val previous = current
          current += cs(k)
          if (math.abs(previous - target) < math.abs(current - target)) {
            out += (vs(k - 1) + vs(k)) / 2.0
            target += stride
          }
          k += 1
        }
        out.result()
      }
    val codes = values.map { v =>
      var b = 0
      while (b < thresholds.length && v > thresholds(b)) b += 1
      b.toByte
    }
    new Binned(thresholds, codes)
  }

  /** The seeded 70/30 split of `n` rows: (train rows, test rows). */
  def split(n: Int, seed: Long): (Array[Int], Array[Int]) = {
    val rnd = new Random(seed)
    (0 until n).toArray.partition(_ => rnd.nextDouble() < 0.7)
  }

  private sealed trait Node
  private final case class Leaf(value: Array[Double]) extends Node
  private final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** A fitted forest over the columns `cols` of its training matrix.
    *
    * @param importances one per fitted feature, summing to 1 (all 0 when
    *                    no tree split)
    */
  final class Model private[LocalForest] (task: TaskKind, cols: Array[Int],
                                          trees: Array[Node], val importances: Array[Double]) {

    /** The prediction for row `i` of the columns `x`, laid out as the
      * training matrix's [[LocalData.cols]] (`x(f)(i)` is feature `f` of
      * row `i`): the class with the highest summed leaf probability, or
      * the mean of the trees' leaf means.
      */
    def predict(x: Array[Array[Double]], i: Int): Double = {
      var sum: Array[Double] = null
      for (t <- trees) {
        var node = t
        while (node.isInstanceOf[Split]) {
          val s = node.asInstanceOf[Split]
          node = if (x(cols(s.feature))(i) <= s.threshold) s.left else s.right
        }
        val v = node.asInstanceOf[Leaf].value
        if (sum == null) sum = new Array[Double](v.length)
        var k = 0
        while (k < v.length) { sum(k) += v(k); k += 1 }
      }
      task match {
        case TaskKind.Regression => sum(0) / trees.length
        case TaskKind.Classification =>
          var best = 0
          var k = 1
          while (k < sum.length) { if (sum(k) > sum(best)) best = k; k += 1 }
          best.toDouble
      }
    }
  }

  /** Fit a `trees` × `depth` forest on rows `rows` of `data`, over its
    * columns `features`. Classification labels must be 0, 1, …, K − 1.
    */
  def fit(data: LocalData, features: Seq[String], rows: Array[Int], task: TaskKind,
          trees: Int, depth: Int, seed: Long): Model =
    fit(data, data.y, features, rows, task, trees, depth, seed)

  /** As above, on labels `y` in place of `data.y`, with the same bins. */
  def fit(data: LocalData, y: Array[Double], features: Seq[String], rows: Array[Int],
          task: TaskKind, trees: Int, depth: Int, seed: Long): Model = {
    val cols = features.map(data.indexOf).toArray
    val binned = cols.map(data.binned)
    val d = cols.length
    val nClasses = task match {
      case TaskKind.Classification => math.max(2, y.max.toInt + 1)
      case TaskKind.Regression     => 1
    }
    val perNode = task match {
      case _ if trees == 1         => d
      case TaskKind.Classification => math.ceil(math.sqrt(d.toDouble)).toInt
      case TaskKind.Regression     => math.ceil(d / 3.0).toInt
    }
    val grower = new Grower(binned, y, task, nClasses, depth, perNode)
    val rnd = new Random(seed)
    val total = new Array[Double](d)
    val fitted = Array.fill(trees) {
      val weights = rows.map(_ => if (trees == 1) 1.0 else poisson(rnd).toDouble)
      val bag = rows.indices.filter(weights(_) > 0).toArray
      val w = new Array[Double](y.length)
      bag.foreach(k => w(rows(k)) = weights(k))
      val tree = grower.grow(bag.map(rows), w, rnd)
      val norm = grower.importance.sum
      if (norm > 0) { var j = 0; while (j < d) { total(j) += grower.importance(j) / norm; j += 1 } }
      tree
    }
    val sum = total.sum
    new Model(task, cols, fitted, if (sum > 0) total.map(_ / sum) else total)
  }

  /** Poisson(1) by Knuth's product of uniforms. */
  private def poisson(rnd: Random): Int = {
    val limit = math.exp(-1.0)
    var k = 0
    var p = rnd.nextDouble()
    while (p > limit) { k += 1; p *= rnd.nextDouble() }
    k
  }

  /** Grows one tree at a time over a fixed set of binned columns; its
    * `importance` holds the last tree's gain × weighted node size per
    * feature.
    */
  private final class Grower(binned: Array[Binned], y: Array[Double], task: TaskKind,
                             nClasses: Int, maxDepth: Int, perNode: Int) {
    private val d = binned.length
    private val statSize = task match {
      case TaskKind.Classification => nClasses
      case TaskKind.Regression     => 3 // Σw, Σwy, Σwy²
    }
    private val maxBins = (1 +: binned.map(_.nBins)).max
    private val hist = new Array[Double](maxBins * statSize)
    private val left = new Array[Double](statSize)
    private val right = new Array[Double](statSize)
    private val order = Array.range(0, d)
    val importance = new Array[Double](d)

    private var w: Array[Double] = _
    private var rows: Array[Int] = _
    private var rnd: Random = _

    def grow(bag: Array[Int], weights: Array[Double], random: Random): Node = {
      rows = bag; w = weights; rnd = random
      java.util.Arrays.fill(importance, 0.0)
      node(0, rows.length, 0)
    }

    private def add(stats: Array[Double], off: Int, i: Int): Unit = task match {
      case TaskKind.Classification => stats(off + y(i).toInt) += w(i)
      case TaskKind.Regression =>
        stats(off) += w(i); stats(off + 1) += w(i) * y(i); stats(off + 2) += w(i) * y(i) * y(i)
    }

    private def count(s: Array[Double]): Double = task match {
      case TaskKind.Classification => s.sum
      case TaskKind.Regression     => s(0)
    }

    private def impurity(s: Array[Double]): Double = {
      val n = count(s)
      if (n == 0) 0.0
      else task match {
        case TaskKind.Classification =>
          var g = 1.0
          var k = 0
          while (k < s.length) { val p = s(k) / n; g -= p * p; k += 1 }
          g
        case TaskKind.Regression     => math.max(0.0, s(2) / n - (s(1) / n) * (s(1) / n))
      }
    }

    /** Class probabilities or the mean; an empty node (no training rows
      * at all) predicts class 0 or 0.0.
      */
    private def leaf(s: Array[Double]): Leaf = {
      val n = count(s)
      task match {
        case TaskKind.Classification => Leaf(s.map(c => if (n > 0) c / n else 0.0))
        case TaskKind.Regression     => Leaf(Array(if (n > 0) s(1) / n else 0.0))
      }
    }

    /** Grow the node over `rows(from until to)` at `level`. */
    private def node(from: Int, to: Int, level: Int): Node = {
      val stats = new Array[Double](statSize)
      var r = from
      while (r < to) { add(stats, 0, rows(r)); r += 1 }
      val parentImp = impurity(stats)
      if (level == maxDepth || parentImp == 0.0) return leaf(stats)
      val n = count(stats)

      // Partial Fisher–Yates: the first `perNode` entries of `order`.
      var k = 0
      while (k < perNode) {
        val j = k + rnd.nextInt(d - k)
        val t = order(k); order(k) = order(j); order(j) = t
        k += 1
      }
      var bestGain = 0.0; var bestF = -1; var bestBin = -1
      k = 0
      while (k < perNode) {
        val f = order(k)
        val b = binned(f)
        val nb = b.nBins
        java.util.Arrays.fill(hist, 0, nb * statSize, 0.0)
        r = from
        while (r < to) { val i = rows(r); add(hist, b.codes(i) * statSize, i); r += 1 }
        java.util.Arrays.fill(left, 0.0)
        var bin = 0
        while (bin < nb - 1) {
          var s = 0
          while (s < statSize) { left(s) += hist(bin * statSize + s); right(s) = stats(s) - left(s); s += 1 }
          val nl = count(left); val nr = n - nl
          if (nl > 0 && nr > 0) {
            val gain = parentImp - nl / n * impurity(left) - nr / n * impurity(right)
            if (gain > bestGain) { bestGain = gain; bestF = f; bestBin = bin }
          }
          bin += 1
        }
        k += 1
      }
      if (bestF < 0) return leaf(stats)

      importance(bestF) += bestGain * n
      val codes = binned(bestF).codes
      var lo = from; var hi = to - 1
      while (lo <= hi) {
        if (codes(rows(lo)) <= bestBin) lo += 1
        else { val t = rows(lo); rows(lo) = rows(hi); rows(hi) = t; hi -= 1 }
      }
      Split(bestF, binned(bestF).thresholds(bestBin), node(from, lo, level + 1), node(lo, to, level + 1))
    }
  }
}
