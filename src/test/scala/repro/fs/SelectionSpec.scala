package repro.fs

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.TaskKind
import repro.ml.MatrixOps

class SelectionSpec extends SparkSpec {

  private lazy val df = spark.range(400).select(
    (col("id") % 2).cast("double").as("y"),
    ((col("id") % 2).cast("double") * 2 + randn(1) * 0.3).as("s1"),
    ((col("id") % 2).cast("double") * 1.5 + randn(2) * 0.4).as("s2"),
    randn(3).as("n1"), randn(4).as("n2"), randn(5).as("n3"), randn(6).as("n4")).cache()

  private val ordered = Seq("s1", "s2", "n1", "n2", "n3", "n4")

  private lazy val data = MatrixOps.collect(df, ordered, "y")

  test("orderByScore sorts descending with deterministic ties") {
    val out = Selection.orderByScore(Seq("a", "b", "c"), Array(0.1, 0.9, 0.1))
    assert(out == Seq("b", "a", "c"))
  }

  test("exponential search returns a prefix of the ranking") {
    val sel = Selection.exponentialSearch(data, ordered, TaskKind.Classification, 1L)
    assert(sel == ordered.take(sel.length))
    assert(sel.nonEmpty)
  }

  test("exponential search keeps the signal prefix") {
    val sel = Selection.exponentialSearch(data, ordered, TaskKind.Classification, 1L)
    assert(sel.contains("s1"))
  }

  test("exponential search handles tiny feature sets") {
    assert(Selection.exponentialSearch(data, Seq("s1"), TaskKind.Classification, 1L) == Seq("s1"))
    assert(Selection.exponentialSearch(data, Seq("s1", "s2"), TaskKind.Classification, 1L)
      == Seq("s1", "s2"))
  }

  test("forward selection keeps improving features only") {
    val sel = Selection.forward(data, ordered, TaskKind.Classification, 1L, cap = 6)
    assert(sel.contains("s1"))
    assert(sel.length < ordered.length)
  }

  test("forward selection never returns empty") {
    val noise = Seq("n1", "n2")
    val sel = Selection.forward(data, noise, TaskKind.Classification, 1L, cap = 2)
    assert(sel.nonEmpty)
  }

  test("backward elimination keeps the signal") {
    val sel = Selection.backward(data, ordered, TaskKind.Classification, 1L, cap = 6)
    assert(sel.contains("s1"))
  }

  test("backward elimination removes at least one noise feature") {
    val sel = Selection.backward(data, ordered, TaskKind.Classification, 1L, cap = 6)
    assert(sel.length < ordered.length)
  }

  test("RFE keeps the signal and shrinks the set") {
    val sel = Selection.rfe(data, ordered, TaskKind.Classification, 1L)
    assert(sel.contains("s1"))
    assert(sel.length <= ordered.length)
  }

  test("selection strategies are deterministic in the seed") {
    val a = Selection.exponentialSearch(data, ordered, TaskKind.Classification, 5L)
    val b = Selection.exponentialSearch(data, ordered, TaskKind.Classification, 5L)
    assert(a == b)
  }
}
