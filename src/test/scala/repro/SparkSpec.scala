package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._

import repro.jobs.JobSession

/** Base for every test: one local-mode SparkSession for the whole run,
  * built by the same [[JobSession.session]] as the table jobs.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** The number of Spark jobs `body` runs, counted in its own job group.
    * `body` runs without adaptive execution, which would submit each
    * shuffle stage as a job of its own: one action is one job.
    */
  def jobsIn(group: String)(body: => Unit): Int = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try withConf("spark.sql.adaptive.enabled" -> "false")(body) finally sc.clearJobGroup()
    // The status store reads the listener bus in order: once a later
    // marker job shows up, every job of `group` has too.
    val marker = s"$group-marker"
    sc.setJobGroup(marker, marker)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    eventually(timeout(30.seconds))(assert(sc.statusTracker.getJobIdsForGroup(marker).nonEmpty))
    sc.statusTracker.getJobIdsForGroup(group).length
  }

  /** `body` under the session settings `kvs`, restored afterwards. */
  def withConf[A](kvs: (String, String)*)(body: => A): A = {
    val before = kvs.map { case (k, _) => k -> spark.conf.getOption(k) }
    kvs.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally before.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobSession.session("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
