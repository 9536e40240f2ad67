package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp._

/** The one SparkSession builder, shared by the table jobs and the tests. */
object JobSession {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      // Tiny local frames: few shuffle partitions keep per-query overhead low.
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "8"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** spark-submit entrypoint reproducing one of Tables 1–6:
  * `RunTables <1-6>`.
  */
object RunTables {
  private val tables: Map[String, SparkSession => Seq[String]] = Map(
    "1" -> Table1.run, "2" -> Table2.run, "3" -> Table3.run,
    "4" -> Table4.run, "5" -> Table5.run, "6" -> Table6.run)

  def main(args: Array[String]): Unit = args match {
    case Array(n) if tables.contains(n) =>
      Harness.emit(s"table$n", tables(n)(JobSession.session(s"arda-table$n")))
    case _ =>
      System.err.println("usage: RunTables <table number, 1-6>")
      sys.exit(2)
  }
}
