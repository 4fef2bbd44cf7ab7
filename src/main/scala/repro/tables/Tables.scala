package repro.tables

import scala.collection.immutable.SortedMap

import org.apache.spark.sql.SparkSession

/** The one runner for Tables 1–7 (EXPERIMENTS.md, DESIGN.md §5):
  *
  * {{{
  * sbt "runMain repro.tables.Tables"        # all seven tables
  * sbt "runMain repro.tables.Tables 4 5"    # the given ids, in that order
  * }}}
  *
  * Prints every table, then lists each false shape check on stderr and
  * exits 1 if there is any.
  */
object Tables {

  /** The SparkSession of the table runs and the test suites: master from
    * SPARK_MASTER (default `local[4]`, so Table 5's P is 4 on every host),
    * 64 shuffle partitions, and WARN logging.
    */
  def session(appName: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[4]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", 64)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  // Created on first use, so a run without Tables 4 and 5 starts no Spark.
  private lazy val spark = session("repro-tables")

  /** Table id → harness. */
  val registry: SortedMap[String, () => TableOutput] = SortedMap(
    "1" -> (() => Table1InsertionOnly.run()),
    "2" -> (() => Table2Space.run()),
    "3" -> (() => Table3DegRes.run()),
    "4" -> (() => Table4Turnstile.run(spark)),
    "5" -> (() => Table5Witness.run(spark)),
    "6" -> (() => Table6Star.run()),
    "7" -> (() => Table7LowerBound.run()),
  )

  /** The ids to run: `args`, or every id if `args` is empty. Throws
    * IllegalArgumentException naming the valid ids on an unknown one.
    */
  def select(args: Seq[String]): Seq[String] = {
    val unknown = args.filterNot(registry.contains)
    require(unknown.isEmpty,
      s"unknown table id ${unknown.mkString(", ")}; valid ids: ${registry.keys.mkString(", ")}")
    if (args.isEmpty) registry.keys.toSeq else args
  }

  /** Names of the false shape checks, in table order. */
  def failedChecks(outs: Seq[TableOutput]): Seq[String] =
    outs.flatMap(_.checks.collect { case (name, false) => name })

  def main(args: Array[String]): Unit = {
    val ids = select(args.toSeq)
    val outs =
      try ids.map { id =>
        val out = registry(id)()
        println(out.render)
        println()
        out
      } finally SparkSession.getDefaultSession.foreach(_.stop())
    val failed = failedChecks(outs)
    if (failed.nonEmpty) {
      Console.err.println(failed.map("CHECK FAILED: " + _).mkString("\n"))
      sys.exit(1)
    }
  }
}
