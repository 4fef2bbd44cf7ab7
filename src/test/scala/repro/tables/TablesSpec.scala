package repro.tables

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import repro.SparkSpec

/** The table runner's id handling and exit-code rule, and every table run
  * end to end: its checks hold, and EXPERIMENTS.md holds its text verbatim.
  */
class TablesSpec extends SparkSpec {

  test("registry holds exactly ids 1..7, each once") {
    assert(Tables.registry.keys.toSeq == (1 to 7).map(_.toString))
  }

  test("no ids selects all seven in order; given ids are kept as given") {
    assert(Tables.select(Nil) == (1 to 7).map(_.toString))
    assert(Tables.select(Seq("5", "2")) == Seq("5", "2"))
  }

  for (bad <- Seq("8", "x", "0")) test(s"unknown id '$bad' is rejected, naming the valid ids") {
    val e = intercept[IllegalArgumentException](Tables.select(Seq("1", bad)))
    assert(e.getMessage.contains(bad))
    assert(e.getMessage.contains("valid ids: 1, 2, 3, 4, 5, 6, 7"))
  }

  test("failed checks are exactly the false ones, in order") {
    def table(checks: (String, Boolean)*) =
      TableOutput("t", Vector("h"), Vector(Vector("r")), checks.toVector)
    val outs = Seq(
      table("a" -> true, "b" -> false, "c" -> true),
      table("d" -> false, "e" -> false),
      table(),
    )
    assert(Tables.failedChecks(outs) == Seq("b", "d", "e"))
    assert(Tables.failedChecks(Seq(table("a" -> true))).isEmpty)
  }

  test("the session runs on local[4] unless SPARK_MASTER is set, whatever the core count") {
    assert(spark.sparkContext.master == sys.env.getOrElse("SPARK_MASTER", "local[4]"))
  }

  // EXPERIMENTS.md, at the repository root, is the one record of the
  // tables: each table's text is a fenced block there, exactly as the
  // runner prints it, so a change to any row, check or note shows here.
  private lazy val experiments =
    new String(Files.readAllBytes(Paths.get("EXPERIMENTS.md")), UTF_8)

  // Tables 4 and 5 get this suite's shared session: Tables.session's
  // getOrCreate returns the one running.
  for (id <- Tables.registry.keys)
    test(s"Table $id: every check holds and EXPERIMENTS.md holds its text verbatim") {
      val out = Tables.registry(id)()
      assert(out.checks.nonEmpty)
      assert(Tables.failedChecks(Seq(out)).isEmpty, out.render)
      if (!experiments.contains(s"```\n${out.render}\n```\n"))
        fail(s"EXPERIMENTS.md has no fenced block equal to Table $id's text:\n${out.render}")
    }
}
