package repro.tables

import org.scalatest.funsuite.AnyFunSuite

/** The table runner's id handling and exit-code rule, and Table 6 run end
  * to end (sequential, 4 cells).
  */
class TablesSpec extends AnyFunSuite {

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

  test("Table 6 runs its 4 cells and every check holds") {
    val out = Table6Star.run()
    assert(out.rows.size == 4)
    assert(out.checks.nonEmpty)
    assert(Tables.failedChecks(Seq(out)).isEmpty, out.render)
  }
}
