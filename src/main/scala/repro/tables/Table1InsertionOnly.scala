package repro.tables

import repro.SynthGraphs
import repro.core.{InsertionOnlyND, Neighborhood}

/** Table 1 — insertion-only Neighborhood Detection (Theorem 3.2): success
  * rate vs the 1 - 1/n floor, output size vs floor(d/c), and validity
  * against the output vertex's own edges, across instance families and
  * (n, d, c).
  */
object Table1InsertionOnly {

  final case class Cell(family: String, n: Long, d: Int, c: Int, trials: Int,
                        successes: Int, validOutputs: Int, sizeOk: Int)

  def families(d: Int): Seq[(String, (Long, Long) => (Vector[repro.core.Edge], Long))] = Seq(
    ("planted", (n, s) => SynthGraphs.plantedStar(n, 4 * n, d, maxBg = d / 4, s)),
    ("zipf",    (n, s) => SynthGraphs.zipfDegrees(n, 4 * n, d, alpha = 1.0, minDeg = 1, s)),
    ("uniform", (n, s) => SynthGraphs.uniformPlusPlanted(n, 4 * n, d, bg = d / 4 - 1, s)),
  )

  private val D      = 64
  private val Trials = 30

  def run(): TableOutput = {
    val cells = for {
      (fam, mk) <- families(D)
      n <- Seq(1000L, 4000L)
      c <- Seq(2, 3, 4)
    } yield {
      var succ = 0; var valid = 0; var sizeOk = 0
      for (t <- 1 to Trials) {
        val (edges, _) = mk(n, 1000L * t + 31L * c + n)
        val res = InsertionOnlyND.run(edges, n, D, c, seed = 77L * t + c)
        res.output.foreach { nb =>
          succ += 1
          if (Neighborhood.isValid(nb, Map(nb.a -> edges.iterator.filter(_.a == nb.a).map(_.b).toSet))) valid += 1
          if (nb.size == InsertionOnlyND.targetSize(D, c)) sizeOk += 1
        }
      }
      Cell(fam, n, D, c, Trials, succ, valid, sizeOk)
    }
    val rows = cells.map { cl =>
      Vector(cl.family, cl.n.toString, cl.d.toString, cl.c.toString,
        s"${cl.successes}/${cl.trials}",
        TableFormat.pct(cl.successes.toDouble / cl.trials),
        TableFormat.pct(1.0 - 1.0 / cl.n),
        (cl.d / cl.c).toString,
        s"${cl.validOutputs}/${cl.successes}")
    }.toVector
    TableOutput(
      title = "Table 1: insertion-only ND success vs Theorem 3.2 (paper: success >= 1-1/n, size = floor(d/c))",
      header = Vector("family", "n", "d", "c", "succ", "rate", "theory>=", "size", "valid"),
      rows = rows,
      checks = cells.map { cl =>
        (s"T1 ${cl.family} n=${cl.n} c=${cl.c}: success rate >= theory floor (within trials noise)",
          cl.successes.toDouble / cl.trials >= (1.0 - 1.0 / cl.n) - 0.1)
      }.toVector ++ cells.map { cl =>
        (s"T1 ${cl.family} n=${cl.n} c=${cl.c}: all outputs valid and exactly floor(d/c)",
          cl.validOutputs == cl.successes && cl.sizeOk == cl.successes)
      }.toVector,
    )
  }
}
