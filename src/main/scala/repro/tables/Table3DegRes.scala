package repro.tables

import scala.util.Random

import repro.core.{DegResSampling, Edge, InsertionOnlyND}

/** Table 3 — Deg-Res-Sampling (Lemma 3.1): empirical success probability
  * against the bound 1 - (1 - s/n1)^n2 over a (n1, n2, s) grid, with n1
  * vertices of degree d1 of which n2 have degree d1 + d2 - 1.
  */
object Table3DegRes {

  final case class Cell(n1: Int, n2: Int, s: Int, trials: Int, successes: Int, bound: Double)

  private val D1     = 3
  private val D2     = 4
  private val Trials = 200

  def run(): TableOutput = {
    val cells = Seq(
      (100, 5, 10), (100, 10, 10), (100, 20, 10),
      (200, 5, 30), (200, 20, 30), (400, 10, 50), (50, 50, 5)).map { case (n1, n2, s) =>
      val bound = 1.0 - math.pow(1.0 - s.toDouble / n1, n2.toDouble)
      var succ = 0
      for (t <- 1 to Trials) {
        val rng = new Random(7000L * n1 + 31L * t + s)
        val edges = rng.shuffle((1 to n1).flatMap { a =>
          val deg = if (a <= n2) D1 + D2 - 1 else D1
          (1 to deg).map(i => Edge(a.toLong, a * 1000L + i))
        }.toVector)
        val alg = new DegResSampling(D1, D2, s, seed = 13L * t + n1, run = 0)
        new InsertionOnlyND.Partition(Vector(alg)).feed(edges)
        if (alg.succeeded) succ += 1
      }
      Cell(n1, n2, s, Trials, succ, bound)
    }
    val rows = cells.map { cl =>
      Vector(cl.n1.toString, cl.n2.toString, cl.s.toString,
        TableFormat.pct(cl.successes.toDouble / cl.trials),
        TableFormat.pct(cl.bound),
        TableFormat.f2(cl.successes.toDouble / cl.trials - cl.bound))
    }.toVector
    TableOutput(
      title = "Table 3: Deg-Res-Sampling success vs Lemma 3.1 bound 1-(1-s/n1)^n2",
      header = Vector("n1", "n2", "s", "measured", "bound", "margin"),
      rows = rows,
      checks = cells.map { cl =>
        val slack = 3 * math.sqrt(cl.bound * (1 - cl.bound) / cl.trials) + 0.02
        (s"T3 (n1=${cl.n1}, n2=${cl.n2}, s=${cl.s}): measured >= bound - noise",
          cl.successes.toDouble / cl.trials >= cl.bound - slack)
      }.toVector,
    )
  }
}
