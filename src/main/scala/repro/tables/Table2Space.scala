package repro.tables

import repro.SynthGraphs
import repro.baseline.ExactND
import repro.core.InsertionOnlyND

/** Table 2 — space separation (Theorem 3.2 vs the exact Õ(nd) baseline):
  * measured words of Algorithm 2 vs the exact store-first-d baseline and
  * vs the n + c·s·(1 + d/c) word budget, as c grows.
  */
object Table2Space {

  final case class Cell(n: Long, d: Int, c: Int, algWords: Long, exactWords: Long,
                        budgetWords: Long, ratioVsExact: Double)

  private val N    = 10000L
  private val D    = 256
  private val Seed = 7L

  def run(): TableOutput = {
    val (edges, _) = SynthGraphs.plantedStar(N, 4 * N, D, maxBg = 32, Seed)
    val exact = new ExactND(D).processAll(edges)
    val cells = Seq(2, 3, 4, 6).map { c =>
      val res = InsertionOnlyND.run(edges, N, D, c, seed = Seed + c)
      val s = InsertionOnlyND.reservoirSize(N, c)
      val budget = N + c.toLong * s * (1 + InsertionOnlyND.targetSize(D, c))
      Cell(N, D, c, res.totalPeakWords, exact.peakWords, budget,
        res.totalPeakWords.toDouble / exact.peakWords)
    }
    val rows = cells.map { cl =>
      Vector(cl.n.toString, cl.d.toString, cl.c.toString,
        TableFormat.words(cl.algWords), TableFormat.words(cl.exactWords),
        TableFormat.words(cl.budgetWords), TableFormat.f2(cl.ratioVsExact),
        TableFormat.f2(math.pow(cl.n.toDouble, 1.0 / cl.c) * cl.d / (cl.n.toDouble * cl.d) * cl.n))
    }.toVector
    TableOutput(
      title = s"Table 2: space of Algorithm 2 vs exact nd baseline (paper: O(n log n + n^(1/c) d log^2 n) = o(nd))",
      header = Vector("n", "d", "c", "algWords", "exactWords", "budget", "alg/exact", "n^(1/c)d/d"),
      rows = rows,
      checks = Vector(
        ("T2: algorithm within its word budget for every c",
          cells.forall(cl => cl.algWords <= cl.budgetWords)),
        ("T2: algorithm beats the exact nd baseline for every c",
          cells.forall(cl => cl.algWords < cl.exactWords)),
        ("T2: run-storage shrinks as c grows (n^(1/c) d law)",
          cells.sliding(2).forall { case Seq(a, b) => b.algWords <= a.algWords; case _ => true }),
      ),
      notes = Vector(
        "alg/exact < 1 is the o(nd) separation; the degree table (n words) dominates at large c."),
    )
  }
}
