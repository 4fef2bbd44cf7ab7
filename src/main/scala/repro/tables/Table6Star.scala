package repro.tables

import repro.SynthGraphs
import repro.core.StarDetection

/** Table 6 — Star Detection (Corollary 3.3): measured approximation ratio
  * Delta / |output| for c = ceil(log n) against the (1+eps)·c guarantee on
  * planted-star general graphs.
  */
object Table6Star {

  final case class Cell(n: Int, delta: Int, c: Int, outSize: Int, ratio: Double,
                        bound: Double, words: Long)

  private val Eps = 0.5

  def run(): TableOutput = {
    val cells = for (n <- Seq(512, 2048); deg <- Seq(64, 128)) yield {
      val c = math.ceil(math.log(n.toDouble)).toInt
      val edges = SynthGraphs.plantedStarGraph(n, deg, extra = 4 * n, seed = n * 31L + deg)
      val delta = edges.flatMap { case (u, v) => Seq(u, v) }
        .groupBy(identity).values.map(_.size).max
      val res = StarDetection.run(edges, n.toLong, c, Eps, seed = deg * 13L)
      val size = res.output.map(_.size).getOrElse(0)
      Cell(n, delta, c, size,
        if (size == 0) Double.PositiveInfinity else delta.toDouble / size,
        (1 + Eps) * c, res.totalPeakWords)
    }
    TableOutput(
      title = "Table 6: Star Detection (paper: (1+eps)*ceil(log n)-approx, semi-streaming space)",
      header = Vector("n", "Delta", "c=ceil(ln n)", "outSize", "Delta/out", "bound", "words"),
      rows = cells.map(cl => Vector(cl.n.toString, cl.delta.toString, cl.c.toString,
        cl.outSize.toString, TableFormat.f2(cl.ratio), TableFormat.f2(cl.bound),
        TableFormat.words(cl.words))).toVector,
      checks = cells.map { cl =>
        (s"T6 n=${cl.n} Delta=${cl.delta}: ratio ${TableFormat.f2(cl.ratio)} within bound ${cl.bound}",
          cl.ratio <= cl.bound)
      }.toVector ++ Vector(
        ("T6: space stays well below n*Delta (semi-streaming)",
          cells.forall(cl => cl.words < cl.n.toLong * cl.delta)),
      ),
    )
  }
}
