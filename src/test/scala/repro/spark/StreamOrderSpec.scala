package repro.spark

import repro.{SparkSpec, SynthGraphs}
import repro.core.{Edge, FrequentItemReport, InsertionOnlyND, Neighborhood, WitnessRecord}

/** Adversarial stream orders: with the heavy vertex's edges placed first,
  * last or interleaved with the background, the sequential, DataFrame and
  * streaming builds of Algorithm 2 return the same result for a seed, and
  * that result is a valid floor(d/c) neighborhood.
  */
class StreamOrderSpec extends SparkSpec {

  private val n = 96L
  private val d = 24

  private val families = Seq[(String, Long => (Vector[Edge], Long))](
    ("plantedStar", s => SynthGraphs.plantedStar(n, 4 * n, d, 6, s)),
    ("uniform+star", s => SynthGraphs.uniformPlusPlanted(n, 4 * n, d, 5, s)),
  )

  /** The stream with the heavy vertex's edges first, last, and spread
    * evenly through the background.
    */
  private def orders(edges: Vector[Edge], heavy: Long): Seq[(String, Vector[Edge])] = {
    val (h, bg) = edges.partition(_.a == heavy)
    val spread = h.size.toDouble / (bg.size + 1)
    val interleaved = (
      h.indices.map(j => (h(j), (j + 0.5) / spread)) ++
        bg.indices.map(k => (bg(k), k.toDouble))
    ).sortBy(_._2).map(_._1).toVector
    Seq("heavy first" -> (h ++ bg), "heavy last" -> (bg ++ h), "interleaved" -> interleaved)
  }

  for ((family, mk) <- families; c <- Seq(2, 3))
    test(s"three builds agree on adversarial orders: $family c=$c") {
      val seed = 7L * c
      val (edges, heavy) = mk(seed)
      val adj = SynthGraphs.adjacency(edges)
      for ((order, stream) <- orders(edges, heavy)) {
        val clue = s"$order c=$c"
        val seq = InsertionOnlyND.run(stream, n, d, c, seed)
        val nb = seq.output.getOrElse(fail(s"$clue: no output"))
        assert(nb.size == InsertionOnlyND.targetSize(d, c) && Neighborhood.isValid(nb, adj), clue)
        SparkDegResSpec.assertMatches(
          SparkDegRes.run(SynthGraphs.edgesDf(spark, stream), n, d, c, seed), seq, d, c, clue)
        val (report, succ, _) = StreamingWitness.runMicroBatched(spark,
          stream.map(e => WitnessRecord(e.a, e.b)), 3, StreamingWitness.Config(n, d, c, seed))
        assert(report.contains(FrequentItemReport(nb.a, nb.neighbors)), clue)
        assert(succ == seq.runSucceeded, clue)
      }
    }
}
