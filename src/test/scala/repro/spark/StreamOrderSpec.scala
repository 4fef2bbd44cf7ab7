package repro.spark

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.{SparkSpec, SynthGraphs}
import repro.core.{Edge, FrequentItemReport, InsertionOnlyND, Neighborhood, WitnessRecord}

/** Adversarial stream orders, generated: on random permutations of a
  * planted instance, with the heavy vertex's edges moved first, moved last
  * or left where the permutation put them, the sequential, DataFrame and
  * streaming builds of Algorithm 2 return the same result for a seed, and
  * that result is a valid floor(d/c) neighborhood.
  */
class StreamOrderSpec extends SparkSpec {

  private val n = 96L
  private val d = 24

  /** Each case runs a streaming query and a Spark job, so a few cases per
    * instance keep the suite's time near the fixed orders' it replaces.
    */
  private val casesPerInstance = 3

  private val families = Seq[(String, Long => (Vector[Edge], Long))](
    ("plantedStar", s => SynthGraphs.plantedStar(n, 4 * n, d, 6, s)),
    ("uniform+star", s => SynthGraphs.uniformPlusPlanted(n, 4 * n, d, 5, s)),
  )

  /** A placement of the heavy vertex's edges, and a shuffle seed. Kept
    * small so that a failing case prints as two values, not a stream.
    */
  private val orders: Gen[(String, Long)] =
    Gen.zip(Gen.oneOf("heavy first", "heavy last", "shuffled"), Gen.long)

  /** A random permutation of `edges`, then the heavy vertex's edges first,
    * last, or in place.
    */
  private def arrange(edges: Vector[Edge], heavy: Long, placement: String,
                      shuffleSeed: Long): Vector[Edge] = {
    val shuffled = new scala.util.Random(shuffleSeed).shuffle(edges)
    val (h, bg) = shuffled.partition(_.a == heavy)
    placement match {
      case "heavy first" => h ++ bg
      case "heavy last"  => bg ++ h
      case _             => shuffled
    }
  }

  for ((family, mk) <- families; c <- Seq(2, 3))
    test(s"three builds agree on adversarial orders: $family c=$c") {
      val seed = 7L * c
      val (edges, heavy) = mk(seed)
      val adj = SynthGraphs.adjacency(edges)
      val prop = Prop.forAllNoShrink(orders) { case (placement, shuffleSeed) =>
        val stream = arrange(edges, heavy, placement, shuffleSeed)
        val clue = s"$placement, shuffle seed $shuffleSeed, c=$c"
        val seq = InsertionOnlyND.run(stream, n, d, c, seed)
        val nb = seq.output.getOrElse(fail(s"$clue: no output"))
        assert(nb.size == InsertionOnlyND.targetSize(d, c) && Neighborhood.isValid(nb, adj), clue)
        SparkDegResSpec.assertMatches(
          SparkDegRes.run(SynthGraphs.edgesDf(spark, stream), n, d, c, seed), seq, d, c, clue)
        val (report, succ, _) = StreamingWitness.runMicroBatched(spark,
          stream.map(e => WitnessRecord(e.a, e.b)), 3, InsertionOnlyND.Params(n, d, c, seed))
        assert(report.contains(FrequentItemReport(nb.a, nb.neighbors)), clue)
        assert(succ == seq.runSucceeded, clue)
        Prop.passed
      }
      val params = Test.Parameters.default
        .withMinSuccessfulTests(casesPerInstance)
        .withInitialSeed(Seed(seed))
      val result = Test.check(params, prop)
      assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
    }
}
