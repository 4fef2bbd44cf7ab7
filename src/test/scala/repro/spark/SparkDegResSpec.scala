package repro.spark

import repro.{SparkSpec, SynthGraphs}
import repro.core.{Edge, InsertionOnlyND, InsertionOnlyResult, Neighborhood}

/** Tests for the vertex-partitioned build of Algorithm 2: outputs
  * validated against ground truth, exact equality with the sequential
  * build [[InsertionOnlyND.run]] on the same edges, in any row order, and
  * one Spark job per call whatever c is.
  */
class SparkDegResSpec extends SparkSpec {
  import SparkDegResSpec.assertMatches

  private def df(edges: Seq[Edge]) = SynthGraphs.edgesDf(spark, edges)

  private val families = Seq[(String, Long => Vector[Edge])](
    ("plantedStar", s => SynthGraphs.plantedStar(96, 4 * 96, 24, 6, s)._1),
    ("uniform+star", s => SynthGraphs.uniformPlusPlanted(96, 4 * 96, 24, 5, s)._1),
    ("zipfDegrees", s => SynthGraphs.zipfDegrees(96, 4 * 96, 24, 1.0, 1, s)._1),
  )

  /** Requires the Spark build to return the sequential build's result on
    * the same edges; returns the sequential result.
    */
  private def assertParity(edges: Seq[Edge], c: Int, seed: Long,
                           sOverride: Option[Int]): InsertionOnlyResult = {
    val seq = InsertionOnlyND.run(edges, 96, 24, c, seed, sOverride)
    assertMatches(SparkDegRes.run(df(edges), 96, 24, c, seed, sOverride), seq, 24, c,
      s"c=$c seed=$seed sOverride=$sOverride")
    seq
  }

  for ((family, mk) <- families; c <- Seq(2, 3, 4))
    test(s"one-plan run equals the per-run reference: $family c=$c") {
      val seed = c + 2L
      for (sOverride <- Seq(None, Some(1))) assertParity(mk(seed), c, seed, sOverride)
    }

  test("one-plan run equals the per-run reference when every run fails") {
    // A sample of one vertex misses every vertex of enough degree ...
    val (_, zipf) = families(2)
    assert(assertParity(zipf(1L), 2, 1L, Some(1)).runSucceeded == Vector(false, false))
    // ... and with every degree below d/c, every run fails at any s.
    val low = Seq.tabulate(200)(i => Edge(i / 4 + 1L, i + 1L))
    assert(assertParity(low, 4, 1L, None).runSucceeded == Vector.fill(4)(false))
  }

  for {
    (family, mk) <- Seq[(String, (Long, Long) => (Vector[Edge], Long))](
      ("plantedStar", (n, s) => SynthGraphs.plantedStar(n, 4 * n, 24, 6, s)),
      ("uniform+star", (n, s) => SynthGraphs.uniformPlusPlanted(n, 4 * n, 24, 5, s)),
    )
    c <- Seq(2, 3)
  } test(s"Spark run finds a valid floor(d/c) neighborhood: $family c=$c") {
    val n = 96L; val d = 24
    val (edges, _) = mk(n, 10L * c)
    val adj = SynthGraphs.adjacency(edges)
    val res = SparkDegRes.run(df(edges), n, d, c, seed = 5L * c)
    assert(res.output.nonEmpty)
    val nb = res.output.get
    assert(nb.size == InsertionOnlyND.targetSize(d, c))
    assert(Neighborhood.isValid(nb, adj))
  }

  test("collected neighbors are exactly the post-crossing edges in stream order") {
    // Single vertex with known edge order: run with c=2, d=8 -> run 1 has
    // d1 = 4, d2 = 4, so the collected neighbors must be edges ranked 4..7.
    val edges = (1 to 10).map(i => Edge(5, i * 100L))
    val res = SparkDegRes.run(df(edges), n = 8, d = 8, c = 2, seed = 3)
    assert(res.output.nonEmpty)
    val nb = res.output.get
    assert(nb.a == 5L)
    val valid = Set(Vector(100L, 200L, 300L, 400L), Vector(400L, 500L, 600L, 700L))
    assert(valid.contains(nb.neighbors),
      s"neighbors ${nb.neighbors} are not a rank-window [1..4] or [4..7]")
  }

  test("run-level success pattern mirrors the sequential algorithm's predicate") {
    // uniform+star with bg < d/c: only the planted vertex can satisfy any
    // run, so every successful run must return it.
    val n = 128L; val d = 32; val c = 4
    val (edges, planted) = SynthGraphs.uniformPlusPlanted(n, 4 * n, d, bg = 7, seed = 21)
    val res = SparkDegRes.run(df(edges), n, d, c, seed = 22)
    assert(res.output.map(_.a).contains(planted))
    // run i=1 (threshold 8) samples only from {planted}: must succeed
    assert(res.runSucceeded(1))
  }

  test("deterministic given the seed") {
    val (edges, _) = SynthGraphs.plantedStar(64, 256, 16, 4, seed = 31)
    val e = df(edges)
    val r1 = SparkDegRes.run(e, 64, 16, 2, seed = 7)
    val r2 = SparkDegRes.run(e, 64, 16, 2, seed = 7)
    assert(r1 == r2)
  }

  test("success frequency comparable to sequential implementation") {
    // Same two-level adversarial family, paper reservoir size: both builds
    // succeed on every trial, with the same result.
    val n = 128L; val d = 16; val c = 2
    for (t <- 1 to 5) {
      val (edges, _) = SynthGraphs.plantedStar(n, 4 * n, d, 4, seed = 100L + t)
      val seq = InsertionOnlyND.run(edges, n, d, c, seed = t)
      assert(seq.succeeded)
      assertMatches(SparkDegRes.run(df(edges), n, d, c, seed = t), seq, d, c, s"trial $t")
    }
  }

  test("rejects c < 2") {
    val (edges, _) = SynthGraphs.plantedStar(16, 64, 4, 1, seed = 1)
    intercept[IllegalArgumentException](SparkDegRes.run(df(edges), 16, 4, 1, 0))
  }

  test("rejects d < 1, naming the value") {
    val (edges, _) = SynthGraphs.plantedStar(16, 64, 4, 1, seed = 1)
    val e = intercept[IllegalArgumentException](SparkDegRes.run(df(edges), 16, 0, 2, 0))
    assert(e.getMessage.contains("degree threshold must be >= 1, got 0"))
  }

  test("rejects a reservoir size < 1, naming the value") {
    val (edges, _) = SynthGraphs.plantedStar(16, 64, 4, 1, seed = 1)
    val e = intercept[IllegalArgumentException](
      SparkDegRes.run(df(edges), 16, 4, 2, 0, sOverride = Some(0)))
    assert(e.getMessage.contains("reservoir size must be >= 1, got 0"))
  }

  test("job count of a call does not grow with c") {
    val (edges, _) = SynthGraphs.plantedStar(96, 4 * 96, 24, 6, seed = 41)
    val e = df(edges).localCheckpoint()
    var outputs = Seq.empty[Option[Neighborhood]]
    val counts = Seq(2, 4).map { c =>
      jobsOf { outputs :+= SparkDegRes.run(e, 96, 24, c, seed = 41).output }
    }
    assert(outputs.forall(_.nonEmpty))
    assert(counts == Seq(1, 1), s"jobs at c = 2 and c = 4: $counts")
  }

  test("rows out of stream order give the pos-ordered stream's result") {
    val (_, mk) = families(0)
    val edges = mk(9L)
    val rows = edges.zipWithIndex.map { case (e, i) => (i.toLong, e.a, e.b) }
    import spark.implicits._
    for {
      (order, shuffled) <- Seq("reversed" -> rows.reverse,
                               "shuffled" -> new scala.util.Random(9L).shuffle(rows))
      c <- Seq(2, 3)
    } assertMatches(SparkDegRes.run(shuffled.toDF("pos", "a", "b"), 96, 24, c, seed = 9L),
      InsertionOnlyND.run(edges, 96, 24, c, seed = 9L), 24, c, s"$order c=$c")
  }

  test("empty input: no output and every run fails, as in the sequential build") {
    for (c <- Seq(2, 4)) {
      val got = SparkDegRes.run(df(Seq.empty), 96, 24, c, seed = 1L)
      assert(got == InsertionOnlyND.run(Seq.empty, 96, 24, c, seed = 1L), s"c=$c")
      assert(got.output.isEmpty && got.runSucceeded == Vector.fill(c)(false))
    }
  }

  test("priority sample size never exceeds s (reservoir-size parity)") {
    val n = 64L
    val (edges, _) = SynthGraphs.plantedStar(n, 256, 16, 8, seed = 5)
    val e = df(edges)
    val s = 3
    val res = SparkDegRes.run(e, n, 16, 2, seed = 5, sOverride = Some(s))
    assert(res.reservoirSize == s)
    // With a tiny sample the run can fail; if it succeeds the output is valid.
    res.output.foreach { nb =>
      assert(Neighborhood.isValid(nb, SynthGraphs.adjacency(edges)))
    }
  }
}

object SparkDegResSpec {
  import org.scalatest.Assertions._

  /** Requires the Spark build's result `got` to equal the sequential
    * build's `want` on the same edges in output, run flags, reservoir size
    * and degree words (vertices are disjoint across partitions, so the
    * partitions' degree words add up to the sequential count), and each
    * run's peak words to stay within one run's bound s·(1 + ⌊d/c⌋).
    */
  def assertMatches(got: InsertionOnlyResult, want: InsertionOnlyResult, d: Int, c: Int,
                    clue: String): Unit = {
    assert(got.output == want.output, clue)
    assert(got.runSucceeded == want.runSucceeded, clue)
    assert(got.reservoirSize == want.reservoirSize, clue)
    assert(got.degreeWords == want.degreeWords, clue)
    val bound = got.reservoirSize.toLong * (1 + InsertionOnlyND.targetSize(d, c))
    assert(got.runPeakWords.size == c && got.runPeakWords.forall(_ <= bound),
      s"$clue: run peak words ${got.runPeakWords} above $bound")
  }
}
