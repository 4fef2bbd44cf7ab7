package repro.spark

import repro.{Oracle, SparkSpec, SynthGraphs}
import repro.core.{Edge, InsertionOnlyND, Neighborhood}

/** Tests for the DataFrame (Catalyst) build of Algorithm 2: intermediate
  * tables oracle-checked against DuckDB, outputs validated against ground
  * truth, exact equality with the per-run reference — the sequential build
  * [[InsertionOnlyND.run]], one reservoir per threshold run — and a job
  * count that does not grow with c.
  */
class SparkDegResSpec extends SparkSpec {

  private def df(edges: Seq[Edge]) = SynthGraphs.edgesDf(spark, edges)

  private val families = Seq[(String, Long => Vector[Edge])](
    ("plantedStar", s => SynthGraphs.plantedStar(96, 4 * 96, 24, 6, s)._1),
    ("uniform+star", s => SynthGraphs.uniformPlusPlanted(96, 4 * 96, 24, 5, s)._1),
    ("zipfDegrees", s => SynthGraphs.zipfDegrees(96, 4 * 96, 24, 1.0, 1, s)._1),
  )

  /** Requires the one-plan build to return the sequential build's result
    * on the same edges; returns it.
    */
  private def assertParity(edges: Seq[Edge], c: Int, seed: Long,
                           sOverride: Option[Int]): SparkDegResResult = {
    val seq = InsertionOnlyND.run(edges, 96, 24, c, seed, sOverride)
    val want = SparkDegResResult(seq.output, seq.runSucceeded, seq.reservoirSize)
    assert(SparkDegRes.run(df(edges), 96, 24, c, seed, sOverride) == want,
      s"c=$c seed=$seed sOverride=$sOverride")
    want
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

  test("degrees match DuckDB on a planted-star instance") {
    val (edges, _) = SynthGraphs.plantedStar(n = 64, m = 256, d = 16, maxBg = 4, seed = 1)
    val e = df(edges).cache()
    try {
      Oracle.assertEquivalent(
        SparkDegRes.degrees(e),
        "SELECT a, count(*) AS deg FROM edges GROUP BY a",
        "edges" -> e)
    } finally e.unpersist()
  }

  test("per-vertex ranks match DuckDB row_number over stream position") {
    val (edges, _) = SynthGraphs.plantedStar(n = 32, m = 128, d = 8, maxBg = 3, seed = 2)
    val e = df(edges).cache()
    try {
      Oracle.assertEquivalent(
        SparkDegRes.ranked(e).select("pos", "a", "b", "rank"),
        "SELECT pos, a, b, row_number() OVER (PARTITION BY a ORDER BY CAST(pos AS BIGINT)) AS rank " +
          "FROM edges",
        "edges" -> e)
    } finally e.unpersist()
  }

  test("rank ordering follows stream position exactly (hand instance)") {
    val edges = Seq(Edge(1, 10), Edge(2, 20), Edge(1, 11), Edge(1, 12), Edge(2, 21))
    val got = SparkDegRes.ranked(df(edges))
      .orderBy("a", "rank").select("a", "b", "rank")
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).toSeq
    assert(got == Seq((1L, 10L, 1L), (1L, 11L, 2L), (1L, 12L, 3L),
                      (2L, 20L, 1L), (2L, 21L, 2L)))
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
      assert(SparkDegRes.run(df(edges), n, d, c, seed = t) ==
        SparkDegResResult(seq.output, seq.runSucceeded, seq.reservoirSize))
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
    // Both calls find a winner, so both run the neighbor query too.
    assert(outputs.forall(_.nonEmpty))
    assert(counts(0) == counts(1), s"jobs at c = 2 and c = 4: $counts")
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
