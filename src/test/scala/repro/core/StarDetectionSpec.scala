package repro.core

import repro.{SparkSpec, SynthGraphs}

/** Tests for Corollary 3.3 (Star Detection via doubled edges + geometric
  * degree guesses).
  */
class StarDetectionSpec extends SparkSpec {

  /** Table 6's planted general graph and its adjacency, both directions. */
  private def plantedStarGraph(n: Int, deg: Int, extraEdges: Int, seed: Long)
      : (Vector[(Long, Long)], Map[Long, Set[Long]]) = {
    val edges = SynthGraphs.plantedStarGraph(n, deg, extraEdges, seed)
    (edges, SynthGraphs.adjacency(doubled(edges)))
  }

  private def doubled(edges: Seq[(Long, Long)]): Vector[Edge] =
    edges.iterator.flatMap { case (u, v) => Iterator(Edge(u, v), Edge(v, u)) }.toVector

  test("guess ladder covers [1, n] geometrically without duplicates") {
    val g = StarDetection.guessLadder(1000, 0.5)
    assert(g.head == 1)
    assert(g == g.distinct && g == g.sorted)
    assert(g.last >= 1000)
    // consecutive ratio <= (1+eps) + rounding
    g.sliding(2).foreach { case Vector(a, b) =>
      assert(b <= math.ceil(a * 1.5) + 1, s"gap $a -> $b too large")
    case _ => }
  }

  test("guess ladder rejects non-positive eps") {
    intercept[IllegalArgumentException](StarDetection.guessLadder(10, 0.0))
  }

  for {
    n   <- Seq(128, 256)
    deg <- Seq(24, 48)
  } test(s"finds a star within the (1+eps)c guarantee (n=$n, deg=$deg)") {
    val c = math.ceil(math.log(n.toDouble)).toInt
    val (edges, adj) = plantedStarGraph(n, deg, extraEdges = 2 * n, seed = n * 31L + deg)
    val res = StarDetection.run(edges, n.toLong, c, eps = 0.5, seed = deg * 7L)
    assert(res.output.nonEmpty, "must report some star")
    val nb = res.output.get
    assert(Neighborhood.isValid(nb, adj), "reported star must exist")
    val delta = adj.values.map(_.size).max
    val bound = (1 + 0.5) * c
    assert(nb.size.toDouble >= delta / bound,
      s"star size ${nb.size} below Delta/bound = $delta/$bound")
  }

  test("guess g is InsertionOnlyND.run(doubled, seed + g); first largest wins") {
    val n = 128; val c = 3; val seed = 31L
    val (edges, adj) = plantedStarGraph(n, 24, extraEdges = 6 * n, seed = 33)
    val res = StarDetection.run(edges, n.toLong, c, eps = 0.5, seed)
    val perGuess = res.guesses.zipWithIndex.map { case (dGuess, g) =>
      InsertionOnlyND.run(doubled(edges), n.toLong, dGuess, c, seed + g).output
    }
    assert(res.perGuessSize == perGuess.map(_.fold(0)(_.size)))
    assert(res.output == perGuess.flatten.maxByOption(_.size))
    // Several vertices could have been the output.
    assert(adj.values.count(_.size >= res.output.get.size) > 1)
  }

  test("rejects c < 2, naming the value") {
    val e = intercept[IllegalArgumentException](
      StarDetection.run(Vector((1L, 2L)), n = 2, c = 1, eps = 0.5, seed = 1))
    assert(e.getMessage.contains("approximation factor must be >= 2, got 1"))
  }

  test("output neighbors are real on a small hand graph") {
    val edges = Vector((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L))
    val res = StarDetection.run(edges, 4, c = 2, eps = 0.5, seed = 3)
    val nb = res.output.get
    val adj = Map(1L -> Set(2L, 3L, 4L), 2L -> Set(1L, 3L), 3L -> Set(1L, 2L), 4L -> Set(1L))
    assert(Neighborhood.isValid(nb, adj))
  }

  test("per-guess sizes are monotone in what each guess can certify") {
    val (edges, _) = plantedStarGraph(200, 40, extraEdges = 200, seed = 9)
    val res = StarDetection.run(edges, 200, c = 4, eps = 0.5, seed = 11)
    // Every successful guess g yields a neighborhood of exactly
    // max(1, floor(g/c)) — the target size for that guess.
    res.guesses.zip(res.perGuessSize).foreach { case (g, sz) =>
      if (sz > 0) assert(sz == math.max(1, g / 4), s"guess $g produced size $sz")
    }
  }

  test("space charges the one degree table once, not once per guess") {
    // One edge, n = 2, c = 2, eps = 0.5: guesses 1, 2, 3, each with 2 runs
    // of d1 = d2 = 1 and s = ceil(sqrt(2) ln 2) = 1. Whatever its coin
    // flips, each run holds 1 reservoir id + 1 witness = 2 words at its
    // peak; the doubled stream puts both vertices in the degree table.
    val res = StarDetection.run(Vector((1L, 2L)), n = 2, c = 2, eps = 0.5, seed = 5)
    assert(res.guesses == Vector(1, 2, 3))
    assert(res.totalPeakWords == 2 + 3 * 2 * 2)
  }

  test("semi-streaming space: words are O(n polylog) not O(n * Delta)") {
    val n = 256
    val (edges, adj) = plantedStarGraph(n, 64, extraEdges = 4 * n, seed = 21)
    val c = math.ceil(math.log(n.toDouble)).toInt
    val res = StarDetection.run(edges, n.toLong, c, eps = 0.5, seed = 22)
    val delta = adj.values.map(_.size).max
    // crude: much less than storing all neighborhoods of all guesses
    assert(res.totalPeakWords < n.toLong * delta,
      s"words ${res.totalPeakWords} not sublinear in n*Delta = ${n * delta}")
  }
}
