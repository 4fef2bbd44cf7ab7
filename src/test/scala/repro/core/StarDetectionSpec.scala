package repro.core

import scala.util.Random

import repro.SparkSpec

/** Tests for Corollary 3.3 (Star Detection via doubled edges + geometric
  * degree guesses).
  */
class StarDetectionSpec extends SparkSpec {

  /** A random graph plus one planted star of degree exactly `deg`. */
  private def plantedStarGraph(n: Int, deg: Int, extraEdges: Int, seed: Long)
      : (Vector[(Long, Long)], Long, Map[Long, Set[Long]]) = {
    val rng = new Random(seed)
    val center = rng.nextInt(n).toLong + 1
    val leaves = rng.shuffle((1L to n.toLong).filterNot(_ == center).toVector).take(deg)
    val star   = leaves.map(l => (center, l))
    val others = Vector.fill(extraEdges) {
      val u = rng.nextInt(n).toLong + 1
      var v = rng.nextInt(n).toLong + 1
      while (v == u) v = rng.nextInt(n).toLong + 1
      (math.min(u, v), math.max(u, v))
    }.distinct.filterNot { case (u, v) => u == center || v == center }
    val edges = rng.shuffle((star ++ others).distinct)
    val adj = edges.flatMap { case (u, v) => Seq(u -> v, v -> u) }
      .groupBy(_._1).map { case (k, vs) => k -> vs.map(_._2).toSet }
    (edges, center, adj)
  }

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
    val (edges, _, adj) = plantedStarGraph(n, deg, extraEdges = 2 * n, seed = n * 31L + deg)
    val res = StarDetection.run(edges, n.toLong, c, eps = 0.5, seed = deg * 7L)
    assert(res.output.nonEmpty, "must report some star")
    val nb = res.output.get
    assert(Neighborhood.isValid(nb, adj), "reported star must exist")
    val delta = adj.values.map(_.size).max
    val bound = (1 + 0.5) * c
    assert(nb.size.toDouble >= delta / bound,
      s"star size ${nb.size} below Delta/bound = $delta/$bound")
  }

  test("guess g runs InsertionOnlyND.runs(guess, c, s, seed + g) on the doubled stream") {
    val n = 128; val c = 3; val seed = 31L
    val (edges, _, adj) = plantedStarGraph(n, 24, extraEdges = 6 * n, seed = 33)
    val res = StarDetection.run(edges, n.toLong, c, eps = 0.5, seed)
    val s = InsertionOnlyND.reservoirSize(n.toLong, c)
    val doubled = edges.flatMap { case (u, v) => Vector(Edge(u, v), Edge(v, u)) }
    val perGuess = res.guesses.zipWithIndex.map { case (dGuess, g) =>
      val runs = InsertionOnlyND.runs(dGuess, c, s, seed + g)
      InsertionOnlyND.feed(doubled, runs)
      runs.flatMap(_.result()).sortBy(-_.size).headOption
    }
    assert(res.output == perGuess.flatten.sortBy(-_.size).headOption)
    assert(res.perGuessSize == perGuess.map(_.fold(0)(_.size)))
    // Several vertices could have been the output.
    assert(adj.values.count(_.size >= res.output.get.size) > 1)
  }

  test("output neighbors are real on a small hand graph") {
    val edges = Vector((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L))
    val res = StarDetection.run(edges, 4, c = 2, eps = 0.5, seed = 3)
    val nb = res.output.get
    val adj = Map(1L -> Set(2L, 3L, 4L), 2L -> Set(1L, 3L), 3L -> Set(1L, 2L), 4L -> Set(1L))
    assert(Neighborhood.isValid(nb, adj))
  }

  test("per-guess sizes are monotone in what each guess can certify") {
    val (edges, _, _) = plantedStarGraph(200, 40, extraEdges = 200, seed = 9)
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
    val (edges, _, adj) = plantedStarGraph(n, 64, extraEdges = 4 * n, seed = 21)
    val c = math.ceil(math.log(n.toDouble)).toInt
    val res = StarDetection.run(edges, n.toLong, c, eps = 0.5, seed = 22)
    val delta = adj.values.map(_.size).max
    // crude: much less than storing all neighborhoods of all guesses
    assert(res.totalPeakWords < n.toLong * delta,
      s"words ${res.totalPeakWords} not sublinear in n*Delta = ${n * delta}")
  }
}
