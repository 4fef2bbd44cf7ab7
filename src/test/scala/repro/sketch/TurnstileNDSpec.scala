package repro.sketch

import repro.{Hashing, SparkSpec, SynthGraphs}
import repro.core.{Neighborhood, StreamOp}

/** Tests for Algorithm 3 / Theorem 5.4 (turnstile Neighborhood Detection):
  * success under deletions, validity, strategy regimes, space shape, and
  * shard results that combine to the whole sketch's.
  */
class TurnstileNDSpec extends SparkSpec {

  test("config: x = max(n/c, sqrt(n)) and dc = floor(d/c)") {
    val c1 = TurnstileConfig(100, 100, 20, 2, 1, 1.0, 1.0, 6)
    assert(c1.x == 50.0 && c1.samplersPerVertex == 10)
    val c2 = TurnstileConfig(100, 100, 20, 50, 1, 1.0, 1.0, 6)
    assert(c2.x == 10.0 && c2.samplersPerVertex == 1) // c > sqrt(n): x = sqrt(n)
  }

  test("A' is the t = min(n, ⌈cv·x·ln(n+1)⌉) vertices of least (priority(seed, -2, a), a)") {
    // (n, c, cv, t < n): two samples of part of [1, n], two of all of it.
    for ((n, c, cv, partial) <- Seq((64L, 2, 0.1, true), (200L, 8, 0.05, true),
                                    (16L, 2, 1.0, false), (64L, 4, 1.0, false))) {
      val cfg = TurnstileConfig(n, 4 * n, 8, c, seed = 5, cv = cv, ce = 1.0, buckets = 6)
      val t = math.min(n, math.ceil(cv * cfg.x * math.log(n + 1.0)).toLong).toInt
      assert((t < n) == partial, s"n=$n t=$t")
      val want = (1L to n).map(a => (Hashing.priority(5, -2, a), a)).sorted.take(t).map(_._2)
      assert(cfg.sampledVertices == want, s"n=$n t=$t")
    }
  }

  test("edge coordinate round-trips") {
    val cfg = TurnstileConfig(10, 7, 4, 2, 1, 1.0, 1.0, 6)
    for (a <- 1L to 10L; b <- 1L to 7L)
      assert(cfg.coordEdge(cfg.edgeCoord(a, b)) == (a, b))
  }

  for {
    c <- Seq(2, 4)
    chaff <- Seq(0.0, 0.5)
  } test(s"planted star survives deletions (c=$c, chaff=$chaff)") {
    val n = 64L; val m = 256L; val d = 16
    var ok = 0
    val trials = 5
    for (t <- 1 to trials) {
      val (edges, planted) = SynthGraphs.plantedStar(n, m, d, maxBg = 3, seed = 100L * t + c)
      val ops = SynthGraphs.turnstileFrom(edges, m, chaff, seed = 200L * t + c)
      val adj = SynthGraphs.adjacencyOf(ops)
      assert(adj(planted).size == d, "chaff must not change the final graph")
      val alg = new TurnstileND(TurnstileConfig(n, m, d, c, seed = 300L * t + c, cv = 2.0, ce = 1.0, buckets = 6))
      val res = alg.processAll(ops).result()
      res.output.foreach { nb =>
        assert(nb.size >= math.max(1, d / c), s"size ${nb.size} < d/c")
        assert(Neighborhood.isValid(nb, adj), "must report only surviving edges")
        ok += 1
      }
    }
    assert(ok == trials, s"only $ok/$trials turnstile runs succeeded")
  }

  test("deleting every edge leaves nothing to report") {
    val (edges, _) = SynthGraphs.plantedStar(32, 64, 8, 2, seed = 9)
    val ops = edges.map(e => StreamOp(e, 1)) ++ edges.map(e => StreamOp(e, -1))
    val cfg = TurnstileConfig(32, 64, 8, 2, seed = 10, cv = 2.0, ce = 1.0, buckets = 6)
    val res = new TurnstileND(cfg).processAll(ops).result()
    assert(res.output.isEmpty)
  }

  test("many-heavy regime: vertex sampling alone suffices (Lemma 5.2)") {
    // >= n/x vertices of degree >= d/c; disable edge sampling (ce tiny) and
    // the vertex strategy must still find a neighborhood.
    val n = 64L; val m = 70000L; val d = 16; val c = 4
    val rng = new scala.util.Random(5)
    val edges = rng.shuffle((1L to n).flatMap { a =>
      (1 to (if (a <= 32) d else 2)).map(i => repro.core.Edge(a, a * 1000 + i))
    }.toVector)
    val ops = edges.map(e => StreamOp(e, 1))
    val cfg = TurnstileConfig(n, m, d, c, seed = 6, cv = 2.0, ce = 0.001, buckets = 6)
    val res = new TurnstileND(cfg).processAll(ops).result()
    assert(res.succeeded)
    assert(res.strategy.contains(TurnstileStrategy.VertexSampling))
  }

  test("single-heavy regime: edge sampling rescues a missed vertex (Lemma 5.3)") {
    // Only one heavy vertex and a crippled vertex-sample (cv tiny): the
    // global edge samplers concentrate on the heavy vertex's edges.
    val n = 256L; val m = 1024L; val d = 32; val c = 2
    var edgeWins = 0
    val trials = 5
    for (t <- 1 to trials) {
      val (edges, planted) = SynthGraphs.uniformPlusPlanted(n, m * 8, d, bg = 1, seed = 40L + t)
      val ops = edges.map(e => StreamOp(e, 1))
      val cfg = TurnstileConfig(n, m * 8, d, c, seed = 50L + t, cv = 0.001, ce = 1.0, buckets = 6)
      val res = new TurnstileND(cfg).processAll(ops).result()
      if (res.succeeded && res.strategy.contains(TurnstileStrategy.EdgeSampling)) {
        assert(res.output.get.a == planted)
        edgeWins += 1
      }
    }
    assert(edgeWins >= trials - 1, s"edge sampling won only $edgeWins/$trials")
  }

  test("space shape: words shrink as c grows (dn/c^2 law, same instance)") {
    val n = 128L; val m = 512L; val d = 32
    val (edges, _) = SynthGraphs.plantedStar(n, m, d, 4, seed = 77)
    val ops = edges.map(e => StreamOp(e, 1))
    val words = Seq(2, 4, 8).map { c =>
      val cfg = TurnstileConfig(n, m, d, c, seed = 78, cv = 1.0, ce = 0.5, buckets = 6)
      new TurnstileND(cfg).processAll(ops).result().totalWords
    }
    assert(words(0) > words(1) && words(1) > words(2),
      s"expected decreasing words in c, got $words")
  }

  test("result is deterministic given the seed") {
    val (edges, _) = SynthGraphs.plantedStar(48, 128, 12, 3, seed = 1)
    val ops = edges.map(e => StreamOp(e, 1))
    val cfg = TurnstileConfig(48, 128, 12, 2, seed = 2, cv = 2.0, ce = 1.0, buckets = 6)
    val r1 = new TurnstileND(cfg).processAll(ops).result()
    val r2 = new TurnstileND(cfg).processAll(ops).result()
    assert(r1.output == r2.output && r1.strategy == r2.strategy)
  }

  private val shardCfg = TurnstileConfig(48, 192, 12, 2, seed = 21, cv = 1.0, ce = 0.3, buckets = 6)
  private lazy val shardOps = {
    val (edges, _) = SynthGraphs.plantedStar(48, 192, 12, maxBg = 3, seed = 22)
    SynthGraphs.turnstileFrom(edges, 192, chaffFraction = 0.4, seed = 23)
  }

  // More shards than sketches leaves some shards empty.
  for (parts <- Seq(1, 2, 3, 7, shardCfg.sampledVertices.size + shardCfg.nEdgeSamplers + 1))
    test(s"the shards' results combine to the whole sketch's (parts=$parts)") {
      val shards = (0 until parts).map(p => new TurnstileND(shardCfg, p, parts).processAll(shardOps).result())
      val whole = new TurnstileND(shardCfg).processAll(shardOps).result()
      assert(shards.reduce(_ ++ _) == whole)
      assert(shards.map(_.sampledVertices).sum == shardCfg.sampledVertices.size)
      assert(whole.vertexHit.nonEmpty && whole.edgeHit.nonEmpty)
      if (parts > math.max(shardCfg.sampledVertices.size, shardCfg.nEdgeSamplers))
        assert(shards.last == TurnstileResult(None, None, 0L, 0L, 0, 0, 0))
    }

  test("the shard constructor rejects part outside [0, parts), naming both") {
    for ((part, parts) <- Seq((-1, 4), (4, 4), (0, 0))) {
      val e = intercept[IllegalArgumentException](new TurnstileND(shardCfg, part, parts))
      assert(e.getMessage.contains(s"part=$part") && e.getMessage.contains(s"parts=$parts"))
    }
  }

  test("config rejects n·m beyond Long.MaxValue, naming n and m") {
    // n = m = 2^32: n·m wraps to 0 in a Long.
    val e1 = intercept[IllegalArgumentException](
      TurnstileConfig(1L << 32, 1L << 32, 4, 2, 1, 1.0, 1.0, 6))
    assert(e1.getMessage.contains("n=4294967296") && e1.getMessage.contains("m=4294967296"))
    val big = Long.MaxValue / 3 + 1
    val e2 = intercept[IllegalArgumentException](TurnstileConfig(big, 3, 4, 2, 1, 1.0, 1.0, 6))
    assert(e2.getMessage.contains(s"n=$big") && e2.getMessage.contains("m=3"))
  }

  for ((a, b) <- Seq((0L, 1L), (49L, 1L), (1L, 0L), (1L, 193L)))
    test(s"process rejects an edge outside [1, n] × [1, m], naming id and bound (a=$a, b=$b)") {
      val e = intercept[IllegalArgumentException](
        new TurnstileND(shardCfg).process(StreamOp(repro.core.Edge(a, b), 1)))
      if (a < 1 || a > 48) assert(e.getMessage.contains(s"a=$a") && e.getMessage.contains("n=48"))
      else assert(e.getMessage.contains(s"b=$b") && e.getMessage.contains("m=192"))
    }

  test("decode failures are counted per bank and add up over the shards") {
    // buckets = 1 leaves 32 cells per ring for a degree-64 vertex (k = 64)
    // and 8 for the 1,024 edges (k = 10): neither can peel.
    val cfg = TurnstileConfig(16, 256, 64, 1, seed = 3, cv = 1.0, ce = 0.001, buckets = 1)
    val ops = for (a <- 1L to 16L; b <- 1L to 64L) yield StreamOp(repro.core.Edge(a, 3 * b), 1)
    val whole = new TurnstileND(cfg).processAll(ops).result()
    assert(whole.vertexDecodeFailures > 0 && whole.edgeDecodeFailures == 1)
    val shards = (0 until 3).map(p => new TurnstileND(cfg, p, 3).processAll(ops).result())
    assert(shards.reduce(_ ++ _) == whole)
    val none = new TurnstileND(cfg).processAll(ops ++ ops.map(op => StreamOp(op.edge, -1))).result()
    assert(none.vertexDecodeFailures == 0 && none.edgeDecodeFailures == 0 && none.output.isEmpty)
  }

  test("the result does not depend on op order, deletes before inserts included") {
    for (trial <- 1 to 12) {
      val rng = new scala.util.Random(trial * 53L)
      val n = 48L; val m = 192L; val d = 12; val c = 2 + rng.nextInt(3)
      val (edges, _) = SynthGraphs.plantedStar(n, m, d, maxBg = 3, seed = trial)
      val ops = SynthGraphs.turnstileFrom(edges, m, chaffFraction = 0.5, seed = trial + 100L)
      val cfg = TurnstileConfig(n, m, d, c, seed = trial + 200L,
        cv = 0.5 + rng.nextDouble(), ce = 0.2 + rng.nextDouble(), buckets = 6)
      val (deletes, inserts) = ops.partition(_.delta < 0)
      val orders = Seq(ops.reverse, rng.shuffle(ops), deletes ++ inserts)
      // Every order moves some delete ahead of its insert.
      def deleteFirst(order: Seq[StreamOp]) =
        order.groupBy(_.edge).valuesIterator.exists(_.head.delta < 0)
      assert(orders.forall(deleteFirst), s"trial=$trial")
      def build(stream: Seq[StreamOp]) = new TurnstileND(cfg).processAll(stream)
      val want = build(ops)
      for (order <- orders) {
        val got = build(order)
        assert(got.result() == want.result(), s"trial=$trial")
      }
      // Only the final graph: the same answer; words may differ, since a
      // cancelled coordinate still allocates its ring.
      def answer(r: TurnstileResult) = (r.output, r.strategy, r.vertexBestSize, r.edgeBestSize,
        r.vertexDecodeFailures, r.edgeDecodeFailures)
      assert(answer(build(edges.map(e => StreamOp(e, 1))).result()) == answer(want.result()),
        s"trial=$trial")
    }
  }

  test("StreamOp rejects invalid deltas") {
    intercept[IllegalArgumentException](StreamOp(repro.core.Edge(1, 1), 0))
    intercept[IllegalArgumentException](StreamOp(repro.core.Edge(1, 1), 2))
  }
}
