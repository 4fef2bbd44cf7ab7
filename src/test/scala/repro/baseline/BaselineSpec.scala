package repro.baseline

import scala.util.Random

import repro.{SparkSpec, SynthGraphs}
import repro.core.Edge

/** Tests for the witness-free heavy-hitter baselines (Misra–Gries,
  * SpaceSaving) and the exact Õ(nd) baseline.
  */
class MisraGriesSpec extends SparkSpec {

  test("exact when distinct items fit in k counters") {
    val mg = new MisraGries(10)
    val stream = Seq(1L, 2L, 1L, 3L, 1L, 2L)
    mg.processAll(stream)
    assert(mg.estimate(1) == 3 && mg.estimate(2) == 2 && mg.estimate(3) == 1)
  }

  for (k <- Seq(5, 10, 20)) test(s"undercount bounded by N/(k+1) (k=$k)") {
    val rng = new Random(k)
    val stream = Vector.fill(2000)(rng.nextLong(100L))
    val mg = new MisraGries(k).processAll(stream)
    val truth = stream.groupBy(identity).map { case (i, v) => i -> v.size.toLong }
    val n = stream.size.toLong
    truth.foreach { case (item, f) =>
      val est = mg.estimate(item)
      assert(est <= f, s"MG must never overcount (item $item: $est > $f)")
      assert(f - est <= n / (k + 1) + 1, s"undercount ${f - est} exceeds N/(k+1)")
    }
  }

  test("every item with frequency > N/(k+1) survives") {
    val k = 9
    // one item with 30% of a 1000-element stream
    val rng = new Random(7)
    val stream = rng.shuffle(Vector.fill(300)(42L) ++ Vector.fill(700)(rng.nextLong(500L) + 100))
    val mg = new MisraGries(k).processAll(stream)
    assert(mg.estimate(42) > 0, "a 30% heavy hitter must survive k=9 counters")
    assert(mg.candidates.map(_._1).contains(42L))
  }

  test("space bounded by 2k words") {
    val mg = new MisraGries(8)
    new Random(1).shuffle((1 to 500).map(_.toLong)).foreach(mg.process)
    assert(mg.peakWords <= 16)
  }

  test("space: running words equal 2 per live counter after every item") {
    val rng = new Random(11)
    val mg = new MisraGries(6)
    var maxWords = 0L
    Vector.fill(600)(rng.nextLong(40L)).foreach { i =>
      mg.process(i)
      assert(mg.currentWords == 2L * mg.candidates.size)
      maxWords = math.max(maxWords, mg.currentWords)
    }
    assert(mg.peakWords == maxWords)
  }

  test("witness recall is zero by construction (API has no witnesses)") {
    // The baseline surfaces only (item, count) pairs — the comparison made
    // quantitatively in Table 5.
    val mg = new MisraGries(4).processAll(Seq(1L, 1L, 2L))
    assert(mg.candidates.forall(_._2 > 0))
  }
}

class SpaceSavingSpec extends SparkSpec {

  test("exact when distinct items fit in k counters") {
    val ss = new SpaceSaving(10).processAll(Seq(1L, 2L, 1L, 3L, 1L))
    assert(ss.estimate(1) == 3 && ss.error(1) == 0)
  }

  for (k <- Seq(5, 10, 20)) test(s"overcount bounded by max error, never undercounts survivors (k=$k)") {
    val rng = new Random(100 + k)
    val stream = Vector.fill(2000)(rng.nextLong(80L))
    val ss = new SpaceSaving(k).processAll(stream)
    val truth = stream.groupBy(identity).map { case (i, v) => i -> v.size.toLong }
    ss.candidates.foreach { case (item, est) =>
      val f = truth.getOrElse(item, 0L)
      assert(est >= f, s"SS estimate must upper-bound truth (item $item: $est < $f)")
      assert(est - ss.error(item) <= f, "estimate - error must lower-bound truth")
    }
  }

  test("an item with frequency > N/k survives") {
    val rng = new Random(3)
    val stream = rng.shuffle(Vector.fill(400)(7L) ++ Vector.fill(600)(rng.nextLong(300L) + 50))
    val ss = new SpaceSaving(10).processAll(stream)
    assert(ss.candidates.map(_._1).contains(7L))
  }

  test("space bounded by 3k words") {
    val ss = new SpaceSaving(6)
    new Random(4).shuffle((1 to 300).map(_.toLong)).foreach(ss.process)
    assert(ss.peakWords <= 18)
  }

  // Metwally et al.'s invariants, checked after every item.
  for (k <- Seq(1, 4, 16); skew <- Seq(false, true)) test(s"Stream-Summary invariants (k=$k, skewed=$skew)") {
    val rng = new Random(31L * k + (if (skew) 1 else 0))
    val stream = Vector.fill(800) {
      if (skew) math.min(rng.nextLong(6L), rng.nextLong(60L)) else rng.nextLong(60L)
    }
    val ss = new SpaceSaving(k)
    val truth = scala.collection.mutable.HashMap.empty[Long, Long]
    stream.zipWithIndex.foreach { case (item, i) =>
      ss.process(item)
      truth(item) = truth.getOrElse(item, 0L) + 1
      val n = i + 1L
      val cands = ss.candidates
      assert(cands.map(_._2).sum == n, "counts sum to N")
      assert(cands.map(_._2) == cands.map(_._2).sortBy(-_), "most-counted first")
      assert(cands.size == math.min(k, truth.size))
      if (cands.size == k) assert(cands.last._2 * k <= n, "minimum count <= N/k")
      cands.foreach { case (c, est) =>
        assert(ss.estimate(c) == est)
        assert(est >= truth(c) && est - ss.error(c) <= truth(c), s"item $c at N=$n")
      }
      truth.foreach { case (c, f) => if (f * k > n) assert(ss.estimate(c) > 0, s"heavy $c lost at N=$n") }
      assert(ss.peakWords == 3L * math.min(k, truth.size))
    }
    assert(ss.streamLength == stream.size)
  }

  test("eviction tie-break: the counter that has held the minimum count longest") {
    val ss = new SpaceSaving(3).processAll(Seq(1L, 2L, 3L))
    ss.process(4) // counts 1,1,1: evicts 1, the first to reach count 1
    assert(ss.estimate(1) == 0 && ss.estimate(4) == 2 && ss.error(4) == 1)
    ss.process(5) // evicts 2
    assert(ss.estimate(2) == 0 && ss.estimate(5) == 2)
    ss.process(3) // 3 reaches count 2 after 4 and 5
    ss.process(6) // counts 2,2,2: evicts 4, then 5
    ss.process(7)
    assert(ss.candidates == Vector((6L, 3L), (7L, 3L), (3L, 2L)))
    assert(ss.error(6) == 2 && ss.error(7) == 2 && ss.error(3) == 0)
  }
}

class ExactNDSpec extends SparkSpec {

  test("stores exactly the first min(deg, d) edges per vertex") {
    val edges = Seq(Edge(1, 10), Edge(1, 11), Edge(1, 12), Edge(2, 20))
    val ex = new ExactND(2).processAll(edges)
    assert(ex.best.get.a == 1L)
    assert(ex.best.get.neighbors == Vector(10L, 11L))
  }

  test("solves Neighborhood Detection exactly on planted instances") {
    for (seed <- 1 to 10) {
      val (edges, planted) = SynthGraphs.uniformPlusPlanted(64, 256, d = 16, bg = 7, seed = seed.toLong)
      val ex = new ExactND(16).processAll(edges)
      assert(ex.atThreshold.map(_.a) == Vector(planted))
      assert(ex.atThreshold.head.size == 16)
    }
  }

  test("space is Theta(sum of min(deg, d)) words — the nd ceiling") {
    val (edges, _) = SynthGraphs.plantedStar(50, 200, d = 12, maxBg = 12, seed = 5)
    val ex = new ExactND(12).processAll(edges)
    val adj = SynthGraphs.adjacency(edges)
    val expected = adj.size.toLong + adj.values.map(s => math.min(s.size, 12).toLong).sum
    assert(ex.currentWords == expected)
  }

  test("space: running words equal the stored words after every edge") {
    for (seed <- 1 to 3) {
      val (edges, _) = SynthGraphs.plantedStar(40, 100, d = 8, maxBg = 10, seed = seed.toLong)
      val ex = new ExactND(8)
      val deg = scala.collection.mutable.HashMap.empty[Long, Int]
      var maxWords = 0L
      edges.foreach { e =>
        ex.process(e)
        deg(e.a) = deg.getOrElse(e.a, 0) + 1
        val words = deg.values.map(x => 1L + math.min(x, 8)).sum
        assert(ex.currentWords == words, s"seed=$seed after $e")
        maxWords = math.max(maxWords, words)
      }
      assert(ex.peakWords == maxWords)
    }
  }

  test("empty stream reports nothing") {
    assert(new ExactND(4).best.isEmpty)
  }
}
