package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import scala.collection.mutable
import scala.util.Random

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.{Hashing, SparkSpec, SynthGraphs}

/** Unit tests for Algorithm 1 (Deg-Res-Sampling) — degree table,
  * collection rule, bottom-s reservoir, reservoir uniformity, Lemma 3.1
  * success bound, space accounting.
  */
class DegResSamplingSpec extends SparkSpec {

  /** Feed edges through a tracker + single sampler. */
  private def feed(edges: Seq[Edge], d1: Int, d2: Int, s: Int, seed: Long): DegResSampling = {
    val alg = new DegResSampling(d1, d2, s, seed, run = 0)
    new InsertionOnlyND.Partition(Vector(alg)).feed(edges)
    alg
  }

  test("degree tracker counts exactly") {
    val t = new DegreeTracker
    val edges = Seq(Edge(1, 1), Edge(1, 2), Edge(2, 1), Edge(1, 3))
    edges.foreach(e => t.bump(e.a))
    assert(t.degree(1) == 3 && t.degree(2) == 1 && t.degree(3) == 0)
    assert(t.words == 2)
  }

  /** Checks `prop` on 100 generated cases from a fixed seed. */
  private def check(prop: Prop, seed: Long): Unit = {
    val result = Test.check(Test.Parameters.default.withInitialSeed(Seed(seed)), prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
  }

  /** A Java-serialization round trip; also returns the bytes written. */
  private def roundTrip(t: DegreeTracker): (DegreeTracker, Int) = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(t)
    out.close()
    val in = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray))
    (in.readObject().asInstanceOf[DegreeTracker], bytes.size)
  }

  /** Ids that stress the table: the extremes, 0 and -1, 64 ids equal in
    * their low 32 bits, 200-800 random ones; and a stream seed.
    */
  private val trackerCases: Gen[(Vector[Long], Long)] = for {
    low    <- Gen.long
    n      <- Gen.choose(200, 800)
    random <- Gen.listOfN(n, Gen.long)
    seed   <- Gen.long
  } yield ((Vector(Long.MinValue, Long.MaxValue, 0L, -1L) ++
    (1 to 64).map(i => (i.toLong << 32) | (low & 0xffffffffL)) ++ random).distinct, seed)

  test("degree table equals a HashMap through doublings and a serialization round trip") {
    check(Prop.forAllNoShrink(trackerCases) { case (ids, seed) =>
      val rng = new Random(seed)
      // A tenth of the ids never occur; the rest occur 1-4 times each.
      val (present, absent) = rng.shuffle(ids).splitAt(ids.size * 9 / 10)
      val stream = rng.shuffle(present.flatMap(a => Vector.fill(1 + rng.nextInt(4))(a)))
      val ref = mutable.HashMap.empty[Long, Int]
      def bump(t: DegreeTracker, a: Long): Unit = {
        ref(a) = ref.getOrElse(a, 0) + 1
        assert(t.bump(a) == ref(a), s"bump($a)")
      }
      def agree(t: DegreeTracker, when: String): Unit = {
        ids.foreach(a => assert(t.degree(a) == ref.getOrElse(a, 0), s"$when: degree($a)"))
        absent.foreach(a => assert(t.degree(a) == 0, s"$when: absent $a"))
        assert(t.words == ref.size, when)
      }
      val (before, after) = stream.splitAt(stream.size / 2)
      val t = new DegreeTracker
      before.foreach(bump(t, _))
      agree(t, "before the round trip")
      val (copy, bytes) = roundTrip(t)
      agree(copy, "after the round trip")
      // Packed: 12 bytes per vertex and a fixed header, not the empty slots.
      assert(bytes - 12 * t.words < 256, s"$bytes bytes for ${t.words} vertices")
      after.foreach(bump(copy, _))
      agree(copy, "bumped after the round trip")
      assert(copy.words > 128, "the table must double at least three times")
      Prop.passed
    }, seed = 18)
  }

  test("collects exactly the edges with ranks d1..d1+d2-1 in stream order") {
    // Vertex 7's edges arrive at witnesses 10,20,30,40,50; d1=2, d2=2 must
    // collect the 2nd and 3rd edges (20, 30).
    val edges = (1 to 5).map(i => Edge(7, i * 10L))
    val alg = feed(edges, d1 = 2, d2 = 2, s = 4, seed = 1)
    val nb = alg.storedNeighborhoods.find(_.a == 7L).get
    assert(nb.neighbors == Vector(20L, 30L))
  }

  test("stored neighborhood size is min(d2, deg - d1 + 1)") {
    for (deg <- 1 to 8; d1 <- 1 to 4; d2 <- 1 to 4) {
      val edges = (1 to deg).map(i => Edge(1, i.toLong))
      val alg = feed(edges, d1, d2, s = 2, seed = deg * 100 + d1 * 10 + d2)
      val expected = math.min(d2, deg - d1 + 1)
      val stored = alg.storedNeighborhoods.find(_.a == 1L)
      if (deg >= d1) assert(stored.get.size == expected,
        s"deg=$deg d1=$d1 d2=$d2: got ${stored.get.size}, want $expected")
      else assert(stored.isEmpty, s"deg=$deg < d1=$d1 must not enter reservoir")
    }
  }

  test("small-reservoir regime (few crossing vertices) stores all of them") {
    // 3 vertices cross d1=2; s=5 > 3, so all are stored.
    val edges = Seq(
      Edge(1, 1), Edge(1, 2), Edge(2, 1), Edge(2, 2),
      Edge(3, 1), Edge(3, 2), Edge(4, 1))
    val alg = feed(edges, d1 = 2, d2 = 1, s = 5, seed = 3)
    assert(alg.storedNeighborhoods.map(_.a).toSet == Set(1L, 2L, 3L))
  }

  test("success iff some stored neighborhood reaches d2") {
    val edges = Seq(Edge(1, 1), Edge(1, 2), Edge(1, 3), Edge(2, 1))
    assert(feed(edges, 1, 3, 4, 5).succeeded)
    assert(!feed(edges, 1, 4, 4, 5).succeeded) // nobody has 4 edges
  }

  test("reservoir is the s least (priority, a) among crossed vertices after every edge") {
    for (seed <- 1 to 4; run <- Seq(0, 2)) {
      val rng = new Random(seed)
      // 80 vertices of degree 1..6 crossing d1 = 2 into a reservoir of 4.
      val edges = rng.shuffle((1 to 80).flatMap { a =>
        (1 to 1 + rng.nextInt(6)).map(i => Edge(a.toLong, a * 10L + i))
      })
      val d1 = 2; val d2 = 3; val s = 4
      val tracker = new DegreeTracker
      val alg = new DegResSampling(d1, d2, s, seed.toLong, run)
      val seen = scala.collection.mutable.ArrayBuffer.empty[Edge]
      val everStored = scala.collection.mutable.Set.empty[Long]
      edges.foreach { e =>
        alg.process(e, tracker.bump(e.a))
        seen += e
        val byVertex = seen.groupBy(_.a).filter(_._2.size >= d1)
        val want = byVertex.keys.toVector
          .sortBy(a => (Hashing.priority(seed.toLong, run, a), a)).take(s)
        val stored = alg.storedNeighborhoods
        assert(stored.map(_.a) == want, s"seed=$seed run=$run after $e")
        stored.foreach(nb => assert(nb.neighbors == byVertex(nb.a).drop(d1 - 1).take(d2).map(_.b)))
        assert(alg.succeeded == want.exists(byVertex(_).size >= d1 + d2 - 1))
        everStored ++= want
      }
      assert(everStored.size > s, s"seed=$seed: the stream must evict")
    }
  }

  test("every held neighborhood is its ranks d1..d1+d2-1, also past d1+d2 and after evictions") {
    var evictions = 0
    var pastWindow = 0
    check(Prop.forAllNoShrink(Gen.choose(1, 6), Gen.choose(1, 6), Gen.choose(1, 4), Gen.long) {
      (d1, d2, s, seed) =>
        val rng = new Random(seed)
        // 40 vertices of degree up to d1 + d2 + 20: most cross d1 into a
        // reservoir of at most 4, and many run far past their window.
        val edges = rng.shuffle((1 to 40).flatMap { a =>
          (1 to 1 + rng.nextInt(d1 + d2 + 20)).map(i => Edge(a.toLong, a * 1000L + i))
        })
        val tracker = new DegreeTracker
        val alg = new DegResSampling(d1, d2, s, seed, run = 0)
        val seen = mutable.HashMap.empty[Long, Vector[Long]]
        val evicted = mutable.Set.empty[Long]
        var held = Set.empty[Long]
        edges.foreach { e =>
          val deg = tracker.bump(e.a)
          alg.process(e, deg)
          seen(e.a) = seen.getOrElse(e.a, Vector.empty) :+ e.b
          val stored = alg.storedNeighborhoods
          stored.foreach { nb =>
            assert(nb.neighbors == seen(nb.a).slice(d1 - 1, d1 - 1 + d2),
              s"d1=$d1 d2=$d2 s=$s seed=$seed: vertex ${nb.a} after $e")
          }
          if (stored.exists(_.a == e.a) && deg >= d1 + d2) pastWindow += 1
          val now = stored.map(_.a).toSet
          evicted ++= held -- now
          assert((now & evicted).isEmpty, s"seed=$seed: an evicted vertex returned")
          held = now
        }
        evictions += evicted.size
        Prop.passed
    }, seed = 18)
    assert(evictions > 0 && pastWindow > 0, s"evictions=$evictions pastWindow=$pastWindow")
  }

  test("reservoir holds a uniform sample: each crossing vertex ~ s/x rate") {
    // 20 vertices each of degree 2 cross d1=2; s=5. Over many seeded runs
    // every vertex should be sampled close to 5/20 = 25% of the time.
    val hits = Array.fill(21)(0)
    val trials = 2000
    val baseEdges = (1 to 20).flatMap(a => Seq(Edge(a.toLong, 1), Edge(a.toLong, 2)))
    for (t <- 1 to trials) {
      val rng = new Random(t.toLong)
      val shuffled = rng.shuffle(baseEdges)
      val alg = feed(shuffled, d1 = 2, d2 = 1, s = 5, seed = 7777L + t)
      alg.storedNeighborhoods.foreach(nb => hits(nb.a.toInt) += 1)
    }
    val rates = (1 to 20).map(a => hits(a).toDouble / trials)
    rates.foreach(r => assert(math.abs(r - 0.25) < 0.05,
      s"sampling rate $r deviates from uniform 0.25"))
  }

  // Lemma 3.1: success prob >= 1 - (1 - s/n1)^n2 when n1 vertices have
  // degree >= d1 and n2 of them have degree >= d1 + d2 - 1.
  for {
    (n1, n2, s) <- Seq((40, 5, 10), (60, 10, 10), (30, 30, 5), (50, 2, 25))
  } test(s"Lemma 3.1 bound holds empirically (n1=$n1, n2=$n2, s=$s)") {
    val d1 = 2; val d2 = 3
    val bound = 1.0 - math.pow(1.0 - s.toDouble / n1, n2.toDouble)
    val trials = 300
    var successes = 0
    for (t <- 1 to trials) {
      val rng = new Random(900000L + t)
      // n1 vertices of degree exactly d1 + (n2 of them get d1+d2-1).
      val edges = rng.shuffle((1 to n1).flatMap { a =>
        val deg = if (a <= n2) d1 + d2 - 1 else d1
        (1 to deg).map(i => Edge(a.toLong, i.toLong))
      })
      if (feed(edges, d1, d2, s, 31L * t).succeeded) successes += 1
    }
    val rate = successes.toDouble / trials
    // Allow statistical slack below the bound (3 sigma of a binomial).
    val slack = 3 * math.sqrt(bound * (1 - bound) / trials) + 0.02
    assert(rate >= bound - slack, s"rate $rate below Lemma 3.1 bound $bound")
  }

  test("space: words = reservoir ids + collected edges, peak tracked") {
    val edges = (1 to 6).map(i => Edge(1, i.toLong)) ++ (1 to 6).map(i => Edge(2, i.toLong))
    val alg = feed(edges, 1, 4, 2, 11)
    // two vertices stored, each with 4 collected edges
    assert(alg.currentWords == 2 + 8)
    assert(alg.peakWords >= alg.currentWords)
  }

  test("eviction frees collected edges (space does not leak)") {
    // s=1 with many crossing vertices: at most 1 + d2 words at any time.
    val rng = new Random(5)
    val edges = rng.shuffle((1 to 50).flatMap(a => (1 to 3).map(i => Edge(a.toLong, i.toLong))))
    val alg = feed(edges, 1, 3, 1, 99)
    assert(alg.peakWords <= 1 + 3)
  }

  test("space: running words equal the stored words after every edge, with evictions") {
    for (seed <- 1 to 5) {
      val rng = new Random(seed)
      // 120 vertices of degree 1..6 crossing d1 = 2 into a reservoir of 3.
      val edges = rng.shuffle((1 to 120).flatMap { a =>
        (1 to 1 + rng.nextInt(6)).map(i => Edge(a.toLong, i.toLong))
      })
      val tracker = new DegreeTracker
      val alg = new DegResSampling(2, 3, 3, seed * 13L, run = 0)
      var maxWords = 0L
      val everStored = scala.collection.mutable.Set.empty[Long]
      edges.foreach { e =>
        alg.process(e, tracker.bump(e.a))
        val stored = alg.storedNeighborhoods
        val words = stored.map(1L + _.size).sum
        assert(alg.currentWords == words, s"seed=$seed after $e")
        maxWords = math.max(maxWords, words)
        everStored ++= stored.map(_.a)
      }
      assert(everStored.size > 3, s"seed=$seed: the stream must evict")
      assert(alg.peakWords == maxWords, s"seed=$seed")
    }
  }

  test("rejects invalid parameters") {
    intercept[IllegalArgumentException](new DegResSampling(0, 1, 1, 1, 0))
    intercept[IllegalArgumentException](new DegResSampling(1, 0, 1, 1, 0))
    intercept[IllegalArgumentException](new DegResSampling(1, 1, 0, 1, 0))
  }

  test("planted star is always found when it is the only crossing vertex") {
    for (seed <- 1 to 20) {
      val (edges, planted) = SynthGraphs.uniformPlusPlanted(
        n = 50, m = 200, d = 10, bg = 2, seed = seed.toLong)
      val alg = feed(edges, d1 = 5, d2 = 5, s = 3, seed = seed * 7L)
      assert(alg.succeeded, s"seed=$seed")
      assert(alg.storedNeighborhoods.map(_.a) == Vector(planted))
    }
  }
}
