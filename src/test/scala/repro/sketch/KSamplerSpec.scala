package repro.sketch

import scala.util.Random

import repro.SparkSpec

/** The k-sample ℓ₀-sketch: exact recovery of small supports, the bottom-k
  * by u-hash of large ones (k = 1 included) and of general turnstile
  * vectors, near-uniform draws at k = 1, linearity, the three query
  * results, and the cell floor of [[TurnstileConfig.cellsFor]].
  * Property-style tests use seeded random supports.
  */
class KSamplerSpec extends SparkSpec {

  // Cells per ring exactly as Algorithm 3 sizes its sketches.
  private val cfg = TurnstileConfig(64, 4096, 64, 1, seed = 1, cv = 1.0, ce = 1.0, buckets = 6)
  private def sketch(domain: Long, seed: Long, k: Int): KSampler =
    new KSampler(domain, seed, k, cfg.cellsFor(k))

  private def support(rng: Random, size: Int, domain: Long): Vector[Long] = {
    val s = scala.collection.mutable.LinkedHashSet.empty[Long]
    while (s.size < size) s += rng.nextLong(domain)
    s.toVector
  }

  /** The k coordinates of least u-hash, by brute force. */
  private def bottomK(s: KSampler, xs: Seq[Long]): Vector[Long] =
    xs.toVector.sortBy(x => s.uHash(x) ^ Long.MinValue).take(s.k)

  test("the config's cells are 6·max(8, ⌈k/2⌉) at buckets = 6: max(48, 3k) for even k") {
    val cells = Seq(1 -> 48, 4 -> 48, 16 -> 48, 17 -> 54, 64 -> 192, 1000 -> 3000)
    for ((k, want) <- cells) assert(cfg.cellsFor(k) == want, s"k=$k")
  }

  test("zero vector is Empty, also after inserts are deleted") {
    val s = sketch(1000, seed = 1, k = 4)
    assert(s.sample() == KSample.Empty)
    (0L until 100L).foreach(x => s.update(x * 7, 1))
    (0L until 100L).foreach(x => s.update(x * 7, -1))
    assert(s.sample() == KSample.Empty)
  }

  test("an undersized sketch fails, never answers Empty") {
    for (seed <- 1 to 20) {
      val s = new KSampler(1L << 20, seed, k = 64, cells = 6)
      support(new Random(seed), 1000, 1L << 20).foreach(x => s.update(x, 1))
      assert(s.sample() == KSample.Failed, s"seed=$seed")
    }
  }

  // A sketch fails with small probability (its δ: about 1e-3 per query at
  // k = 64), so one failure in 30 is allowed; a wrong answer is not.
  for (k <- Seq(1, 4, 64)) test(s"a support of at most k coordinates is recovered exactly (k=$k)") {
    val failed = (1 to 30).count { seed =>
      val rng = new Random(1000L * k + seed)
      val xs = support(rng, 1 + rng.nextInt(k), 1L << 30)
      val s = sketch(1L << 30, rng.nextLong(), k)
      xs.foreach(x => s.update(x, 1))
      val got = s.sample()
      assert(got == KSample.Failed || got == KSample.Drawn(bottomK(s, xs)), s"seed=$seed")
      assert(bottomK(s, xs).size == xs.size)
      got == KSample.Failed
    }
    assert(failed <= 1, s"$failed/30 sketches failed")
  }

  for (k <- Seq(1, 4, 64, 512)) test(s"the sample is the bottom-k by u-hash of a 10k support (k=$k)") {
    for (seed <- 1 to 10) {
      val rng = new Random(77L * k + seed)
      val xs = support(rng, 10000, 1L << 40)
      val s = sketch(1L << 40, rng.nextLong(), k)
      xs.foreach(x => s.update(x, 1))
      assert(s.sample() == KSample.Drawn(bottomK(s, xs)), s"seed=$seed")
    }
  }

  test("k = 1 draws the least u-hash on 200 seeded supports") {
    val failed = (1 to 200).count { seed =>
      val rng = new Random(seed * 7L)
      val xs = support(rng, 1 + rng.nextInt(100), 1L << 30)
      val s = sketch(1L << 30, seed = 900L + seed, k = 1)
      xs.foreach(x => s.update(x, 1))
      val got = s.sample()
      assert(got == KSample.Failed || got == KSample.Drawn(bottomK(s, xs)), s"seed=$seed")
      got == KSample.Failed
    }
    assert(failed <= 1, s"$failed/200 sketches failed")
  }

  test("k = 1 draws are near-uniform over a fixed support") {
    // Distinct seeds draw independent samples; each support coordinate
    // should be hit ~ 1/|support| of the time.
    val xs = (0L until 16L).map(_ * 37 + 5).toVector
    val hits = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    val trials = 2000
    var succeeded = 0
    for (t <- 1 to trials) {
      val s = sketch(1000, seed = 31L * t, k = 1)
      xs.foreach(x => s.update(x, 1))
      s.sample() match {
        case KSample.Drawn(Vector(x)) => hits(x) += 1; succeeded += 1
        case other                    => assert(other == KSample.Failed, s"t=$t")
      }
    }
    assert(succeeded > trials * 9 / 10)
    val expected = succeeded.toDouble / xs.size
    xs.foreach { x =>
      assert(math.abs(hits(x) - expected) < expected * 0.5 + 3 * math.sqrt(expected),
        s"coordinate $x hit ${hits(x)} times, expected ~$expected")
    }
  }

  // General turnstile vectors: each survivor's net count is one of ±2, 3,
  // -5, 7, and each chaff coordinate goes to -2 before it is cancelled.
  for (k <- Seq(1, 4)) test(s"net multiplicities other than ±1 are recovered exactly (k=$k)") {
    val counts = Vector(2L, -2L, 3L, -5L, 7L)
    val failed = (1 to 30).count { seed =>
      val rng = new Random(3000L * k + seed)
      val survivors = support(rng, 1 + rng.nextInt(40), 1L << 20)
      val chaff = support(rng, 40, 1L << 20).filterNot(survivors.toSet)
      val s = sketch(1L << 20, rng.nextLong(), k)
      chaff.foreach(x => s.update(x, -2))
      survivors.foreach(x => s.update(x, counts(rng.nextInt(counts.size))))
      chaff.foreach(x => s.update(x, 2))
      val got = s.sample()
      assert(got == KSample.Failed || got == KSample.Drawn(bottomK(s, survivors)), s"seed=$seed")
      got == KSample.Failed
    }
    assert(failed <= 1, s"$failed/30 sketches failed")
  }

  private def randomUpdates(rng: Random, n: Int, domain: Long): Vector[(Long, Long)] =
    Vector.fill(n)((rng.nextLong(domain), if (rng.nextBoolean()) 1L else -1L))

  test("linearity: the merge of two halves equals the whole") {
    for (trial <- 1 to 30) {
      val rng = new Random(trial * 13L)
      val seed = rng.nextLong(); val k = 1 + rng.nextInt(32)
      val updates = randomUpdates(rng, rng.nextInt(400), 10000)
      val whole = sketch(10000, seed, k)
      val left  = sketch(10000, seed, k)
      val right = sketch(10000, seed, k)
      updates.zipWithIndex.foreach { case ((x, d), i) =>
        whole.update(x, d)
        (if (i % 2 == 0) left else right).update(x, d)
      }
      left.merge(right)
      assert(left.snapshot == whole.snapshot)
      assert(left.sample() == whole.sample())
    }
  }

  test("linearity: any update order gives the same state") {
    for (trial <- 1 to 30) {
      val rng = new Random(trial * 29L)
      val updates = randomUpdates(rng, 200, 1000)
      val states = Seq(updates, updates.reverse, rng.shuffle(updates)).map { us =>
        val s = sketch(1000, seed = 77, k = 8)
        us.foreach { case (x, d) => s.update(x, d) }
        s
      }
      assert(states.map(_.snapshot).distinct.size == 1)
      assert(states.map(_.sample()).distinct.size == 1)
    }
  }

  test("deletes that arrive before their inserts leave the surviving support") {
    for (trial <- 1 to 30) {
      val rng = new Random(trial * 31L)
      val survivors = support(rng, 1 + rng.nextInt(20), 100000)
      val chaff = support(rng, 200, 100000).filterNot(survivors.toSet)
      val s = sketch(100000, seed = trial, k = 32)
      chaff.foreach(x => s.update(x, -1)) // deletes first
      survivors.foreach(x => s.update(x, 1))
      chaff.foreach(x => s.update(x, 1))
      val direct = sketch(100000, seed = trial, k = 32)
      survivors.foreach(x => direct.update(x, 1))
      assert(s.snapshot == direct.snapshot)
      assert(s.sample() == KSample.Drawn(bottomK(s, survivors)))
    }
  }

  test("merge rejects differently built sketches") {
    val a = sketch(100, seed = 1, k = 4)
    intercept[IllegalArgumentException](a.merge(sketch(100, seed = 2, k = 4)))
    intercept[IllegalArgumentException](a.merge(sketch(200, seed = 1, k = 4)))
    intercept[IllegalArgumentException](a.merge(new KSampler(100, 1, 4, cells = 96)))
    intercept[IllegalArgumentException](a.merge(new KSampler(100, 1, 5, cfg.cellsFor(4))))
  }

  test("update rejects out-of-domain coordinates") {
    val s = sketch(10, seed = 1, k = 2)
    intercept[IllegalArgumentException](s.update(10, 1))
    intercept[IllegalArgumentException](s.update(-1, 1))
  }

  test("words grow only with touched levels (lazy allocation)") {
    val s = sketch(1L << 40, seed = 5, k = 4)
    assert(s.words == 0)
    s.update(7, 1)
    assert(s.words > 0 && s.words < s.levels.toLong * 3 * s.cells)
  }

  /** The dense level capacity: levels 0 up to the deepest ring any of xs
    * reaches, 3·cells words each.
    */
  private def levelWords(s: KSampler, xs: Seq[Long]): Long =
    (xs.map(x => math.min(s.levels - 1, java.lang.Long.numberOfLeadingZeros(s.uHash(x))))
      .maxOption.getOrElse(-1) + 1).toLong * 3 * s.cells

  test("words are the dense level capacity after inserts, cancelling deletes and merge") {
    for (trial <- 1 to 50) {
      val rng = new Random(trial * 43L)
      val domain = 1L + rng.nextLong(1L << (1 + rng.nextInt(40)))
      val xs = Vector.fill(rng.nextInt(300))(rng.nextLong(domain))
      val ys = Vector.fill(rng.nextInt(300))(rng.nextLong(domain))
      val s = sketch(domain, seed = trial, k = 1 + rng.nextInt(32))
      xs.foreach(x => s.update(x, 1))
      assert(s.words == levelWords(s, xs), s"trial=$trial after inserts")
      xs.foreach(x => s.update(x, -1))
      assert(s.sample() == KSample.Empty)
      assert(s.words == levelWords(s, xs), s"trial=$trial after deletes")
      val other = sketch(domain, seed = trial, k = s.k)
      ys.foreach(y => other.update(y, 1))
      assert(other.words == levelWords(other, ys), s"trial=$trial other")
      s.merge(other)
      assert(s.words == levelWords(s, xs ++ ys), s"trial=$trial after merge")
    }
  }

  test("sample() leaves the sketch as it was") {
    for (trial <- 1 to 40) {
      val rng = new Random(trial * 47L)
      // Some sketches too small to peel, so that Failed queries are covered too.
      val cells = if (trial % 4 == 0) 6 else cfg.cellsFor(16)
      val s = new KSampler(1L << 20, trial, k = 16, cells)
      randomUpdates(rng, rng.nextInt(300), 1L << 20).foreach { case (x, d) => s.update(x, d) }
      val before = s.snapshot
      val first = s.sample()
      assert(s.snapshot == before, s"trial=$trial")
      assert(s.sample() == first, s"trial=$trial")
    }
  }

  test("cell floor: k = 4 on a degree-64 support draws 4 samples in >= 98 of 100 seeds") {
    val k = 4
    val ok = (1 to 100).count { seed =>
      val s = sketch(4096, seed = 5000L + seed, k)
      support(new Random(seed), 64, 4096).foreach(x => s.update(x, 1))
      s.sample() match {
        case KSample.Drawn(xs) => xs.size == k
        case _                 => false
      }
    }
    assert(ok >= 98, s"only $ok/100 sketches drew $k samples")
  }
}
