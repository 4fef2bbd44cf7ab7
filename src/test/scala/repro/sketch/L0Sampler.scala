package repro.sketch

import repro.Hashing.splitmix64

/** Linear ℓ₀-sampler over a vector in Z^D updated by (coordinate, ±delta)
  * turnstile updates — the substrate of the paper's insertion-deletion
  * algorithm (Algorithm 3; Jowhari–Sağlam–Tardos style [32]).
  *
  * Structure: L = O(log D) geometric subsampling levels; coordinate x
  * belongs to level l iff the top l bits of a per-sampler uniform hash
  * u(x) are zero (P = 2^-l, memberships nested in l). Each level keeps `t`
  * buckets of fingerprinted 1-sparse recovery state
  * (count, sum = Σ c·x, fp = Σ c·f(x) in wrapping 64-bit arithmetic).
  *
  * Query walks levels from sparsest to densest, fully decodes the first
  * non-empty decodable level, and returns the recovered coordinate with the
  * smallest u-hash — i.e. (w.h.p.) the min-hash of the support, which is a
  * uniform sample of the non-zero coordinates. All state is *linear* in the
  * update stream, so two sampler states with equal seeds merge by addition.
  *
  * Algorithm 3 runs on [[KSampler]]; this 1-sampler stays in the test
  * sources as its k = 1 reference (`KSamplerSpec`).
  *
  * Level arrays are allocated lazily: a sampler that sees few survivors at
  * deep levels pays only for the levels it touches.
  *
  * @param domain number of coordinates D
  * @param seed   per-sampler seed (derives the u, bucket, fingerprint hashes)
  * @param t      buckets per level
  */
final class L0Sampler(val domain: Long, val seed: Long, val t: Int = 6)
    extends Serializable {
  require(domain >= 1 && t >= 1)

  /** Levels 0..levels-1; level 0 holds everything. */
  val levels: Int = 64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, domain)) + 2

  // Packed (count, sum, fp) triples per level: 3 * t longs, lazily allocated.
  private val state = new Array[Array[Long]](levels)

  @inline private def uHash(x: Long): Long  = splitmix64(seed ^ 0x51ed2701L ^ x)
  @inline private def fHash(x: Long): Long  = splitmix64(seed ^ 0x7be03ca1L ^ x)
  @inline private def bucketOf(l: Int, x: Long): Int = {
    val h = splitmix64(seed ^ (l.toLong * 0xc2b2ae3d27d4eb4fL) ^ x)
    ((h >>> 1) % t).toInt
  }

  /** Deepest level coordinate x belongs to (#leading zero bits of u(x)). */
  @inline private def maxLevel(x: Long): Int =
    math.min(levels - 1, java.lang.Long.numberOfLeadingZeros(uHash(x)))

  /** Apply update (x, delta). O(expected levels touched) = O(1) amortized
    * beyond level 0.
    */
  def update(x: Long, delta: Long): Unit = {
    require(x >= 0 && x < domain, s"coordinate $x out of [0, $domain)")
    val top = maxLevel(x)
    val fp  = fHash(x)
    var l = 0
    while (l <= top) {
      var arr = state(l)
      if (arr == null) { arr = new Array[Long](3 * t); state(l) = arr }
      val b = bucketOf(l, x) * 3
      arr(b) += delta
      arr(b + 1) += delta * x
      arr(b + 2) += delta * fp
      l += 1
    }
  }

  /** Decode level l fully: Some(recovered coordinates with multiplicities)
    * if every bucket is empty or consistently 1-sparse, else None.
    */
  private def decodeLevel(l: Int): Option[Vector[(Long, Long)]] = {
    val arr = state(l)
    if (arr == null) return Some(Vector.empty)
    val out = Vector.newBuilder[(Long, Long)]
    var i = 0
    while (i < t) {
      val c = arr(3 * i); val s = arr(3 * i + 1); val fp = arr(3 * i + 2)
      if (c == 0L) {
        if (s != 0L || fp != 0L) return None // dense bucket with cancellation
      } else {
        if (s % c != 0L) return None
        val x = s / c
        if (x < 0 || x >= domain) return None
        if (maxLevel(x) < l || bucketOf(l, x) != i) return None
        if (fp != c * fHash(x)) return None
        out += ((x, c))
      }
      i += 1
    }
    Some(out.result())
  }

  /** Return a (w.h.p. uniform) sample of the non-zero coordinates, or None
    * if the sketch fails (all non-empty levels too dense to decode).
    */
  def sample(): Option[Long] = {
    var l = levels - 1
    while (l >= 0) {
      decodeLevel(l) match {
        case Some(items) if items.nonEmpty =>
          // min-hash among the recovered support of this level
          return Some(items.minBy { case (x, _) => uHash(x) ^ Long.MinValue }._1)
        case Some(_) => // empty level, go denser
        case None    => return None // dense; denser levels are supersets
      }
      l -= 1
    }
    None // vector is zero
  }

  /** Merge another sampler's state into this one (linearity). Both must be
    * built with identical (domain, seed, t).
    */
  def merge(other: L0Sampler): this.type = {
    require(other.domain == domain && other.seed == seed && other.t == t,
      "can only merge identically-seeded samplers")
    var l = 0
    while (l < levels) {
      val o = other.state(l)
      if (o != null) {
        var arr = state(l)
        if (arr == null) { arr = new Array[Long](3 * t); state(l) = arr }
        var i = 0
        while (i < 3 * t) { arr(i) += o(i); i += 1 }
      }
      l += 1
    }
    this
  }

  /** Words held (allocated bucket triples). */
  def words: Long = state.count(_ != null).toLong * 3 * t
}
