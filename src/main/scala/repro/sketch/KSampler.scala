package repro.sketch

import repro.Hashing.splitmix64

/** What a [[KSampler]] query returns: the vector is zero, the sketch could
  * not decode it, or the sampled coordinates.
  */
sealed trait KSample
object KSample {
  case object Empty extends KSample
  case object Failed extends KSample
  /** Distinct non-zero coordinates in increasing u-hash order: the k of
    * least u-hash, or the whole support if it has fewer than k.
    */
  final case class Drawn(xs: Vector[Long]) extends KSample
}

/** Linear k-sample ℓ₀-sketch over a vector in Z^D updated by (coordinate,
  * ±delta) turnstile updates: a uniform k-subset of the non-zero
  * coordinates, drawn without replacement (Algorithm 3's banks; Jowhari–
  * Sağlam–Tardos [32] levels, Goodrich–Mitzenmacher invertible Bloom
  * lookup tables for the recovery).
  *
  * Structure: L = O(log D) nested levels; coordinate x belongs to level l
  * iff the top l bits of a uniform hash u(x) are zero, so level l holds the
  * coordinates of least u-hash, a prefix of the support in u order. The
  * sketch stores rings, not levels: ring l holds the coordinates whose
  * deepest level is l, and level l is the sum of rings ≥ l. Each ring is
  * an invertible Bloom lookup table (IBLT) of `cells` cells; x goes to 3
  * of them, one in each third of the table, at the same positions in every
  * ring. A cell holds (Σc, Σc·x, Σc·f(x)) in wrapping 64-bit arithmetic,
  * so an update writes the 3 cells of one ring.
  *
  * Query peels from the sparsest ring down, each ring on its own, with
  * about half the coordinates of its level. Once the rings peeled so far
  * hold k coordinates they are a level that holds at least k, and its
  * bottom-k by u-hash is the support's; if every ring peels, that is the
  * whole support. The state is linear in the updates: equally built
  * sketches merge by addition, and update order does not matter.
  *
  * Ring arrays are allocated lazily, when a coordinate first lands in
  * them; [[words]] counts the levels up to the deepest allocated ring, as
  * a sketch storing whole levels would allocate.
  *
  * @param domain number of coordinates D
  * @param seed   derives the u, cell and fingerprint hashes
  * @param k      coordinates to sample
  * @param cells  IBLT cells per ring
  */
final class KSampler(val domain: Long, val seed: Long, val k: Int, val cells: Int) {
  require(domain >= 1 && k >= 1 && cells >= 3,
    s"KSampler needs domain >= 1, k >= 1, cells >= 3: domain=$domain, k=$k, cells=$cells")

  /** Levels 0..levels-1; level 0 holds everything. */
  val levels: Int = 64 - java.lang.Long.numberOfLeadingZeros(domain) + 2

  // Packed (count, sum, fp) triples per ring: 3 * cells longs, lazily allocated.
  private val state = new Array[Array[Long]](levels)
  private val third = cells / 3

  // The hash constants fix every seeded sketch output: Tables 4 and 7 and
  // the seeded tests change if they do.
  @inline private[sketch] def uHash(x: Long): Long = splitmix64(seed ^ 0x51ed2701L ^ x)
  @inline private def fHash(x: Long): Long = splitmix64(seed ^ 0x7be03ca1L ^ x)

  /** The cell of x in third j of every ring's table. */
  @inline private def cellOf(x: Long, j: Int): Int = {
    val h = splitmix64(seed ^ ((j + 1).toLong * 0xc2b2ae3d27d4eb4fL) ^ x)
    val size = if (j == 2) cells - 2 * third else third
    j * third + ((h >>> 1) % size).toInt
  }

  /** Deepest level coordinate x belongs to (#leading zero bits of u(x)). */
  @inline private def maxLevel(x: Long): Int =
    math.min(levels - 1, java.lang.Long.numberOfLeadingZeros(uHash(x)))

  @inline private def add(arr: Array[Long], cell: Int, c: Long, cx: Long, cf: Long): Unit = {
    val i = 3 * cell
    arr(i) += c; arr(i + 1) += cx; arr(i + 2) += cf
  }

  /** Apply update (x, delta) to ring maxLevel(x). */
  def update(x: Long, delta: Long): Unit = {
    require(x >= 0 && x < domain, s"coordinate $x out of [0, $domain)")
    val l = maxLevel(x)
    var arr = state(l)
    if (arr == null) { arr = new Array[Long](3 * cells); state(l) = arr }
    val cx = delta * x; val cf = delta * fHash(x)
    add(arr, cellOf(x, 0), delta, cx, cf); add(arr, cellOf(x, 1), delta, cx, cf)
    add(arr, cellOf(x, 2), delta, cx, cf)
  }

  /** The coordinate cell i of ring l holds alone, or -1 if it holds none
    * or several.
    */
  private def pure(arr: Array[Long], i: Int, l: Int): Long = {
    val c = arr(3 * i); val s = arr(3 * i + 1)
    if (c == 0L || s % c != 0L) return -1L
    val x = s / c
    val j = math.min(2, i / third)
    if (x < 0 || x >= domain || cellOf(x, j) != i || maxLevel(x) != l ||
        arr(3 * i + 2) != c * fHash(x)) -1L
    else x
  }

  /** Peel ring l, the coordinates whose deepest level is l, on a copy of
    * its cells. Some(its coordinates) if it peels to zero, else None.
    */
  private def peelRing(l: Int): Option[Vector[Long]] = {
    val src = state(l)
    if (src == null) return Some(Vector.empty)
    val arr = src.clone()
    val out = Vector.newBuilder[Long]
    // Cells to examine: every cell once, then each cell a peel touched.
    var stack = Array.range(0, cells)
    var top = cells
    while (top > 0) {
      top -= 1
      val i = stack(top)
      val x = pure(arr, i, l)
      if (x >= 0) {
        val c = arr(3 * i); val cx = c * x; val cf = c * fHash(x)
        out += x
        if (top + 3 > stack.length) stack = java.util.Arrays.copyOf(stack, 2 * stack.length)
        var j = 0
        while (j < 3) {
          val cell = cellOf(x, j)
          add(arr, cell, -c, -cx, -cf)
          stack(top) = cell; top += 1
          j += 1
        }
      }
    }
    if (arr.exists(_ != 0L)) None else Some(out.result())
  }

  /** The bottom-k of the support by u-hash, [[KSample.Empty]] for the zero
    * vector, or [[KSample.Failed]] when a ring fails to peel before the
    * rings below it add up to k coordinates.
    */
  def sample(): KSample = {
    var xs = Vector.empty[Long] // level l+1's coordinates
    var l = levels - 1
    while (l >= 0 && xs.size < k) {
      peelRing(l) match {
        case Some(ring) => xs ++= ring
        case None       => return KSample.Failed
      }
      l -= 1
    }
    if (xs.isEmpty) KSample.Empty
    else KSample.Drawn(xs.sortBy(x => uHash(x) ^ Long.MinValue).take(k))
  }

  /** Add another sketch's state into this one (linearity). Both must be
    * built with identical (domain, seed, k, cells).
    */
  def merge(other: KSampler): this.type = {
    require(other.domain == domain && other.seed == seed && other.k == k && other.cells == cells,
      "can only merge identically built sketches")
    var l = 0
    while (l < levels) {
      val o = other.state(l)
      if (o != null) {
        var arr = state(l)
        if (arr == null) { arr = new Array[Long](3 * cells); state(l) = arr }
        var i = 0
        while (i < arr.length) { arr(i) += o(i); i += 1 }
      }
      l += 1
    }
    this
  }

  /** Every ring's cells, an unallocated ring as zeros: equal for equal
    * linear states.
    */
  private[sketch] def snapshot: Vector[Vector[Long]] =
    state.iterator.map(a => if (a == null) Vector.fill(3 * cells)(0L) else a.toVector).toVector

  /** Words of the dense levels 0 up to the deepest allocated ring. */
  def words: Long = (state.lastIndexWhere(_ != null) + 1).toLong * 3 * cells
}
