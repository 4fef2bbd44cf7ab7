package repro.lowerbound

import scala.util.Random

import repro.core.{Edge, InsertionOnlyND}

/** Problem 3 + Theorem 4.1: the p-party one-way Set-Disjointness game and
  * the reduction showing any (p/1.01)-approximation streaming algorithm for
  * Neighborhood Detection decides it (hence the Ω(n/c²) term of the lower
  * bound).
  *
  * Construction: universe U = [n]; party i turns u ∈ S_i into the k edges
  * {u → b : b ∈ ((i-1)k, ik]} with k = d/p. If the sets are pairwise
  * disjoint every A-vertex has degree exactly k; if they uniquely intersect
  * the common element has degree d = kp. A (p/1.01)-approximation output
  * has size ≥ 1.01k > k in the intersecting case and ≤ k otherwise, so its
  * size decides the instance.
  */
object SetDisjointnessRed {

  final case class Instance(p: Int, n: Long, sets: Vector[Set[Long]],
                            intersecting: Boolean, common: Option[Long])

  /** A random instance: party i's set is the i-th slice of `perSet` items
    * of a random permutation of U, so the sets are pairwise disjoint; if
    * `intersecting`, the permutation's first item is left out of the
    * slices and added to every set.
    */
  def sample(p: Int, n: Long, perSet: Int, seed: Long, intersecting: Boolean): Instance = {
    val shared = if (intersecting) 1 else 0
    require(p.toLong * perSet + shared <= n, "universe too small for disjoint sets")
    val perm   = new Random(seed).shuffle((1L to n).toVector)
    val common = perm.headOption.filter(_ => intersecting)
    val rest   = perm.drop(shared)
    val sets = Vector.tabulate(p) { i =>
      val slice = rest.slice(i * perSet, (i + 1) * perSet).toSet
      common.fold(slice)(slice + _)
    }
    Instance(p, n, sets, intersecting, common)
  }

  /** Party i's edges under the Theorem 4.1 construction (k = d/p). */
  def partyEdges(inst: Instance, i: Int, k: Int): Vector[Edge] =
    (for {
      u <- inst.sets(i - 1).toVector.sorted
      b <- ((i - 1).toLong * k + 1) to (i.toLong * k)
    } yield Edge(u, b))

  final case class Decision(saidIntersecting: Boolean, outputSize: Int,
                            threshold: Int, stateWords: Long)

  /** Simulate the protocol: stream party edges through the insertion-only
    * algorithm (c = p - 1, the integral stand-in for p/1.01; requires
    * k >= p - 1 so that floor(kp/(p-1)) >= k + 1) and decide by output
    * size.
    */
  def simulate(inst: Instance, k: Int, seed: Long): Decision = {
    val p = inst.p
    require(p >= 3 && k >= p - 1, s"need p >= 3 and k >= p-1 (p=$p, k=$k)")
    val c = p - 1
    val d = k * p
    val stream = (1 to p).iterator.flatMap(i => partyEdges(inst, i, k))
    val res  = InsertionOnlyND.run(stream, inst.n, d, c, seed)
    val size = res.output.map(_.size).getOrElse(0)
    Decision(saidIntersecting = size >= k + 1, outputSize = size,
      threshold = k, stateWords = res.totalPeakWords)
  }
}
