package repro.core

import scala.collection.mutable
import scala.util.Random

/** Shared per-A-vertex degree counts.
  *
  * Algorithm 2 runs c copies of Deg-Res-Sampling in parallel but the paper
  * charges the O(n log n)-bit degree table only once; sharing one tracker
  * across runs reproduces that accounting and avoids re-counting.
  */
final class DegreeTracker {
  private val deg = mutable.HashMap.empty[Long, Int]

  /** Increment deg(a) by one and return the new degree. */
  def bump(a: Long): Int = {
    val d = deg.getOrElse(a, 0) + 1
    deg.update(a, d)
    d
  }

  def degree(a: Long): Int = deg.getOrElse(a, 0)

  /** Number of vertices with at least one edge (n_0 in Theorem 3.2). */
  def trackedVertices: Int = deg.size

  def words: Long = deg.size.toLong
}

/** Algorithm 1: Deg-Res-Sampling(d1, d2, s).
  *
  * Maintains a reservoir `R` that is, at every moment, a uniform random
  * s-subset of the A-vertices whose current degree is at least `d1` (or all
  * of them while there are fewer than s). For every reservoir vertex the
  * next up-to-`d2` incident edges are collected, starting with the edge
  * that raised its degree to `d1`, so a surviving sampled vertex of final
  * degree `deg` holds a neighborhood of size min(d2, deg - d1 + 1).
  *
  * `succeeded` iff some stored neighborhood reaches size d2; `result` then
  * returns a uniform random one among those (Lemma 3.1 gives the success
  * probability >= 1 - (1 - s/n1)^n2).
  *
  * Degrees are maintained by an external shared [[DegreeTracker]]; callers
  * must `bump` once per edge and pass the updated degree to [[process]].
  *
  * Words: one per reservoir id plus one per collected edge (the degree
  * table is charged by the caller via [[DegreeTracker.words]]).
  */
final class DegResSampling(val d1: Int, val d2: Int, val s: Int, rng: Random)
    extends SpaceMeter {
  require(d1 >= 1 && d2 >= 1 && s >= 1, s"bad params d1=$d1 d2=$d2 s=$s")

  // Reservoir as array for O(1) uniform eviction; index map for O(1) lookup.
  private val reservoir = mutable.ArrayBuffer.empty[Long]
  private val pos       = mutable.HashMap.empty[Long, Int]
  // Collected edges per reservoir vertex, in stream order.
  private val collected = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
  // Count of vertices whose degree reached d1 so far (x in Algorithm 1).
  private var crossed = 0L

  /** Feed the next stream edge; `newDeg` is deg(edge.a) *after* this edge. */
  def process(edge: Edge, newDeg: Int): Unit = {
    if (newDeg == d1) { // candidate to be inserted into reservoir
      crossed += 1
      if (reservoir.size < s) insert(edge.a)
      else if (rng.nextDouble() < s.toDouble / crossed) {
        evict(rng.nextInt(reservoir.size))
        insert(edge.a)
      }
    }
    if (pos.contains(edge.a)) {
      val buf = collected(edge.a)
      if (buf.size < d2) { buf += edge.b; charge(1) }
    }
  }

  private def insert(a: Long): Unit = {
    pos.update(a, reservoir.size)
    reservoir += a
    collected.update(a, mutable.ArrayBuffer.empty[Long])
    charge(1)
  }

  private def evict(i: Int): Unit = {
    val victim = reservoir(i)
    val last   = reservoir.last
    reservoir(i) = last
    pos.update(last, i)
    reservoir.remove(reservoir.size - 1)
    pos.remove(victim)
    collected.remove(victim).foreach(buf => release(1L + buf.size))
  }

  /** All currently stored neighborhoods (for tests and diagnostics). */
  def storedNeighborhoods: Vector[Neighborhood] =
    reservoir.iterator.map(a => Neighborhood(a, collected(a).toVector)).toVector

  /** Stored neighborhoods that reached the target size d2. */
  def fullNeighborhoods: Vector[Neighborhood] =
    storedNeighborhoods.filter(_.size >= d2)

  def succeeded: Boolean = fullNeighborhoods.nonEmpty

  /** Uniform random neighborhood among those of size d2; None = fail. */
  def result(): Option[Neighborhood] = {
    val full = fullNeighborhoods
    if (full.isEmpty) None else Some(full(rng.nextInt(full.size)))
  }
}
