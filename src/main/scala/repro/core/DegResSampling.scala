package repro.core

import scala.collection.mutable

import repro.Hashing

/** Shared per-A-vertex degree counts.
  *
  * Algorithm 2 runs c copies of Deg-Res-Sampling in parallel but the paper
  * charges the O(n log n)-bit degree table only once; sharing one tracker
  * across runs reproduces that accounting and avoids re-counting.
  * Serializable so that the streaming build can keep it as operator state.
  */
final class DegreeTracker extends Serializable {
  private val deg = mutable.HashMap.empty[Long, Int]

  /** Increment deg(a) by one and return the new degree. */
  def bump(a: Long): Int = {
    val d = deg.getOrElse(a, 0) + 1
    deg.update(a, d)
    d
  }

  def degree(a: Long): Int = deg.getOrElse(a, 0)

  /** One word per vertex with at least one edge (n_0 in Theorem 3.2). */
  def words: Long = deg.size.toLong
}

/** Algorithm 1: Deg-Res-Sampling(d1, d2, s).
  *
  * Maintains a reservoir `R` that is, at every moment, a uniform random
  * s-subset of the A-vertices whose current degree is at least `d1` (or all
  * of them while there are fewer than s): the s of least (priority, a) by
  * [[repro.Hashing.priority]](seed, run, a). A vertex leaves only for one of
  * lower priority, so a vertex in the final reservoir has been held since
  * it crossed d1. For every reservoir vertex the next up-to-`d2` incident
  * edges are collected, starting with the edge that raised its degree to
  * `d1`, so a surviving sampled vertex of final degree `deg` holds a
  * neighborhood of size min(d2, deg - d1 + 1).
  *
  * `succeeded` iff some stored neighborhood reaches size d2; `result` then
  * returns the one of least priority, a uniform random one among those
  * (Lemma 3.1 gives the success probability >= 1 - (1 - s/n1)^n2).
  *
  * Degrees are maintained by an external shared [[DegreeTracker]]; callers
  * must `bump` once per edge and pass the updated degree to [[process]].
  *
  * Words: one per reservoir id plus one per collected edge (the degree
  * table is charged by the caller via [[DegreeTracker.words]]).
  *
  * Serializable so that the streaming build can keep it as operator state
  * across micro-batches.
  */
final class DegResSampling(val d1: Int, val d2: Int, val s: Int, seed: Long, run: Int)
    extends SpaceMeter with Serializable {
  require(d1 >= 1 && d2 >= 1 && s >= 1, s"bad params d1=$d1 d2=$d2 s=$s")

  // Max-heap of (priority, a) over the reservoir: its head is evicted first.
  private val reservoir = mutable.PriorityQueue.empty[(Long, Long)]
  // Collected edges per reservoir vertex, in stream order.
  private val collected = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]

  /** Feed the next stream edge; `newDeg` is deg(edge.a) *after* this edge. */
  def process(edge: Edge, newDeg: Int): Unit = {
    if (newDeg == d1) { // candidate to be inserted into reservoir
      val key = (Hashing.priority(seed, run, edge.a), edge.a)
      if (reservoir.size < s) insert(key)
      else if (reservoir.ord.lt(key, reservoir.head)) {
        collected.remove(reservoir.dequeue()._2).foreach(buf => release(1L + buf.size))
        insert(key)
      }
    }
    if (collected.contains(edge.a)) {
      val buf = collected(edge.a)
      if (buf.size < d2) { buf += edge.b; charge(1) }
    }
  }

  private def insert(key: (Long, Long)): Unit = {
    reservoir.enqueue(key)
    collected.update(key._2, mutable.ArrayBuffer.empty[Long])
    charge(1)
  }

  /** All currently stored neighborhoods, by increasing priority. */
  def storedNeighborhoods: Vector[Neighborhood] =
    reservoir.toVector.sorted.map { case (_, a) => Neighborhood(a, collected(a).toVector) }

  def succeeded: Boolean = collected.valuesIterator.exists(_.size >= d2)

  /** The full neighborhood of least priority; None = fail. */
  def result(): Option[Neighborhood] = storedNeighborhoods.find(_.size >= d2)
}
