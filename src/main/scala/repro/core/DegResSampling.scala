package repro.core

import scala.collection.mutable

import repro.Hashing

/** Shared per-A-vertex degree counts.
  *
  * Algorithm 2 runs c copies of Deg-Res-Sampling in parallel but the paper
  * charges the O(n log n)-bit degree table only once; sharing one tracker
  * across runs reproduces that accounting and avoids re-counting.
  *
  * An open-addressing table over primitive arrays: slot i holds vertex
  * `keys(i)` with degree `degs(i)`, and degree 0 marks an empty slot, so any
  * Long is a valid id. A vertex probes linearly from the low bits of
  * [[Hashing.splitmix64]](a); the table doubles once more than half its
  * slots are full.
  *
  * Serializable so that the streaming build can keep it as operator state;
  * it is written packed, as its size and then its (id, degree) pairs, 12
  * bytes per vertex, and rebuilt on read.
  */
final class DegreeTracker extends Serializable {
  @transient private var keys = new Array[Long](DegreeTracker.MinCapacity)
  @transient private var degs = new Array[Int](DegreeTracker.MinCapacity)
  @transient private var size = 0

  /** The slot holding `a`, or the empty slot where it would go. */
  private def slot(a: Long): Int = {
    val mask = keys.length - 1
    var i = Hashing.splitmix64(a).toInt & mask
    while (degs(i) != 0 && keys(i) != a) i = (i + 1) & mask
    i
  }

  /** Increment deg(a) by one and return the new degree. */
  def bump(a: Long): Int = {
    val i = slot(a)
    val d = degs(i) + 1
    degs(i) = d
    if (d == 1) {
      keys(i) = a
      size += 1
      if (2 * size > keys.length) rehash(2 * keys.length)
    }
    d
  }

  def degree(a: Long): Int = degs(slot(a))

  /** One word per vertex with at least one edge (n_0 in Theorem 3.2). */
  def words: Long = size.toLong

  /** Put `a`, which the table does not hold, in with degree `d`. */
  private def place(a: Long, d: Int): Unit = {
    val i = slot(a)
    keys(i) = a
    degs(i) = d
  }

  /** Move every entry into a new table of `capacity` slots. */
  private def rehash(capacity: Int): Unit = {
    val oldKeys = keys
    val oldDegs = degs
    keys = new Array[Long](capacity)
    degs = new Array[Int](capacity)
    var j = 0
    while (j < oldDegs.length) {
      if (oldDegs(j) != 0) place(oldKeys(j), oldDegs(j))
      j += 1
    }
  }

  private def writeObject(out: java.io.ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    out.writeInt(size)
    var j = 0
    while (j < degs.length) {
      if (degs(j) != 0) { out.writeLong(keys(j)); out.writeInt(degs(j)) }
      j += 1
    }
  }

  /** Rebuilds the table at the least capacity that keeps its load at most ½. */
  private def readObject(in: java.io.ObjectInputStream): Unit = {
    in.defaultReadObject()
    size = in.readInt()
    var capacity = DegreeTracker.MinCapacity
    while (2 * size > capacity) capacity *= 2
    keys = new Array[Long](capacity)
    degs = new Array[Int](capacity)
    var n = 0
    while (n < size) { place(in.readLong(), in.readInt()); n += 1 }
  }
}

object DegreeTracker {
  private val MinCapacity = 16
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
  * `succeeded` iff some stored neighborhood reaches size d2 (Lemma 3.1
  * gives the probability >= 1 - (1 - s/n1)^n2); every build reports the
  * full one of least priority by [[InsertionOnlyND.Params.merge]].
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
    // A held vertex entered at degree d1 with an empty buffer, has collected
    // every edge since, and once evicted never returns (its degree passes
    // d1 once). So its buffer holds newDeg - d1 edges: it can grow only
    // while that is below d2, and only then is `collected` looked up.
    if (newDeg >= d1 && newDeg - d1 < d2) {
      val buf = collected.getOrElse(edge.a, null)
      if (buf != null) {
        assert(buf.size < d2, "a full buffer inside the collection window")
        buf += edge.b
        charge(1)
      }
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
}
