package repro.baseline

import scala.collection.mutable

import repro.core.SpaceMeter

/** SpaceSaving top-k counters [40] — second witness-free baseline.
  *
  * Keeps k (item, count, error) triples; on overflow a minimum-count item
  * is replaced and the newcomer inherits its count as error. Overestimates
  * by at most the inherited error; any item with true count > N/k
  * survives. Like Misra–Gries it cannot report witnesses (Table 5).
  *
  * Counters live in Metwally, Agrawal and El Abbadi's Stream-Summary: a
  * list of buckets in ascending count order, each holding the counters of
  * one count. An increment moves a counter to the neighbouring bucket of
  * count + 1 (made if missing), and the minimum-count counters are the
  * first bucket's, so both an increment and an eviction take O(1).
  *
  * Tie-break: among the counters sharing the minimum count, the victim is
  * the one that has held that count longest (each bucket keeps its
  * counters in arrival order). `candidates` lists equal counts in the same
  * order.
  *
  * Words: three (item, count, error) per live counter.
  */
final class SpaceSaving(val k: Int) extends SpaceMeter {
  import SpaceSaving.{Bucket, Counter}
  require(k >= 1)

  private val index = mutable.HashMap.empty[Long, Counter]
  private var minBucket: Bucket = _
  private var maxBucket: Bucket = _
  private var n = 0L

  def process(item: Long): Unit = {
    n += 1
    index.get(item) match {
      case Some(c) => increment(c)
      case None if index.size < k =>
        val c = new Counter(item, 0L)
        index.update(item, c)
        charge(3)
        val b = if (minBucket != null && minBucket.count == 1L) minBucket else linkBucket(1L, null)
        append(c, b)
      case None =>
        val c = minBucket.first
        index.remove(c.item)
        c.item = item
        c.error = minBucket.count
        index.update(item, c)
        increment(c)
    }
  }

  def processAll(items: IterableOnce[Long]): this.type = {
    items.iterator.foreach(process); this
  }

  /** Estimated count (upper bound; true count >= estimate - error). */
  def estimate(item: Long): Long = index.get(item).map(_.bucket.count).getOrElse(0L)

  def error(item: Long): Long = index.get(item).map(_.error).getOrElse(0L)

  /** Surviving candidates, most-counted first. */
  def candidates: Vector[(Long, Long)] = {
    val out = Vector.newBuilder[(Long, Long)]
    var b = maxBucket
    while (b != null) {
      var c = b.first
      while (c != null) { out += ((c.item, b.count)); c = c.next }
      b = b.prev
    }
    out.result()
  }

  def streamLength: Long = n

  /** Move `c` from its bucket to the bucket of count + 1. */
  private def increment(c: Counter): Unit = {
    val from = c.bucket
    val to =
      if (from.next != null && from.next.count == from.count + 1) from.next
      else linkBucket(from.count + 1, from)
    unlink(c)
    append(c, to)
  }

  /** A new empty bucket of `count`, linked after `after` (first if null). */
  private def linkBucket(count: Long, after: Bucket): Bucket = {
    val b = new Bucket(count)
    b.prev = after
    b.next = if (after == null) minBucket else after.next
    if (b.prev == null) minBucket = b else b.prev.next = b
    if (b.next == null) maxBucket = b else b.next.prev = b
    b
  }

  private def append(c: Counter, b: Bucket): Unit = {
    c.bucket = b
    c.prev = b.last
    c.next = null
    if (b.last == null) b.first = c else b.last.next = c
    b.last = c
  }

  /** Take `c` out of its bucket, dropping the bucket if it empties. */
  private def unlink(c: Counter): Unit = {
    val b = c.bucket
    if (c.prev == null) b.first = c.next else c.prev.next = c.next
    if (c.next == null) b.last = c.prev else c.next.prev = c.prev
    if (b.first == null) {
      if (b.prev == null) minBucket = b.next else b.prev.next = b.next
      if (b.next == null) maxBucket = b.prev else b.next.prev = b.prev
    }
  }
}

private object SpaceSaving {
  /** One counter of a Stream-Summary, linked to its bucket's neighbours. */
  final class Counter(var item: Long, var error: Long) {
    var bucket: Bucket = _
    var prev: Counter  = _
    var next: Counter  = _
  }

  /** The counters of one count, oldest arrival first. */
  final class Bucket(val count: Long) {
    var first: Counter = _
    var last: Counter  = _
    var prev: Bucket   = _
    var next: Bucket   = _
  }
}
