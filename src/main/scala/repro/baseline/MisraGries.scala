package repro.baseline

import scala.collection.mutable

import repro.core.SpaceMeter

/** Misra–Gries frequent elements [41] — the classic witness-free baseline.
  *
  * With k counters, every item occurring more than N/(k+1) times in a
  * stream of length N survives, and each surviving estimate undercounts by
  * at most N/(k+1). It reports *items only*: witness recall is zero by
  * construction, which is exactly the gap the paper's algorithms close
  * (Table 5).
  *
  * Words: two (item id + counter) per live counter.
  */
final class MisraGries(val k: Int) extends SpaceMeter {
  require(k >= 1)
  private val counters = mutable.HashMap.empty[Long, Long]
  private var n = 0L

  def process(item: Long): Unit = {
    n += 1
    counters.get(item) match {
      case Some(c) => counters.update(item, c + 1)
      case None =>
        if (counters.size < k) { counters.update(item, 1L); charge(2) }
        else {
          // Decrement-all step; drop zeros.
          val dead = mutable.ArrayBuffer.empty[Long]
          counters.foreach { case (i, c) =>
            if (c == 1L) dead += i else counters.update(i, c - 1)
          }
          dead.foreach(counters.remove)
          release(2L * dead.size)
        }
    }
  }

  def processAll(items: IterableOnce[Long]): this.type = {
    items.iterator.foreach(process); this
  }

  /** Estimated count (lower bound; true count <= estimate + N/(k+1)). */
  def estimate(item: Long): Long = counters.getOrElse(item, 0L)

  /** Surviving candidates, most-counted first. */
  def candidates: Vector[(Long, Long)] = counters.toVector.sortBy(-_._2)

  def streamLength: Long = n
}
