package perfbench

import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable

/** One timed call. `parent` is -1 for a root span; `query` names the query
  * whose pass opened it ("" outside a query); `records` is the stream
  * length the call consumed, when the call consumes a stream.
  */
final case class Span(id: Int, name: String, parent: Int, query: String,
                      startNs: Long, endNs: Long, records: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder, shared by the benchmark thread and the
  * workers of a parallel pass.
  *
  * With `enabled = false` a span is just its body: nothing is allocated or
  * timed, so an untraced pass measures the program alone. Each thread keeps
  * its own stack of open spans and its own query id. Spans are kept in
  * memory and written out by [[Main]] when the run ends.
  */
final class Tracer(@volatile var enabled: Boolean) {
  private val done   = mutable.ArrayBuffer.empty[Span] // guarded by this
  private val nextId = new AtomicInteger

  private final class Local {
    var open  = List.empty[(Int, String, Long, Long)] // (id, name, start, records)
    var query = ""
    var root  = -1 // parent of a span opened with no span open on this thread
  }
  private val local = ThreadLocal.withInitial(() => new Local)

  /** Called with (span id, span name) on entry and with the parent's id
    * and name on exit (-1 at the root); Spark runs use it to tag jobs.
    */
  var onSwitch: (Int, String) => Unit = (_, _) => ()

  def span[T](name: String, records: Long = 0L)(body: => T): T =
    if (!enabled) body
    else {
      val l = local.get
      val id = nextId.getAndIncrement()
      val parent = l.open.headOption.map(_._1).getOrElse(l.root)
      l.open = (id, name, System.nanoTime(), records) :: l.open
      onSwitch(id, name)
      try body
      finally {
        val (_, _, start, recs) = l.open.head
        l.open = l.open.tail
        val s = Span(id, name, parent, l.query, start, System.nanoTime(), recs)
        synchronized { done += s }
        l.open.headOption match {
          case Some((pid, pname, _, _)) => onSwitch(pid, pname)
          case None                     => onSwitch(-1, "")
        }
      }
    }

  /** The span open on this thread, or -1. */
  def current: Int = local.get.open.headOption.map(_._1).getOrElse(-1)

  /** Run `body` as query `id`, on any thread: its spans carry the id, and
    * its outermost span is a child of span `parent`.
    */
  def inQuery[T](id: String, parent: Int)(body: => T): T = {
    val l = local.get
    val (prevQuery, prevRoot) = (l.query, l.root)
    l.query = id; l.root = parent
    try span("query") { body } finally { l.query = prevQuery; l.root = prevRoot }
  }

  def spans: Vector[Span] = synchronized { done.toVector }

  /** Spans recorded since `mark` (a value of [[size]]). */
  def since(mark: Int): Vector[Span] = synchronized { done.iterator.drop(mark).toVector }
  def size: Int = synchronized { done.size }
}

object Tracer {
  /** Self time per span: its duration minus the time its children cover.
    * Children of one parent overlap only under a parallel pass's "pass"
    * span, whose self time no metric uses.
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val childNs = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.durNs).sum }
    spans.iterator.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }
}
