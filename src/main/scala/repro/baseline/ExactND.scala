package repro.baseline

import scala.collection.mutable

import repro.core.{Edge, Neighborhood, SpaceMeter}

/** Exact Õ(nd)-space baseline (paper §1.1): store the first
  * min(deg(a), d) edges of every A-vertex. Solves Neighborhood Detection
  * exactly (approximation factor 1) but uses the space the paper's
  * algorithms beat — the o(nd) separation is measured in Table 2.
  */
final class ExactND(val d: Int) extends SpaceMeter {
  require(d >= 1)
  private val stored = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]

  /** One word per stored vertex id + one per stored edge endpoint. */
  def process(e: Edge): Unit = {
    val buf = stored.getOrElseUpdate(e.a, { charge(1); mutable.ArrayBuffer.empty[Long] })
    if (buf.size < d) { buf += e.b; charge(1) }
  }

  def processAll(edges: IterableOnce[Edge]): this.type = {
    edges.iterator.foreach(process); this
  }

  /** The vertex holding the most stored edges, with its stored neighbors
    * (exact up to the cap d — if some vertex has degree >= d this returns a
    * full size-d neighborhood).
    */
  def best: Option[Neighborhood] =
    if (stored.isEmpty) None
    else {
      val (a, buf) = stored.maxBy(_._2.size)
      Some(Neighborhood(a, buf.toVector))
    }

  /** All vertices that reached the cap d. */
  def atThreshold: Vector[Neighborhood] =
    stored.iterator.collect {
      case (a, buf) if buf.size >= d => Neighborhood(a, buf.toVector)
    }.toVector
}
