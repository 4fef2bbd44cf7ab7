package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable
import scala.util.Random

import repro.core.{Edge, StreamOp, WitnessRecord}

/** Synthetic bipartite graph / witness streams for the Neighborhood
  * Detection evaluation (DESIGN.md §3). All generators are deterministic in
  * their seed; every generator also returns enough ground truth to validate
  * outputs (planted vertex id, final adjacency).
  */
object SynthGraphs {

  /** Ground truth adjacency of an edge multiset (insertions only). */
  def adjacency(edges: Seq[Edge]): Map[Long, Set[Long]] =
    edges.groupBy(_.a).map { case (a, es) => a -> es.map(_.b).toSet }

  /** Adjacency of the graph *described* by a turnstile stream. */
  def adjacencyOf(ops: Seq[StreamOp]): Map[Long, Set[Long]] = {
    val m = mutable.HashMap.empty[Long, mutable.HashSet[Long]]
    ops.foreach { op =>
      val s = m.getOrElseUpdate(op.edge.a, mutable.HashSet.empty[Long])
      if (op.delta > 0) s += op.edge.b else s -= op.edge.b
    }
    m.iterator.map { case (a, s) => a -> s.toSet }.filter(_._2.nonEmpty).toMap
  }

  private def distinctNeighbors(k: Int, m: Long, rng: Random): Vector[Long] = {
    require(k <= m, s"degree $k exceeds |B| = $m")
    val seen = mutable.LinkedHashSet.empty[Long]
    while (seen.size < k) seen += (rng.nextLong(m) + 1)
    seen.toVector
  }

  /** Planted-star instance: one uniformly chosen A-vertex of degree exactly
    * `d`; every other A-vertex gets an independent uniform degree in
    * [0, maxBg]. Edges are returned in uniform random stream order.
    *
    * @return (stream, planted vertex id)
    */
  def plantedStar(n: Long, m: Long, d: Int, maxBg: Int, seed: Long): (Vector[Edge], Long) =
    withPlanted(n, m, d, seed)(_.nextInt(maxBg + 1))

  /** Zipf-degree instance: vertex of rank r (random rank assignment) has
    * degree ~ d / r^alpha, floored at minDeg. Heavy-tailed degrees are the
    * regime where the *early* runs of Algorithm 2 succeed.
    *
    * @return (stream, vertex of maximum degree)
    */
  def zipfDegrees(n: Long, m: Long, d: Int, alpha: Double, minDeg: Int,
                  seed: Long): (Vector[Edge], Long) = {
    val rng   = new Random(seed)
    val ranks = rng.shuffle((1L to n).toVector)
    val b = Vector.newBuilder[Edge]
    var top = 0L
    ranks.zipWithIndex.foreach { case (a, idx) =>
      val r   = idx + 1
      val deg = math.max(minDeg, (d / math.pow(r.toDouble, alpha)).toInt)
      if (r == 1) top = a
      distinctNeighbors(deg, m, rng).foreach(w => b += Edge(a, w))
    }
    (rng.shuffle(b.result()), top)
  }

  /** Adversarial uniform instance: every non-planted vertex has degree
    * exactly `bg` (< d), so only the high-threshold runs can isolate the
    * planted vertex — exercises the i = c-1 regime of Theorem 3.2.
    */
  def uniformPlusPlanted(n: Long, m: Long, d: Int, bg: Int, seed: Long): (Vector[Edge], Long) =
    withPlanted(n, m, d, seed)(_ => bg)

  /** One uniformly chosen A-vertex of degree `d`, every other A-vertex of
    * degree `bgDegree(rng)`, edges in uniform random stream order.
    */
  private def withPlanted(n: Long, m: Long, d: Int, seed: Long)
                         (bgDegree: Random => Int): (Vector[Edge], Long) = {
    val rng = new Random(seed)
    val planted = rng.nextLong(n) + 1
    val b = Vector.newBuilder[Edge]
    var a = 1L
    while (a <= n) {
      val deg = if (a == planted) d else bgDegree(rng)
      distinctNeighbors(deg, m, rng).foreach(w => b += Edge(a, w))
      a += 1
    }
    (rng.shuffle(b.result()), planted)
  }

  /** Star Detection's general graph on 1..n: a star of degree `deg` at a
    * uniform center plus up to `extra` uniform edges away from it, as
    * undirected pairs in random stream order (Table 6, StarDetectionSpec).
    */
  def plantedStarGraph(n: Int, deg: Int, extra: Int, seed: Long): Vector[(Long, Long)] = {
    val rng = new Random(seed)
    val center = rng.nextInt(n).toLong + 1
    val leaves = rng.shuffle((1L to n.toLong).filterNot(_ == center).toVector).take(deg)
    val star = leaves.map(l => (center, l))
    val others = Vector.fill(extra) {
      val u = rng.nextInt(n).toLong + 1
      var v = rng.nextInt(n).toLong + 1
      while (v == u) v = rng.nextInt(n).toLong + 1
      (math.min(u, v), math.max(u, v))
    }.distinct.filterNot { case (u, v) => u == center || v == center }
    rng.shuffle((star ++ others).distinct)
  }

  /** Turnstile stream from a final graph: all final edges are inserted,
    * plus `chaffFraction * |E|` chaff edges (not in the final graph) that
    * are inserted and later deleted, in an interleaved random order with
    * every deletion after its insertion.
    *
    * @return stream of +-1 ops describing exactly the input `finalEdges`
    */
  def turnstileFrom(finalEdges: Vector[Edge], m: Long, chaffFraction: Double,
                    seed: Long): Vector[StreamOp] = {
    val rng = new Random(seed)
    val present = finalEdges.toSet
    val nChaff  = (finalEdges.size * chaffFraction).toInt
    val as      = finalEdges.map(_.a).distinct
    val chaff = mutable.LinkedHashSet.empty[Edge]
    while (chaff.size < nChaff && as.nonEmpty) {
      val e = Edge(as(rng.nextInt(as.size)), rng.nextLong(m) + 1)
      if (!present.contains(e)) chaff += e
    }
    // Assign each op a random position; a chaff deletion gets a position
    // strictly after its insertion.
    val keep   = finalEdges.map(e => (rng.nextDouble(), StreamOp(e, 1)))
    val chaffOps = chaff.toVector.flatMap { e =>
      val t1 = rng.nextDouble(); val t2 = rng.nextDouble()
      val (lo, hi) = if (t1 < t2) (t1, t2) else (t2, t1)
      Vector((lo, StreamOp(e, 1)), (hi, StreamOp(e, -1)))
    }
    (keep ++ chaffOps).sortBy(_._1).map(_._2)
  }

  /** Witness stream over Zipf-distributed item frequencies: item of rank r
    * occurs ~ total / (r^alpha * H) times; each occurrence carries a unique
    * timestamp-like witness id (its global stream position).
    *
    * @return (stream in random order, exact frequency per item)
    */
  def zipfWitnessStream(nItems: Long, total: Long, alpha: Double,
                        seed: Long): (Vector[WitnessRecord], Map[Long, Long]) = {
    val rng  = new Random(seed)
    val nRanks = math.min(nItems, 100000L).toInt
    val weights = (1 to nRanks).map(r => 1.0 / math.pow(r.toDouble, alpha))
    val norm = weights.sum
    val ranks = rng.shuffle((1L to nItems).toVector)
    val freq = mutable.HashMap.empty[Long, Long]
    val recs = Vector.newBuilder[WitnessRecord]
    var pos = 0L
    (0 until nRanks).foreach { idx =>
      val item  = ranks(idx)
      val count = math.max(if (idx == 0) 1L else 0L, (total * weights(idx) / norm).toLong)
      freq.update(item, count)
      var i = 0L
      while (i < count) { recs += WitnessRecord(item, pos); pos += 1; i += 1 }
    }
    val shuffled = rng.shuffle(recs.result())
    (shuffled, freq.toMap)
  }

  /** Witness stream from TPC-H-lite lineitem at SynthData's default seed:
    * item = l_partkey, witness = unique row position (the "timestamp" of
    * the order event). Ground-truth frequencies come from the same
    * DataFrame and are oracle-checked against DuckDB in the test suite.
    */
  def lineitemWitnessStream(spark: SparkSession, sf: Double)
      : (Vector[WitnessRecord], Map[Long, Long]) = {
    val rows = SynthData.lineitem(spark, sf).collect().map(_.getLong(0))
    val recs = rows.zipWithIndex.map { case (pk, i) => WitnessRecord(pk, i.toLong) }.toVector
    val freq = rows.groupBy(identity).map { case (k, v) => k -> v.length.toLong }
    (recs, freq)
  }

  /** Edge stream as a DataFrame (pos, a, b) preserving stream order — the
    * input representation of the Spark DataFrame algorithm.
    */
  def edgesDf(spark: SparkSession, edges: Seq[Edge]): DataFrame = {
    import spark.implicits._
    edges.zipWithIndex
      .map { case (e, i) => (i.toLong, e.a, e.b) }
      .toDF("pos", "a", "b")
  }
}
