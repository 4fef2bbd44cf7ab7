package repro.sketch

import scala.collection.mutable
import scala.util.Random

import repro.core.{Neighborhood, StreamOp}

/** Which of Algorithm 3's two strategies produced the output. */
sealed trait TurnstileStrategy
object TurnstileStrategy {
  case object VertexSampling extends TurnstileStrategy
  case object EdgeSampling   extends TurnstileStrategy
}

/** Outcome of one turnstile run with diagnostics for Table 4.
  *
  * `vertexBestSize` / `edgeBestSize` report the largest neighborhood each
  * strategy found on its own (None = that strategy found nothing of size
  * >= d/c) so the Lemma 5.2 / 5.3 regime split is observable even when
  * both strategies succeed.
  */
final case class TurnstileResult(
    output: Option[Neighborhood],
    strategy: Option[TurnstileStrategy],
    vertexBestSize: Option[Int],
    edgeBestSize: Option[Int],
    vertexSamplerWords: Long,
    edgeSamplerWords: Long,
    sampledVertices: Int,
    edgeSamplers: Int,
) {
  def succeeded: Boolean = output.nonEmpty
  def totalWords: Long = vertexSamplerWords + edgeSamplerWords + sampledVertices
}

/** Parameterization of Algorithm 3: the pre-sampled vertex set, the bank
  * sizes and every sampler's seed, so that each shard of a [[TurnstileND]]
  * builds its samplers exactly as the whole sketch does.
  *
  * x = max(n/c, sqrt(n)); A' has ~ cv·x·ln n vertices, each with
  * ~ cv·(d/c)·ln n ℓ₀-samplers over B; plus ~ ce·(nd/c)(1/x + 1/c)·ln(nm)
  * global samplers over A×B. The paper's constants (10) are scaled by
  * cv / ce (DESIGN.md §6).
  */
final case class TurnstileConfig(n: Long, m: Long, d: Int, c: Int, seed: Long,
                                 cv: Double, ce: Double, buckets: Int) {
  require(c >= 1 && d >= 1 && n >= 1 && m >= 1)
  // The edge samplers' domain n·m and every edgeCoord must fit in a Long.
  require(n <= Long.MaxValue / m, s"n·m must fit in a Long: n=$n, m=$m")

  val dc: Int = math.max(1, d / c)
  val x: Double = math.max(n.toDouble / c, math.sqrt(n.toDouble))

  /** Pre-sampled vertex set A' (size ~ cv·x·ln n, capped at n). */
  val sampledVertices: Vector[Long] = {
    val rng = new Random(seed)
    val target = math.min(n, math.max(1L, math.ceil(cv * x * math.log(n.toDouble + 1)).toLong))
    if (target >= n) (1L to n).toVector
    else {
      val seen = mutable.LinkedHashSet.empty[Long]
      while (seen.size < target) seen += (rng.nextLong(n) + 1)
      seen.toVector
    }
  }

  val samplersPerVertex: Int =
    math.max(1, math.ceil(cv * dc * math.log(n.toDouble + 1)).toInt)

  val nEdgeSamplers: Int = math.max(1, math.ceil(
    ce * (n.toDouble * d / c) * (1.0 / x + 1.0 / c) * math.log(n.toDouble * m + 1)).toInt)

  private def mix(i: Long): Long = {
    var z = seed ^ (i * 0x9e3779b97f4a7c15L)
    z = (z ^ (z >>> 31)) * 0xff51afd7ed558ccdL
    z ^ (z >>> 33)
  }

  def vertexSamplerSeed(a: Long, i: Int): Long = mix(a * 65537L + i)
  def edgeSamplerSeed(i: Int): Long            = mix(0x5eed0000L + i)

  def newVertexSampler(a: Long, i: Int): L0Sampler =
    new L0Sampler(m, vertexSamplerSeed(a, i), buckets)
  def newEdgeSampler(i: Int): L0Sampler =
    new L0Sampler(n * m, edgeSamplerSeed(i), buckets)

  /** Edge (a, b) as a coordinate of the A×B domain. */
  def edgeCoord(a: Long, b: Long): Long = (a - 1) * m + (b - 1)
  def coordEdge(coord: Long): (Long, Long) = (coord / m + 1, coord % m + 1)

  /** Build the answer from the samples of all shards of the sketch. */
  def assemble(samples: TurnstileSamples): TurnstileResult = {
    val vertexHit = samples.vertex.iterator.collect {
      case (a, nbrs) if nbrs.size >= dc => Neighborhood(a, nbrs.toVector.sorted)
    }.toVector.sortBy(nb => (-nb.size, nb.a)).headOption

    val edgeHit = samples.edges.groupBy(_._1).iterator.collect {
      case (a, es) if es.size >= dc => Neighborhood(a, es.map(_._2).toVector.sorted)
    }.toVector.sortBy(nb => (-nb.size, nb.a)).headOption

    val (out, strat) = (vertexHit, edgeHit) match {
      case (Some(v), Some(e)) =>
        if (v.size >= e.size) (Some(v), Some(TurnstileStrategy.VertexSampling))
        else (Some(e), Some(TurnstileStrategy.EdgeSampling))
      case (Some(v), None) => (Some(v), Some(TurnstileStrategy.VertexSampling))
      case (None, Some(e)) => (Some(e), Some(TurnstileStrategy.EdgeSampling))
      case _ => (None, None)
    }
    TurnstileResult(out, strat,
      vertexHit.map(_.size), edgeHit.map(_.size),
      samples.vertexWords, samples.edgeWords, sampledVertices.size, nEdgeSamplers)
  }
}

/** What the samplers of one [[TurnstileND]] shard return: per pre-sampled
  * vertex of the shard, the distinct sampled B-ids; the distinct sampled
  * edges; and the words each bank holds. Shards hold disjoint samplers, so
  * `++` over all shards gives the whole sketch's samples.
  */
final case class TurnstileSamples(vertex: Map[Long, Set[Long]], edges: Set[(Long, Long)],
                                  vertexWords: Long, edgeWords: Long) {
  def ++(o: TurnstileSamples): TurnstileSamples =
    TurnstileSamples(vertex ++ o.vertex, edges ++ o.edges,
      vertexWords + o.vertexWords, edgeWords + o.edgeWords)
}

/** Algorithm 3, sequential build: one-pass c-approximation for Neighborhood
  * Detection(n, d) in insertion-deletion streams (Theorem 5.4). Space
  * Õ(dn/c²) for c ≤ sqrt(n), Õ(sqrt(n)·d/c) beyond; succeeds w.h.p. via
  * vertex sampling when ≥ n/x vertices have degree ≥ d/c (Lemma 5.2), via
  * edge sampling otherwise (Lemma 5.3).
  *
  * Shard `part` of `parts` holds only the vertex banks at positions
  * j ≡ part (mod parts) of A′ and the edge samplers i ≡ part (mod parts);
  * the default is the whole sketch. Every sampler sees the whole stream, so
  * a shard's samplers end in the states the whole sketch's would
  * ([[repro.spark.SparkL0]] builds the shards in parallel).
  */
final class TurnstileND(val config: TurnstileConfig, part: Int = 0, parts: Int = 1) {
  require(parts >= 1 && part >= 0 && part < parts,
    s"shard needs 0 <= part < parts: part=$part, parts=$parts")

  import config._

  private val vertexBank: Map[Long, Array[L0Sampler]] =
    sampledVertices.iterator.zipWithIndex.collect { case (a, j) if j % parts == part =>
      a -> Array.tabulate(samplersPerVertex)(i => newVertexSampler(a, i))
    }.toMap

  private val edgeBank: Array[L0Sampler] =
    Array.range(part, nEdgeSamplers, parts).map(newEdgeSampler)

  /** Feed one turnstile stream event. */
  def process(op: StreamOp): Unit = {
    val a = op.edge.a; val b = op.edge.b
    vertexBank.get(a).foreach { bank =>
      var i = 0
      while (i < bank.length) { bank(i).update(b - 1, op.delta.toLong); i += 1 }
    }
    val coord = edgeCoord(a, b)
    var i = 0
    while (i < edgeBank.length) { edgeBank(i).update(coord, op.delta.toLong); i += 1 }
  }

  def processAll(ops: IterableOnce[StreamOp]): this.type = {
    ops.iterator.foreach(process); this
  }

  /** What this shard's samplers return after the stream ends. */
  def samples: TurnstileSamples = TurnstileSamples(
    vertex      = vertexBank.map { case (a, bank) => a -> bank.iterator.flatMap(_.sample()).map(_ + 1).toSet },
    edges       = edgeBank.iterator.flatMap(_.sample()).map(coordEdge).toSet,
    vertexWords = vertexBank.valuesIterator.map(_.map(_.words).sum).sum,
    edgeWords   = edgeBank.map(_.words).sum)

  /** Query after the stream ends: Algorithm 3's answer when this is the
    * whole sketch (the default shard).
    */
  def result(): TurnstileResult = config.assemble(samples)
}
