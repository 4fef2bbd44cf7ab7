package repro.sketch

import repro.Hashing.{priority, splitmix64}
import repro.core.{Neighborhood, StreamOp}

/** Outcome of one turnstile run with diagnostics for Table 4.
  *
  * `vertexHit` / `edgeHit` are each strategy's best neighborhood of at
  * least ⌊d/c⌋ neighbors (the most neighbors, then the least `a`; None =
  * that strategy found none), so the Lemma 5.2 / 5.3 regime split is
  * observable even when both strategies succeed; the output is the larger,
  * vertex sampling winning a tie. `vertexDecodeFailures` counts the vertex
  * sketches that could not decode (a zero vector is not a failure), and
  * `edgeDecodeFailures` is 1 if the edge sketch could not.
  * `sampledVertices` counts the vertex sketches, |A′| for the whole sketch.
  *
  * The shards of one sketch hold disjoint sketches, so `++` over all of
  * their results gives the whole sketch's: the better of each pair of hits,
  * and the sums of the rest.
  */
final case class TurnstileResult(
    vertexHit: Option[Neighborhood],
    edgeHit: Option[Neighborhood],
    vertexSamplerWords: Long,
    edgeSamplerWords: Long,
    sampledVertices: Int,
    vertexDecodeFailures: Int,
    edgeDecodeFailures: Int,
) {
  private def vertexWins: Boolean = vertexHit.exists(v => edgeHit.forall(v.size >= _.size))
  def output: Option[Neighborhood] = if (vertexWins) vertexHit else edgeHit
  def vertexBestSize: Option[Int] = vertexHit.map(_.size)
  def edgeBestSize: Option[Int] = edgeHit.map(_.size)
  def succeeded: Boolean = output.nonEmpty
  def totalWords: Long = vertexSamplerWords + edgeSamplerWords + sampledVertices

  def ++(o: TurnstileResult): TurnstileResult =
    TurnstileResult(
      TurnstileResult.best(vertexHit ++ o.vertexHit), TurnstileResult.best(edgeHit ++ o.edgeHit),
      vertexSamplerWords + o.vertexSamplerWords, edgeSamplerWords + o.edgeSamplerWords,
      sampledVertices + o.sampledVertices,
      vertexDecodeFailures + o.vertexDecodeFailures, edgeDecodeFailures + o.edgeDecodeFailures)
}

object TurnstileResult {
  /** The neighborhood with the most neighbors, then the least `a`. */
  private[sketch] def best(nbs: IterableOnce[Neighborhood]): Option[Neighborhood] =
    nbs.iterator.minByOption(nb => (-nb.size, nb.a))
}

/** Parameterization of Algorithm 3: the pre-sampled vertex set, the sample
  * sizes and every sketch's seed and cells, so that each shard of a
  * [[TurnstileND]] builds its sketches exactly as the whole sketch does.
  *
  * x = max(n/c, sqrt(n)); A' has ~ cv·x·ln n vertices, each with a
  * [[KSampler]] of ⌊d/c⌋ samples over B; plus one [[KSampler]] of
  * ~ ce·(nd/c)(1/x + 1/c)·ln(nm) samples over A×B. The paper's constants
  * (10) are scaled by cv / ce (DESIGN.md §6). A sketch of k samples keeps
  * `buckets`·max(8, ⌈k/2⌉) cells per ring.
  */
final case class TurnstileConfig(n: Long, m: Long, d: Int, c: Int, seed: Long,
                                 cv: Double, ce: Double, buckets: Int) {
  require(c >= 1 && d >= 1 && n >= 1 && m >= 1 && buckets >= 1)
  // The edge sketch's domain n·m and every edgeCoord must fit in a Long.
  require(n <= Long.MaxValue / m, s"n·m must fit in a Long: n=$n, m=$m")

  val x: Double = math.max(n.toDouble / c, math.sqrt(n.toDouble))

  /** Pre-sampled vertex set A': the t = min(n, ⌈cv·x·ln(n+1)⌉) vertices a
    * of least ([[repro.Hashing.priority]](seed, -2, a), a), a uniform
    * t-subset of [1, n], in that order.
    */
  val sampledVertices: Vector[Long] = {
    val t = math.min(n, math.max(1L, math.ceil(cv * x * math.log(n.toDouble + 1)).toLong))
    (1L to n).sortBy(a => (priority(seed, -2, a), a)).take(t.toInt).toVector
  }

  /** Samples each vertex sketch draws (its k): ⌊d/c⌋, at least 1, also
    * the least size of an answer.
    */
  val samplersPerVertex: Int = math.max(1, d / c)

  /** Samples the edge sketch draws (its k). */
  val nEdgeSamplers: Int = math.max(1, math.ceil(
    ce * (n.toDouble * d / c) * (1.0 / x + 1.0 / c) * math.log(n.toDouble * m + 1)).toInt)

  /** IBLT cells per ring of a sketch that draws k samples. */
  def cellsFor(k: Int): Int = buckets * math.max(8, (k + 1) / 2)

  /** Seed of vertex a's sketch; the edge sketch's is `samplerSeed(0)`. */
  private def samplerSeed(a: Long): Long = splitmix64(splitmix64(seed) + a)

  def newVertexSampler(a: Long): KSampler =
    new KSampler(m, samplerSeed(a), samplersPerVertex, cellsFor(samplersPerVertex))
  def newEdgeSampler(): KSampler =
    new KSampler(n * m, samplerSeed(0), nEdgeSamplers, cellsFor(nEdgeSamplers))

  /** The input contract of a stream op's edge (a, b). */
  def requireEdge(a: Long, b: Long): Unit = {
    require(a >= 1 && a <= n, s"vertex id a=$a out of [1, n=$n]")
    require(b >= 1 && b <= m, s"neighbor id b=$b out of [1, m=$m]")
  }

  /** Edge (a, b) as a coordinate of the A×B domain. */
  def edgeCoord(a: Long, b: Long): Long = (a - 1) * m + (b - 1)
  def coordEdge(coord: Long): (Long, Long) = (coord / m + 1, coord % m + 1)
}

/** Algorithm 3, sequential build: one-pass c-approximation for Neighborhood
  * Detection(n, d) in insertion-deletion streams (Theorem 5.4). Space
  * Õ(dn/c²) for c ≤ sqrt(n), Õ(sqrt(n)·d/c) beyond; succeeds w.h.p. via
  * vertex sampling when ≥ n/x vertices have degree ≥ d/c (Lemma 5.2), via
  * edge sampling otherwise (Lemma 5.3).
  *
  * Shard `part` of `parts` holds only the vertex sketches at positions
  * j ≡ part (mod parts) of A′, and shard 0 also the edge sketch; the
  * default is the whole sketch. Every sketch sees the whole stream, so a
  * shard's sketches end in the states the whole sketch's would, and the
  * shards' results combine with `++` to the whole sketch's
  * ([[repro.spark.SparkL0]] builds the shards in parallel).
  */
final class TurnstileND(val config: TurnstileConfig, part: Int = 0, parts: Int = 1) {
  require(parts >= 1 && part >= 0 && part < parts,
    s"shard needs 0 <= part < parts: part=$part, parts=$parts")

  import config._

  private val vertexBank: Map[Long, KSampler] =
    sampledVertices.iterator.zipWithIndex.collect { case (a, j) if j % parts == part =>
      a -> newVertexSampler(a)
    }.toMap

  private val edgeSampler: Option[KSampler] = Option.when(part == 0)(newEdgeSampler())

  /** Feed one turnstile stream event; its edge must lie in [1, n] × [1, m]. */
  def process(op: StreamOp): Unit = {
    val a = op.edge.a; val b = op.edge.b
    requireEdge(a, b)
    val delta = op.delta.toLong
    vertexBank.get(a).foreach(_.update(b - 1, delta))
    edgeSampler.foreach(_.update(edgeCoord(a, b), delta))
  }

  def processAll(ops: IterableOnce[StreamOp]): this.type = {
    ops.iterator.foreach(process); this
  }

  /** Query after the stream ends: each strategy's best neighborhood of at
    * least ⌊d/c⌋ sampled neighbors, over this shard's sketches; Algorithm
    * 3's answer when this is the whole sketch (the default shard).
    */
  def result(): TurnstileResult = {
    val vertex = vertexBank.toVector.map { case (a, s) => a -> s.sample() }
    val edges = edgeSampler.map(_.sample())
    def drawn(r: KSample): Vector[Long] = r match {
      case KSample.Drawn(xs) => xs
      case _                 => Vector.empty
    }
    // Sampled coordinates are distinct, so each neighbor list is too.
    def hit(nbrs: Iterator[(Long, Vector[Long])]): Option[Neighborhood] =
      TurnstileResult.best(nbrs.collect {
        case (a, bs) if bs.size >= samplersPerVertex => Neighborhood(a, bs.sorted)
      })
    TurnstileResult(
      vertexHit            = hit(vertex.iterator.map { case (a, r) => a -> drawn(r).map(_ + 1) }),
      edgeHit              = hit(edges.toVector.flatMap(drawn).map(coordEdge).groupMap(_._1)(_._2).iterator),
      vertexSamplerWords   = vertexBank.valuesIterator.map(_.words).sum,
      edgeSamplerWords     = edgeSampler.fold(0L)(_.words),
      sampledVertices      = vertexBank.size,
      vertexDecodeFailures = vertex.count(_._2 == KSample.Failed),
      edgeDecodeFailures   = edges.count(_ == KSample.Failed))
  }
}
