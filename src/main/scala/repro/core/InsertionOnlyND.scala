package repro.core

import repro.Hashing

/** Outcome of one Algorithm 2 execution, with per-run diagnostics.
  *
  * @param output        the winning run's neighborhood ([[InsertionOnlyND.pick]]),
  *                      if any run succeeded
  * @param runSucceeded  per-run success flags (index i = threshold run i)
  * @param reservoirSize the reservoir size s used by every run
  * @param runPeakWords  peak words per run (edges + reservoir ids)
  * @param degreeWords   words of the shared degree table
  */
final case class InsertionOnlyResult(
    output: Option[Neighborhood],
    runSucceeded: Vector[Boolean],
    reservoirSize: Int,
    runPeakWords: Vector[Long],
    degreeWords: Long,
) {
  def succeeded: Boolean = output.nonEmpty
  def totalPeakWords: Long = degreeWords + runPeakWords.sum
}

/** Algorithm 2: one-pass c-approximation for Neighborhood Detection(n, d)
  * in insertion-only streams (Theorem 3.2).
  *
  * Runs Deg-Res-Sampling(max(1, floor(i*d/c)), floor(d/c), s) in parallel
  * for i = 0 .. c-1 with reservoir size s = ceil(ln(n) * n^(1/c)), and
  * returns the neighborhood of a uniform random successful run. If the
  * input contains an A-vertex of degree >= d the output has size
  * floor(d/c) with probability >= 1 - 1/n, using
  * O(n log n + n^(1/c) d log^2 n) bits.
  *
  * The paper assumes c | d; we use floor(d/c) >= 1 otherwise (documented in
  * DESIGN.md §6).
  */
object InsertionOnlyND {

  /** Reservoir size from Theorem 3.2: s = ceil(n^(1/c) ln n). */
  def reservoirSize(n: Long, c: Int): Int =
    math.max(1, math.ceil(math.pow(n.toDouble, 1.0 / c) * math.log(n.toDouble)).toInt)

  /** Target output size floor(d/c), at least 1. */
  def targetSize(d: Int, c: Int): Int = math.max(1, d / c)

  /** Threshold for run i: max(1, floor(i*d/c)). */
  def threshold(i: Int, d: Int, c: Int): Int = math.max(1, (i.toLong * d / c).toInt)

  /** Every build's parameter check (c >= 2, d >= 1, s >= 1); returns s. */
  def checkedReservoirSize(n: Long, d: Int, c: Int, sOverride: Option[Int]): Int = {
    require(c >= 2, s"approximation factor must be >= 2, got $c")
    require(d >= 1, s"degree threshold must be >= 1, got $d")
    val s = sOverride.getOrElse(reservoirSize(n, c))
    require(s >= 1, s"reservoir size must be >= 1, got $s")
    s
  }

  /** Every build's winning run: the successful one of least priority. */
  def pick[A](outcomes: Vector[Option[A]], seed: Long): Option[A] =
    outcomes.indices.filter(outcomes(_).nonEmpty)
      .minByOption(Hashing.priority(seed, -1, _))
      .flatMap(outcomes(_))

  /** Algorithm 2's c runs of Deg-Res-Sampling; run i has threshold
    * [[threshold]](i, d, c).
    */
  def runs(d: Int, c: Int, s: Int, seed: Long): Vector[DegResSampling] =
    Vector.tabulate(c)(i => new DegResSampling(threshold(i, d, c), targetSize(d, c), s, seed, i))

  /** Feed `edges` in order to every run, sharing one degree table, and
    * return that table: `degrees` when given, to continue a stream, else a
    * new one. The Spark builds call it on each vertex partition.
    */
  def feed(edges: IterableOnce[Edge], runs: Vector[DegResSampling],
           degrees: DegreeTracker = new DegreeTracker): DegreeTracker = {
    val r = runs.length
    val it = edges.iterator
    while (it.hasNext) {
      val e = it.next()
      val nd = degrees.bump(e.a)
      var i = 0
      while (i < r) { runs(i).process(e, nd); i += 1 }
    }
    degrees
  }

  /** What the runs of one vertex partition hand to [[merge]]: run i's
    * stored neighborhoods and peak words, and the words of the partition's
    * degree table.
    */
  final case class Shard(stored: Vector[Vector[Neighborhood]], peakWords: Vector[Long],
                         degreeWords: Long)

  /** The shard of `runs` and the degree table they were fed with. */
  def shard(runs: Vector[DegResSampling], degrees: DegreeTracker): Shard =
    Shard(runs.map(_.storedNeighborhoods), runs.map(_.peakWords), degrees.words)

  /** The result of the c runs over vertex-disjoint partitions, merged.
    * Run i's reservoir is a bottom-s sample by priority, and bottom-s
    * samples merge by union (Cohen–Kaplan bottom-k sketches; Agarwal et
    * al., *Mergeable Summaries*, PODS 2012): of the shards' stored
    * neighborhoods, the s of least ([[Hashing.priority]](seed, i, a), a)
    * are the sequential run's reservoir, and the first of them with d2
    * neighbors is its outcome. So the result equals [[run]]'s on the whole
    * stream, except that run i's peak words are its largest shard's.
    * Degree words add up, as the partitions share no vertex.
    */
  def merge(shards: Seq[Shard], c: Int, s: Int, d2: Int, seed: Long): InsertionOnlyResult = {
    val outcome = Vector.tabulate(c)(i => shards.flatMap(_.stored(i))
      .map(nb => ((Hashing.priority(seed, i, nb.a), nb.a), nb)).sortBy(_._1)
      .take(s).collectFirst { case (_, nb) if nb.size >= d2 => nb })
    InsertionOnlyResult(
      output        = pick(outcome, seed),
      runSucceeded  = outcome.map(_.nonEmpty),
      reservoirSize = s,
      runPeakWords  = Vector.tabulate(c)(i => shards.map(_.peakWords(i)).maxOption.getOrElse(0L)),
      degreeWords   = shards.map(_.degreeWords).sum,
    )
  }

  /** Process the whole insertion-only edge stream.
    *
    * @param edges stream of edge insertions (must describe a simple graph)
    * @param n     |A| (number of possible items)
    * @param d     degree threshold >= 1 (promise: some A-vertex has deg >= d)
    * @param c     integral approximation factor >= 2
    * @param seed  priority seed: run i samples by Hashing.priority(seed, i, a)
    * @param sOverride reservoir size >= 1 for experiments (None = paper's)
    */
  def run(edges: IterableOnce[Edge], n: Long, d: Int, c: Int, seed: Long,
          sOverride: Option[Int] = None): InsertionOnlyResult = {
    val s = checkedReservoirSize(n, d, c, sOverride)
    val rs = runs(d, c, s, seed)
    merge(Vector(shard(rs, feed(edges, rs))), c, s, targetSize(d, c), seed)
  }
}
