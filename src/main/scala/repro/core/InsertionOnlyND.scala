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

  /** Every build's winning run: the successful one of least priority. */
  def pick[A](outcomes: Vector[Option[A]], seed: Long): Option[A] =
    outcomes.indices.filter(outcomes(_).nonEmpty)
      .minByOption(Hashing.priority(seed, -1, _))
      .flatMap(outcomes(_))

  /** Algorithm 2's parameters, checked: c >= 2, d >= 1 and the reservoir
    * size s >= 1, Theorem 3.2's unless `sOverride` gives one for
    * experiments. Every build of Algorithm 2 starts from one.
    *
    * @param n    |A| (number of possible items)
    * @param d    degree threshold >= 1 (promise: some A-vertex has deg >= d)
    * @param c    integral approximation factor >= 2
    * @param seed priority seed: run i samples by Hashing.priority(seed, i, a)
    * @param sOverride reservoir size >= 1 for experiments (None = paper's)
    */
  final case class Params(n: Long, d: Int, c: Int, seed: Long, sOverride: Option[Int] = None) {
    require(c >= 2, s"approximation factor must be >= 2, got $c")
    require(d >= 1, s"degree threshold must be >= 1, got $d")
    val s: Int = sOverride.getOrElse(reservoirSize(n, c))
    require(s >= 1, s"reservoir size must be >= 1, got $s")
    val d2: Int = targetSize(d, c)

    /** Algorithm 2's c runs of Deg-Res-Sampling, new; run i has threshold
      * [[threshold]](i, d, c).
      */
    def runs(): Vector[DegResSampling] =
      Vector.tabulate(c)(i => new DegResSampling(threshold(i, d, c), d2, s, seed, i))

    /** A vertex partition holding new [[runs]]. */
    def partition(): Partition = new Partition(runs())

    /** The result of the c runs over vertex-disjoint partitions, merged.
      * Run i's reservoir is a bottom-s sample by priority, and bottom-s
      * samples merge by union (Cohen–Kaplan bottom-k sketches; Agarwal et
      * al., *Mergeable Summaries*, PODS 2012): of the shards' stored
      * neighborhoods, the s of least ([[Hashing.priority]](seed, i, a), a)
      * are the sequential run's reservoir, and the first of them with d2
      * neighbors is its outcome. So the result equals [[run]]'s on the
      * whole stream, except that run i's peak words are its largest
      * shard's. Degree words add up, as the partitions share no vertex.
      */
    def merge(shards: Seq[Shard]): InsertionOnlyResult = {
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
  }

  /** What the runs of one vertex partition hand to [[Params.merge]]: run
    * i's stored neighborhoods and peak words, and the words of the
    * partition's degree table.
    */
  final case class Shard(stored: Vector[Vector[Neighborhood]], peakWords: Vector[Long],
                         degreeWords: Long)

  /** A vertex partition's runs and the degree table they share: the whole
    * stream in the sequential build, a Spark partition's rows, or a
    * streaming state key's events so far, where it is the operator state.
    */
  final class Partition(val runs: Vector[DegResSampling]) extends Serializable {
    val degrees: DegreeTracker = new DegreeTracker

    /** `runs` by increasing threshold; rebuilt after a read. */
    @transient private lazy val byThreshold: Array[DegResSampling] = runs.sortBy(_.d1).toArray

    /** Feed `edges` in order. An edge goes only to the runs whose threshold
      * d1 is at most its vertex's new degree, as a run does nothing below d1.
      */
    def feed(edges: IterableOnce[Edge]): this.type = {
      val rs = byThreshold
      val r = rs.length
      val it = edges.iterator
      while (it.hasNext) {
        val e = it.next()
        val nd = degrees.bump(e.a)
        var i = 0
        while (i < r && rs(i).d1 <= nd) { rs(i).process(e, nd); i += 1 }
      }
      this
    }

    /** The shard of all the runs, in the order given. */
    def shard: Shard = shard(runs)

    /** The shard of `subset`, some of these runs: Star Detection's guesses
      * share one partition.
      */
    def shard(subset: Vector[DegResSampling]): Shard =
      Shard(subset.map(_.storedNeighborhoods), subset.map(_.peakWords), degrees.words)
  }

  /** Process the whole insertion-only edge stream.
    *
    * @param edges stream of edge insertions (must describe a simple graph)
    * @see [[Params]] for the other parameters
    */
  def run(edges: IterableOnce[Edge], n: Long, d: Int, c: Int, seed: Long,
          sOverride: Option[Int] = None): InsertionOnlyResult = {
    val p = Params(n, d, c, seed, sOverride)
    p.merge(Vector(p.partition().feed(edges).shard))
  }
}
