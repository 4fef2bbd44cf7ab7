package repro.core

/** Result of Star Detection: best star found plus per-guess diagnostics.
  * `totalPeakWords` charges the shared degree table once plus every run's
  * peak, as [[InsertionOnlyResult.totalPeakWords]] does.
  */
final case class StarResult(
    output: Option[Neighborhood],
    guesses: Vector[Int],
    perGuessSize: Vector[Int],
    totalPeakWords: Long,
)

/** Corollary 3.3: semi-streaming O(log n)-approximation for Star Detection
  * in insertion-only streams.
  *
  * The general graph G = (V, E) is doubled into the bipartite H = (V, V, E')
  * with uv contributing both uv and vu. We run the insertion-only
  * Neighborhood Detection algorithm in parallel for geometric guesses
  * Delta' in {1, (1+eps), (1+eps)^2, ...} of the maximum degree and return
  * the largest neighborhood found. The guess just below Delta yields a star
  * of size >= Delta / ((1+eps) c); with c = ceil(log n) this is the
  * corollary's semi-streaming O(log n)-approximation.
  */
object StarDetection {

  /** Geometric guesses 1, (1+eps), ..., covering degrees up to n. */
  def guessLadder(n: Long, eps: Double): Vector[Int] = {
    require(eps > 0, "eps must be positive")
    val b = Vector.newBuilder[Int]
    var g = 1.0
    var last = 0
    while (g <= n.toDouble * (1 + eps)) {
      val gi = math.max(1, math.ceil(g).toInt)
      if (gi != last) { b += gi; last = gi }
      g *= (1 + eps)
    }
    b.result()
  }

  /** Run on an undirected edge stream (each pair (u, v) doubled internally).
    *
    * @param undirected stream of undirected edges as (u, v) pairs
    * @param n    |V|
    * @param c    per-guess approximation factor >= 2 (Corollary 3.3: ceil(log n))
    * @param eps  geometric ladder step
    * @param seed priority seed of the first guess's runs; guess g's is seed + g
    */
  def run(undirected: IterableOnce[(Long, Long)], n: Long, c: Int, eps: Double,
          seed: Long): StarResult = {
    val guesses = guessLadder(n, eps)
    val s = InsertionOnlyND.checkedReservoirSize(n, d = guesses.head, c, sOverride = None)
    // Algorithm 2's c runs per guess g, seeded seed + g, all fed the
    // doubled stream; every guess sees the same degrees, so one degree
    // table serves them all.
    val runsPerGuess = guesses.zipWithIndex.map { case (dGuess, g) =>
      InsertionOnlyND.runs(dGuess, c, s, seed + g)
    }
    val doubled = undirected.iterator.flatMap { case (u, v) => Iterator(Edge(u, v), Edge(v, u)) }
    val degrees = InsertionOnlyND.feed(doubled, runsPerGuess.flatten)
    val perGuess = runsPerGuess.zip(guesses).zipWithIndex.map { case ((runs, dGuess), g) =>
      InsertionOnlyND.merge(Vector(InsertionOnlyND.shard(runs, degrees)), c, s,
        InsertionOnlyND.targetSize(dGuess, c), seed + g)
    }
    StarResult(
      output       = perGuess.flatMap(_.output).maxByOption(_.size),
      guesses      = guesses,
      perGuessSize = perGuess.map(_.output.fold(0)(_.size)),
      totalPeakWords = degrees.words + perGuess.map(_.runPeakWords.sum).sum,
    )
  }
}
