package repro.lowerbound

import scala.collection.mutable
import scala.util.Random

import repro.core.{Edge, StreamOp}
import repro.sketch.{TurnstileConfig, TurnstileND}

/** Problem 5 + Lemma 6.3: the two-party Augmented-Matrix-Row-Index game and
  * the permutation protocol that solves it with a c-approximation turnstile
  * algorithm for Neighborhood Detection — the engine of the Ω(nd/(c²log n))
  * lower bound (Theorem 6.4).
  *
  * Instance: Alice holds a uniform X ∈ {0,1}^{n×m}; Bob holds a uniform
  * J ∈ [n] and, for every row i ≠ J, a uniform (m-k)-subset Y_i of known
  * positions with their values. Bob must output the entire row X_J.
  *
  * Protocol (per repetition): both parties draw public random row
  * permutations π_i; Alice streams insertions of the permuted 1-entries
  * through the turnstile algorithm and "sends the memory state"; Bob
  * continues with deletions of the 1-entries he knows (rows ≠ J only).
  * After the deletions every row except J holds ≤ k = d/c - 1 ones, so the
  * reported neighborhood is rooted at J and reveals d/c 1-positions of row
  * J; Θ(c log n) repetitions reveal them all. The mirrored run on the
  * bit-inverted matrix covers rows with < d ones and reveals the
  * 0-positions; Bob decides which case applies by whether the first run
  * recovered ≥ d ones.
  */
object AugmentedMatrixRowIndex {

  final case class Instance(n: Int, m: Int, k: Int,
                            x: Array[Array[Boolean]], j: Int,
                            known: Map[Int, Set[Int]]) {
    def rowOnes(i: Int): Int = x(i - 1).count(identity)
  }

  /** Sample from the Problem 5 distribution (rows/cols 1-based). */
  def sample(n: Int, m: Int, k: Int, seed: Long): Instance = {
    require(k >= 1 && k < m)
    val rng = new Random(seed)
    val x   = Array.fill(n, m)(rng.nextBoolean())
    val j   = rng.nextInt(n) + 1
    val known = (1 to n).filter(_ != j).map { i =>
      i -> rng.shuffle((1 to m).toVector).take(m - k).toSet
    }.toMap
    Instance(n, m, k, x, j, known)
  }

  final case class ProtocolResult(
      recoveredRow: Option[Vector[Boolean]],
      correct: Boolean,
      onesLearned: Int,
      zerosLearned: Int,
      messageWords: Long, // total sketch words over all repetitions
      repetitions: Int,
  )

  /** One repetition of the core protocol on (possibly inverted) bits:
    * returns the positions of row J learned to hold `true`.
    */
  private def oneRep(inst: Instance, invert: Boolean, c: Int, d: Int,
                     rng: Random, seed: Long): (Set[Int], Long) = {
    val n = inst.n; val m = inst.m
    def bit(i: Int, j: Int): Boolean = inst.x(i - 1)(j - 1) ^ invert
    val perms: Map[Int, Vector[Int]] =
      (1 to n).map(i => i -> rng.shuffle((1 to m).toVector)).toMap
    // Bob maps only row J's permuted columns back to their columns.
    val invJ = perms(inst.j).zipWithIndex.map { case (col, idx) => (col, idx + 1) }.toMap
    // Alice: insert permuted 1-entries of every row.
    val inserts = for {
      i <- (1 to n).iterator; j <- (1 to m).iterator if bit(i, j)
    } yield StreamOp(Edge(i.toLong, perms(i)(j - 1).toLong), 1)
    // Bob: delete the 1-entries he knows in rows != J.
    val deletes = for {
      i <- (1 to n).iterator if i != inst.j
      j <- inst.known(i).iterator if bit(i, j)
    } yield StreamOp(Edge(i.toLong, perms(i)(j - 1).toLong), -1)
    // The whole of Algorithm 3, both banks, at cv = ce = 1.0: Lemma 6.3
    // needs only some c-approximation over the residual graph, and either
    // bank may report row J.
    val alg = new TurnstileND(TurnstileConfig(n.toLong, m.toLong, d, c,
      seed ^ rng.nextLong(), cv = 1.0, ce = 1.0, buckets = 6))
    alg.processAll(inserts ++ deletes)
    val res = alg.result()
    val learned = res.output match {
      case Some(nb) if nb.a == inst.j.toLong =>
        nb.neighbors.flatMap(b => invJ.get(b.toInt)).toSet
      case _ => Set.empty[Int]
    }
    (learned, res.totalWords)
  }

  /** Run the full Lemma 6.3 protocol for Neighborhood Detection(n, d) with
    * approximation c on an Augmented-Matrix-Row-Index(n, 2d, d/c - 1)
    * instance (the caller must supply m = 2d and k = d/c - 1).
    *
    * @param reps repetitions per variant (paper: Θ(c log n); constant
    *             scaled for execution, recorded per table row)
    */
  def runProtocol(inst: Instance, d: Int, c: Int, reps: Int, seed: Long): ProtocolResult = {
    require(inst.m == 2 * d, s"AMRI reduction needs m = 2d (m=${inst.m}, d=$d)")
    val rng = new Random(seed)
    var words = 0L
    val ones  = mutable.HashSet.empty[Int]
    val zeros = mutable.HashSet.empty[Int]
    (1 to reps).foreach { _ =>
      val (o, w1) = oneRep(inst, invert = false, c, d, rng, seed)
      ones ++= o; words += w1
      val (z, w2) = oneRep(inst, invert = true, c, d, rng, seed)
      zeros ++= z; words += w2
    }
    // Decide the case: >= d ones recovered => row J had >= d ones and the
    // un-inverted runs are trustworthy; otherwise trust the inverted runs.
    val row: Option[Vector[Boolean]] =
      if (ones.size >= d) Some(Vector.tabulate(inst.m)(j0 => ones.contains(j0 + 1)))
      else if (zeros.size >= d) Some(Vector.tabulate(inst.m)(j0 => !zeros.contains(j0 + 1)))
      else None
    val correct = row.exists(r =>
      r.zipWithIndex.forall { case (v, j0) => v == inst.x(inst.j - 1)(j0) })
    ProtocolResult(row, correct, ones.size, zeros.size, words, reps)
  }

  /** Theorem 6.4 bound Ω(nd / (c² log n)) in words, for diffing. */
  def lowerBoundWords(n: Long, d: Int, c: Int): Double =
    n.toDouble * d / (c.toDouble * c * math.log(n.toDouble + 1))
}
