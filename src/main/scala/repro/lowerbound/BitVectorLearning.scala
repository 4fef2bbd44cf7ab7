package repro.lowerbound

import scala.util.Random

import repro.core.{Edge, InsertionOnlyND}

/** Problem 4: the p-party one-way game Bit-Vector Learning(p, n, k), and
  * the reduction (Theorem 4.8) that turns any c-approximation streaming
  * algorithm for Neighborhood Detection into a protocol for it.
  *
  * Instance distribution: X_1 = [n]; X_i is a uniform random subset of
  * X_{i-1} of size n^(1-(i-1)/(p-1)) (we require n = r^(p-1) so the chain
  * is integral, matching the paper's Baranyai-theorem restriction); party i
  * holds a uniform k-bit string Y_i^j for every j in X_i. The last party
  * must output an index I and at least 1.01k bits of the concatenation Z^I.
  *
  * The reduction builds G = ([n], [2kp], ∪E_i) with
  * E_i = {(ℓ, 2k(i-1) + 2(j-1) + Y_i^ℓ[j] + 1) : ℓ ∈ X_i, j ∈ [k]}; the
  * planted vertex (the single element of X_p) has degree Δ = kp, and every
  * reported neighbor decodes one bit of Z^I.
  */
object BitVectorLearning {

  final case class Instance(p: Int, n: Long, k: Int,
                            chain: Vector[Set[Long]],
                            bits: Map[(Int, Long), Vector[Boolean]]) {
    /** Z^j: concatenation of Y_i^j over the parties holding j. */
    def z(j: Long): Vector[Boolean] =
      (1 to p).iterator.flatMap(i => bits.get((i, j)).getOrElse(Vector.empty)).toVector

    /** The unique element of X_p (the planted max-degree vertex). */
    def planted: Long = chain.last.head
  }

  /** Sample an instance; n must equal r^(p-1) for some integer r >= 2. */
  def sample(p: Int, r: Int, k: Int, seed: Long): Instance = {
    require(p >= 2 && r >= 2 && k >= 1)
    val n   = math.pow(r.toDouble, (p - 1).toDouble).round
    val rng = new Random(seed)
    val chain = Vector.iterate((1L to n).toSet, p) { prev =>
      val size = prev.size / r
      rng.shuffle(prev.toVector).take(size).toSet
    }
    val bits = (for {
      i <- 1 to p
      j <- chain(i - 1)
    } yield (i, j) -> Vector.fill(k)(rng.nextBoolean())).toMap
    Instance(p, n, k, chain, bits)
  }

  /** Party i's edge set under the Theorem 4.8 construction. */
  def partyEdges(inst: Instance, i: Int): Vector[Edge] =
    (for {
      l <- inst.chain(i - 1).toVector.sorted
      j <- 1 to inst.k
    } yield {
      val bit = if (inst.bits((i, l))(j - 1)) 1 else 0
      Edge(l, 2L * inst.k * (i - 1) + 2L * (j - 1) + bit + 1)
    })

  /** Decode a reported neighbor b of vertex `a` back into (bit position in
    * Z^a, bit value). Positions are 1-based in the concatenation order.
    */
  def decode(inst: Instance, b: Long): (Int, Boolean) = {
    val i   = ((b - 1) / (2 * inst.k)).toInt + 1 // owning party
    val j   = (((b - 1) % (2 * inst.k)) / 2).toInt + 1
    val bit = ((b - 1) % 2) == 1
    ((i - 1) * inst.k + j, bit)
  }

  final case class ProtocolOutcome(
      index: Long,
      correctBits: Int,
      wrongBits: Int,
      targetBits: Int, // 1.01k rounded up
      stateWords: Long, // streaming-algorithm space = message size
  ) {
    def solved: Boolean = wrongBits == 0 && correctBits >= targetBits
  }

  /** Simulate the one-way protocol: the parties stream their edge sets
    * through the insertion-only algorithm (party order = stream order,
    * memory state = message), then decode the output neighborhood.
    *
    * Uses c = p - 1 (the largest integral c with d/c = kp/(p-1) >= 1.01k
    * for p <= 101), per Theorem 4.8's c = p/1.01 parameterization.
    */
  def simulate(inst: Instance, seed: Long): ProtocolOutcome = {
    require(inst.p >= 3, "integral c < p/1.01 needs p >= 3")
    val c = inst.p - 1
    val d = inst.k * inst.p
    val stream = (1 to inst.p).iterator.flatMap(i => partyEdges(inst, i))
    val res = InsertionOnlyND.run(stream, inst.n, d, c, seed)
    res.output match {
      case None =>
        ProtocolOutcome(-1L, 0, 0,
          math.ceil(1.01 * inst.k).toInt, res.totalPeakWords)
      case Some(nb) =>
        val truth = inst.z(nb.a)
        val decoded = nb.neighbors.map(decode(inst, _)).toMap
        val (ok, bad) = decoded.partition { case (pos, v) =>
          pos >= 1 && pos <= truth.size && truth(pos - 1) == v
        }
        ProtocolOutcome(nb.a, ok.size, bad.size,
          math.ceil(1.01 * inst.k).toInt, res.totalPeakWords)
    }
  }

  /** The Theorem 4.7 lower bound Ω(k n^(1/(p-1)) / p) in words (log-factor
    * suppressed), for diffing against measured state size.
    */
  def lowerBoundWords(p: Int, n: Long, k: Int): Double =
    k * math.pow(n.toDouble, 1.0 / (p - 1)) / p
}
