package repro.lowerbound

import repro.SparkSpec
import repro.core.Edge

/** Tests executing the paper's lower-bound machinery end-to-end: instance
  * distributions, reduction constructions, and protocol simulations.
  */
class BitVectorLearningSpec extends SparkSpec {

  test("chain sizes follow n^(1-(i-1)/(p-1)) and are nested") {
    val inst = BitVectorLearning.sample(p = 3, r = 8, k = 6, seed = 1)
    assert(inst.n == 64)
    assert(inst.chain.map(_.size) == Vector(64, 8, 1))
    inst.chain.sliding(2).foreach { case Vector(a, b) => assert(b.subsetOf(a)); case _ => }
  }

  test("every party holds a k-bit string exactly for its chain elements") {
    val inst = BitVectorLearning.sample(p = 3, r = 4, k = 5, seed = 2)
    for (i <- 1 to 3; j <- 1L to inst.n) {
      val held = inst.bits.contains((i, j))
      assert(held == inst.chain(i - 1).contains(j))
      if (held) assert(inst.bits((i, j)).size == 5)
    }
  }

  test("Z^j concatenates exactly the strings of parties holding j") {
    val inst = BitVectorLearning.sample(p = 3, r = 4, k = 3, seed = 3)
    val planted = inst.planted
    assert(inst.z(planted).size == 3 * 3) // held by all p parties
    val onlyFirst = (inst.chain(0) -- inst.chain(1)).head
    assert(inst.z(onlyFirst).size == 3)
  }

  test("reduction graph: planted vertex has degree kp; each edge encodes one bit") {
    val inst = BitVectorLearning.sample(p = 3, r = 4, k = 5, seed = 4)
    val all = (1 to 3).flatMap(i => BitVectorLearning.partyEdges(inst, i))
    val degrees = all.groupBy(_.a).map { case (a, es) => a -> es.size }
    assert(degrees(inst.planted) == 5 * 3)
    assert(degrees.values.max == 5 * 3)
    // decode inverts the encoding
    all.foreach { case Edge(a, b) =>
      val (pos, bit) = BitVectorLearning.decode(inst, b)
      val truth = inst.z(a)
      assert(pos >= 1 && pos <= truth.size && truth(pos - 1) == bit,
        s"edge ($a,$b) decoded to wrong bit at $pos")
    }
  }

  for (seed <- 1 to 5) test(s"protocol solves Bit-Vector Learning via the streaming algorithm (seed=$seed)") {
    val inst = BitVectorLearning.sample(p = 3, r = 6, k = 16, seed = 500L + seed)
    val out = BitVectorLearning.simulate(inst, seed = 600L + seed)
    assert(out.wrongBits == 0, s"decoded ${out.wrongBits} wrong bits")
    assert(out.correctBits >= out.targetBits,
      s"recovered ${out.correctBits} < required ${out.targetBits} bits")
  }

  test("protocol rejects p = 2 (no integral c < p/1.01)") {
    val inst = BitVectorLearning.sample(p = 2, r = 8, k = 4, seed = 1)
    intercept[IllegalArgumentException](BitVectorLearning.simulate(inst, 1))
  }

  test("measured state exceeds the information-theoretic floor in the hard regime") {
    // Sanity direction check: the streaming simulation's state (words) is
    // at least the Omega(k n^(1/(p-1)) / p) floor for these parameters.
    val inst = BitVectorLearning.sample(p = 3, r = 8, k = 16, seed = 9)
    val out = BitVectorLearning.simulate(inst, seed = 10)
    val floor = BitVectorLearning.lowerBoundWords(3, inst.n, 16)
    assert(out.stateWords >= floor.toLong,
      s"state ${out.stateWords} below theory floor $floor")
  }
}

class SetDisjointnessRedSpec extends SparkSpec {

  test("instance shapes: disjoint vs uniquely intersecting") {
    val d1 = SetDisjointnessRed.sample(3, 60, 10, seed = 1, intersecting = false)
    assert(d1.sets.combinations(2).forall { case Vector(a, b) => (a & b).isEmpty; case _ => true })
    val d2 = SetDisjointnessRed.sample(3, 60, 10, seed = 2, intersecting = true)
    val common = d2.sets.reduce(_ & _)
    assert(common.size == 1 && common.head == d2.common.get)
  }

  test("construction degrees: k if disjoint, kp at the common element") {
    val k = 4
    val inst = SetDisjointnessRed.sample(3, 40, 6, seed = 3, intersecting = true)
    val edges = (1 to 3).flatMap(i => SetDisjointnessRed.partyEdges(inst, i, k))
    val deg = edges.groupBy(_.a).map { case (a, es) => a -> es.size }
    assert(deg(inst.common.get) == k * 3)
    assert(deg.filterNot(_._1 == inst.common.get).values.forall(_ == k))
  }

  for (seed <- 1 to 5) {
    test(s"decides intersecting instances correctly (seed=$seed)") {
      val inst = SetDisjointnessRed.sample(3, 48, 8, seed = 40L + seed, intersecting = true)
      val dec = SetDisjointnessRed.simulate(inst, k = 8, seed = 50L + seed)
      assert(dec.saidIntersecting, s"output size ${dec.outputSize} <= ${dec.threshold}")
    }
    test(s"decides disjoint instances correctly (seed=$seed)") {
      val inst = SetDisjointnessRed.sample(3, 48, 8, seed = 60L + seed, intersecting = false)
      val dec = SetDisjointnessRed.simulate(inst, k = 8, seed = 70L + seed)
      assert(!dec.saidIntersecting, s"output size ${dec.outputSize} > ${dec.threshold}")
    }
  }

  test("simulate validates parameters") {
    val inst = SetDisjointnessRed.sample(3, 48, 8, seed = 1, intersecting = false)
    intercept[IllegalArgumentException](SetDisjointnessRed.simulate(inst, k = 1, seed = 1))
  }
}

class AugmentedMatrixRowIndexSpec extends SparkSpec {

  test("instance distribution: Bob knows m-k positions of every row but J") {
    val inst = AugmentedMatrixRowIndex.sample(n = 10, m = 12, k = 3, seed = 1)
    assert(!inst.known.contains(inst.j))
    inst.known.foreach { case (_, y) => assert(y.size == 12 - 3) }
    assert(inst.known.size == 9)
  }

  for (seed <- 1 to 3) test(s"protocol recovers the full row X_J (seed=$seed)") {
    val d = 8; val c = 2
    val inst = AugmentedMatrixRowIndex.sample(n = 12, m = 2 * d, k = d / c - 1, seed = 10L + seed)
    val reps = (c * math.log(inst.n.toDouble) * 2).toInt
    val res = AugmentedMatrixRowIndex.runProtocol(inst, d, c, reps, seed = 20L + seed)
    assert(res.recoveredRow.nonEmpty, "protocol must output a row")
    assert(res.correct,
      s"row mismatch: learned ${res.onesLearned} ones / ${res.zerosLearned} zeros, " +
      s"true ones = ${inst.rowOnes(inst.j)}")
  }

  test("protocol requires m = 2d") {
    val inst = AugmentedMatrixRowIndex.sample(n = 6, m = 10, k = 2, seed = 1)
    intercept[IllegalArgumentException](
      AugmentedMatrixRowIndex.runProtocol(inst, d = 8, c = 2, reps = 2, seed = 1))
  }

  test("message size scales like the Theorem 6.4 floor times polylog") {
    val d = 8; val c = 2
    val inst = AugmentedMatrixRowIndex.sample(n = 12, m = 2 * d, k = d / c - 1, seed = 77)
    val res = AugmentedMatrixRowIndex.runProtocol(inst, d, c, reps = 4, seed = 78)
    val floor = AugmentedMatrixRowIndex.lowerBoundWords(inst.n, d, c)
    assert(res.messageWords >= floor.toLong,
      s"protocol words ${res.messageWords} below floor $floor")
  }
}
