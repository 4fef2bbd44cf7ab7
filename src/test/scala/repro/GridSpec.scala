package repro

import repro.core.{Edge, InsertionOnlyND, Neighborhood}
import repro.sketch.{TurnstileConfig, TurnstileND}
import repro.lowerbound.BitVectorLearning
import repro.tables.Table1InsertionOnly

/** Broad parameter-grid suites: every cell is an individual test so a
  * regression pinpoints the exact (family, n, d, c, seed) that broke.
  */
class InsertionOnlyGridSpec extends SparkSpec {
  for {
    d <- Seq(16, 32)
    (family, mk) <- Table1InsertionOnly.families(d)
    n <- Seq(64L, 128L)
    c <- Seq(2, 3)
    seed <- Seq(1L, 2L)
  } test(s"grid $family n=$n d=$d c=$c seed=$seed: valid floor(d/c) output") {
    val (edges, _) = mk(n, 1000 * seed + n + d + c)
    val res = InsertionOnlyND.run(edges, n, d, c, seed = 31 * seed + c)
    assert(res.succeeded, "promise holds so the run must succeed whp")
    val nb = res.output.get
    assert(nb.size == InsertionOnlyND.targetSize(d, c))
    assert(Neighborhood.isValid(nb, SynthGraphs.adjacency(edges)))
    assert(res.totalPeakWords < n * d, "must beat the exact nd baseline")
  }
}

class TurnstileGridSpec extends SparkSpec {
  for {
    c <- Seq(2, 3)
    chaff <- Seq(0.0, 0.4)
    seed <- Seq(1L, 2L, 3L)
  } test(s"turnstile grid c=$c chaff=$chaff seed=$seed: valid output after deletions") {
    val n = 48L; val m = 256L; val d = 12
    val (edges, _) = SynthGraphs.plantedStar(n, m, d, maxBg = 3, seed = 100 * seed + c)
    val ops = SynthGraphs.turnstileFrom(edges, m, chaff, seed = 200 * seed + c)
    val adj = SynthGraphs.adjacencyOf(ops)
    val cfg = TurnstileConfig(n, m, d, c, seed = 300 * seed + c, cv = 1.0, ce = 0.3, buckets = 6)
    val res = new TurnstileND(cfg).processAll(ops).result()
    assert(res.succeeded)
    val nb = res.output.get
    assert(nb.size >= cfg.samplersPerVertex)
    assert(Neighborhood.isValid(nb, adj))
  }

  for (seed <- Seq(7L, 8L)) test(s"turnstile grid: chaff never leaks into outputs (seed=$seed)") {
    val n = 32L; val m = 128L; val d = 8
    val (edges, _) = SynthGraphs.plantedStar(n, m, d, maxBg = 2, seed)
    val ops = SynthGraphs.turnstileFrom(edges, m, chaffFraction = 1.0, seed = seed + 1)
    val finalAdj = SynthGraphs.adjacencyOf(ops)
    val cfg = TurnstileConfig(n, m, d, 2, seed = seed + 2, cv = 2.0, ce = 1.0, buckets = 6)
    val res = new TurnstileND(cfg).processAll(ops).result()
    res.output.foreach(nb => assert(Neighborhood.isValid(nb, finalAdj)))
  }
}

class BitVectorGridSpec extends SparkSpec {
  for {
    r <- Seq(3, 4, 6)
    k <- Seq(4, 8)
    seed <- Seq(1L, 2L)
  } test(s"BVL instance invariants r=$r k=$k seed=$seed") {
    val inst = BitVectorLearning.sample(p = 3, r = r, k = k, seed)
    assert(inst.n == r.toLong * r)
    assert(inst.chain.map(_.size) == Vector(r * r, r, 1))
    inst.chain.sliding(2).foreach { case Vector(a, b) => assert(b.subsetOf(a)); case _ => }
    // graph degrees: k * (number of parties holding the vertex)
    val all = (1 to 3).flatMap(i => BitVectorLearning.partyEdges(inst, i))
    val deg = all.groupBy(_.a).view.mapValues(_.size).toMap
    (1L to inst.n).foreach { j =>
      val parties = (1 to 3).count(i => inst.chain(i - 1).contains(j))
      assert(deg.getOrElse(j, 0) == k * parties)
    }
    // decode round-trips every edge
    all.foreach { e =>
      val (pos, bit) = BitVectorLearning.decode(inst, e.b)
      assert(inst.z(e.a)(pos - 1) == bit)
    }
  }
}

class WitnessGridSpec extends SparkSpec {
  for {
    alpha <- Seq(0.9, 1.2)
    c <- Seq(2, 3)
    seed <- Seq(1L, 2L)
  } test(s"witness grid alpha=$alpha c=$c seed=$seed: valid witness report") {
    val (recs, freq) = SynthGraphs.zipfWitnessStream(150, 2500, alpha, seed * 97)
    val d = freq.values.max.toInt
    val rep = core.FrequentWitness.runDetailed(recs, 150, d, c, seed = seed * 13 + c)._1
    assert(rep.nonEmpty)
    val r = rep.get
    assert(r.witnessCount == math.max(1, d / c))
    assert(Neighborhood.isValid(Neighborhood(r.item, r.witnesses), SynthGraphs.adjacency(recs.map(w => Edge(w.item, w.witness)))))
    assert(freq.getOrElse(r.item, 0L) >= math.max(1, d / c))
  }
}
