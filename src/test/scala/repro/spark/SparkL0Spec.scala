package repro.spark

import repro.{SparkSpec, SynthGraphs}
import repro.core.StreamOp
import repro.sketch.{TurnstileConfig, TurnstileND}

/** The distributed sketch build must be bit-identical to the sequential
  * Algorithm 3 given the same config: each shard builds its samplers with
  * the whole sketch's seeds and feeds them the whole stream in order, so
  * no sampler's final state can differ. A call is one Spark job of
  * [[VertexPartitions.corePartitions]] tasks, each of which ships its
  * shard's answer, not its samples.
  */
class SparkL0Spec extends SparkSpec {

  private def instance(n: Long, m: Long, d: Int, chaff: Double, seed: Long): Vector[StreamOp] = {
    val (edges, _) = SynthGraphs.plantedStar(n, m, d, maxBg = 3, seed)
    SynthGraphs.turnstileFrom(edges, m, chaff, seed + 1)
  }

  for {
    (c, chaff) <- Seq((2, 0.0), (2, 0.5), (4, 0.3))
  } test(s"Spark build == sequential build (c=$c, chaff=$chaff)") {
    val n = 48L; val m = 192L; val d = 12
    val ops = instance(n, m, d, chaff, seed = 100L * c + (chaff * 10).toInt)
    val cfg = TurnstileConfig(n, m, d, c, seed = 9L * c, cv = 1.0, ce = 0.3, buckets = 6)
    val seqRes   = new TurnstileND(cfg).processAll(ops).result()
    val sparkRes = SparkL0.run(spark, ops, cfg)
    assert(sparkRes == seqRes)
  }

  for (c <- Seq(2, 4)) test(s"one Spark job per call (c=$c)") {
    val n = 48L; val m = 192L; val d = 12
    val ops = instance(n, m, d, 0.3, seed = 60L + c)
    val cfg = TurnstileConfig(n, m, d, c, seed = 61L + c, cv = 1.0, ce = 0.3, buckets = 6)
    assert(jobsOf { SparkL0.run(spark, ops, cfg) } == 1)
  }

  test("a call's one stage runs corePartitions(spark) tasks") {
    val n = 48L; val m = 192L; val d = 12
    val ops = instance(n, m, d, 0.3, seed = 80)
    val cfg = TurnstileConfig(n, m, d, 2, seed = 81, cv = 1.0, ce = 0.3, buckets = 6)
    assert(stageTasksOf { SparkL0.run(spark, ops, cfg) } == Vector(VertexPartitions.corePartitions(spark)))
  }

  test("every task ships under 4 kB at c = 2, where the edge sketch draws every live edge") {
    // A task's result is Spark's task metrics (about 1.3 kB) plus its
    // shard's TurnstileResult: at most two neighborhoods and five counters.
    // A shard's raw samples, the edge sketch's every live edge, took more.
    val n = 64L; val m = 512L; val d = 16
    val (edges, _) = SynthGraphs.uniformPlusPlanted(n, m, d, bg = 8, seed = 5)
    val ops = SynthGraphs.turnstileFrom(edges, m, chaffFraction = 0.3, seed = 6)
    val cfg = TurnstileConfig(n, m, d, 2, seed = 7, cv = 1.0, ce = 0.5, buckets = 6)
    assert(cfg.nEdgeSamplers > SynthGraphs.adjacencyOf(ops).valuesIterator.map(_.size).sum)
    val bytes = taskResultBytesOf { SparkL0.run(spark, ops, cfg) }
    assert(bytes.size == VertexPartitions.corePartitions(spark))
    assert(bytes.forall(_ < 4096), s"task result bytes: $bytes")
  }

  test("Spark build succeeds and validates on a turnstile planted star") {
    val n = 64L; val m = 256L; val d = 16
    val (edges, planted) = SynthGraphs.plantedStar(n, m, d, maxBg = 3, seed = 7)
    val ops = SynthGraphs.turnstileFrom(edges, m, chaffFraction = 0.4, seed = 8)
    val adj = SynthGraphs.adjacencyOf(ops)
    val cfg = TurnstileConfig(n, m, d, 2, seed = 11, cv = 1.0, ce = 0.5, buckets = 6)
    val res = SparkL0.run(spark, ops, cfg)
    assert(res.succeeded)
    val nb = res.output.get
    assert(nb.size >= cfg.samplersPerVertex)
    assert(repro.core.Neighborhood.isValid(nb, adj))
    assert(adj(planted).size == d)
  }

  for ((a, b) <- Seq((0L, 1L), (33L, 1L), (1L, 0L), (1L, 129L)))
    test(s"rejects an edge outside [1, n] × [1, m] before any job (a=$a, b=$b)") {
      val n = 32L; val m = 128L
      val ops = instance(n, m, 8, 0.2, seed = 70) :+ StreamOp(repro.core.Edge(a, b), 1)
      val cfg = TurnstileConfig(n, m, 8, 2, seed = 71, cv = 1.0, ce = 0.3, buckets = 6)
      var e: IllegalArgumentException = null
      assert(jobsOf { e = intercept[IllegalArgumentException](SparkL0.run(spark, ops, cfg)) } == 0)
      if (a < 1 || a > n) assert(e.getMessage.contains(s"a=$a") && e.getMessage.contains(s"n=$n"))
      else assert(e.getMessage.contains(s"b=$b") && e.getMessage.contains(s"m=$m"))
    }

  test("partitioning is irrelevant: different shuffle of ops, same result") {
    val n = 32L; val m = 128L; val d = 8
    val ops = instance(n, m, d, 0.2, seed = 55)
    val cfg = TurnstileConfig(n, m, d, 2, seed = 56, cv = 1.0, ce = 0.3, buckets = 6)
    val shuffled = new scala.util.Random(57).shuffle(ops)
    val r1 = SparkL0.run(spark, ops, cfg)
    val r2 = SparkL0.run(spark, shuffled, cfg)
    assert(r1.output == r2.output && r1.strategy == r2.strategy)
  }
}
