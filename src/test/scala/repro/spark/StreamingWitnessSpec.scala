package repro.spark

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.StreamingQueryListener
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

import repro.{Hashing, Oracle, SparkSpec, SynthGraphs}
import repro.core.{FrequentWitness, WitnessRecord}

/** Tests for the Structured Streaming stateful operator (S8): per-key
  * counts, witness collection rule, micro-batch invariance, final
  * selection equal to the sequential build's, Bernoulli-gate space mode.
  */
class StreamingWitnessSpec extends SparkSpec {

  private def stream(nItems: Long, total: Long, alpha: Double, seed: Long) =
    SynthGraphs.zipfWitnessStream(nItems, total, alpha, seed)

  test("per-key counts equal the true frequencies (oracle-checked)") {
    val (recs, freq) = stream(50, 600, 1.1, seed = 1)
    val d = freq.values.max.toInt
    val cfg = StreamingWitness.Config(nItems = 50, d = d, c = 2, seed = 2)
    import spark.implicits._
    val latest = StreamingWitness.latestCandidates(spark, recs, nBatches = 1, cfg)
    val got = latest.map(c => (c.item, c.count)).toDF("item", "cnt")
    val truth = recs.map(r => (r.item, r.witness)).toDF("item", "witness")
    Oracle.assertEquivalent(
      got.select(col("item"), col("cnt")),
      "SELECT item, count(*) AS cnt FROM truth GROUP BY item",
      "truth" -> truth)
  }

  test("collection rule: buffers hold witnesses from occurrence d1 onward, capped at d2") {
    // One item, 10 occurrences with witnesses 100..1000; d=8, c=2 =>
    // run 0 (d1=1) buffers the first 4 witnesses, run 1 (d1=4) buffers
    // witnesses of occurrences 4..7.
    val recs = (1 to 10).map(i => WitnessRecord(3, i * 100L))
    val cfg = StreamingWitness.Config(nItems = 5, d = 8, c = 2, seed = 4)
    val (report, succ, _) = StreamingWitness.runMicroBatched(spark, recs, nBatches = 3, cfg)
    assert(succ == Vector(true, true))
    assert(report.nonEmpty)
    val w = report.get.witnesses
    assert(w == Vector(100L, 200L, 300L, 400L) || w == Vector(400L, 500L, 600L, 700L),
      s"buffer $w violates the collection rule")
  }

  test("micro-batch boundaries do not change the outcome (1 vs 7 batches)") {
    val (recs, freq) = stream(40, 500, 1.2, seed = 11)
    val d = freq.values.max.toInt
    val cfg = StreamingWitness.Config(nItems = 40, d = d, c = 2, seed = 12)
    val r1 = StreamingWitness.runMicroBatched(spark, recs, nBatches = 1, cfg)
    val r7 = StreamingWitness.runMicroBatched(spark, recs, nBatches = 7, cfg)
    assert(r1._1 == r7._1, "report must be batch-count invariant")
    assert(r1._2 == r7._2, "per-run success must be batch-count invariant")
  }

  test("reported witnesses are true witnesses of a sufficiently frequent item") {
    val (recs, freq) = stream(60, 900, 1.1, seed = 21)
    val d = freq.values.max.toInt
    val cfg = StreamingWitness.Config(nItems = 60, d = d, c = 3, seed = 22)
    val (report, _, _) = StreamingWitness.runMicroBatched(spark, recs, nBatches = 4, cfg)
    assert(report.nonEmpty)
    val r = report.get
    assert(r.witnessCount == cfg.d2)
    val trueW = recs.filter(_.item == r.item).map(_.witness).toSet
    assert(r.witnesses.forall(trueW.contains))
    assert(freq(r.item) >= cfg.d2, "reported item must actually be d/c-frequent")
  }

  test("ungated operator matches the sequential candidate semantics") {
    // Ungated, the operator's sample per run is the sequential reservoir's
    // final set, so report and per-run success equal the sequential build's.
    val (recs, freq) = stream(30, 400, 1.0, seed = 31)
    val d = freq.values.max.toInt
    for (c <- Seq(2, 3)) {
      val cfg = StreamingWitness.Config(nItems = 30, d = d, c = c, seed = 32)
      val (want, seq) = FrequentWitness.runDetailed(recs, 30, d, c, seed = 32)
      for (nBatches <- Seq(1, 5)) {
        val (report, succ, _) = StreamingWitness.runMicroBatched(spark, recs, nBatches, cfg)
        assert(report == want && succ == seq.runSucceeded, s"c=$c nBatches=$nBatches")
      }
    }
  }

  test("a gate above every sampled key's priority leaves the report unchanged") {
    // d = 4: most keys reach both thresholds, so each run's sample of s
    // keys leaves many keys out and the gate below 1 cuts state.
    val (recs, _) = stream(200, 3000, 1.1, seed = 61)
    val full = StreamingWitness.Config(nItems = 200, d = 4, c = 2, seed = 62)
    val latest = StreamingWitness.latestCandidates(spark, recs, 2, full)
    val sampledMax = (0 until full.c).map { i =>
      latest.filter(_.count >= full.thresholds(i))
        .map(k => Hashing.priority(full.seed, i, k.item)).sorted.take(full.s).max
    }.max
    val gate = math.nextUp(sampledMax.toDouble) / Long.MaxValue.toDouble
    assert(gate < 1.0, s"gate $gate must cut some keys")
    val gated = full.copy(gate = gate)
    val (rFull, sFull, stateFull)    = StreamingWitness.runMicroBatched(spark, recs, 2, full)
    val (rGated, sGated, stateGated) = StreamingWitness.runMicroBatched(spark, recs, 2, gated)
    assert(rFull.nonEmpty)
    assert(rGated == rFull && sGated == sFull)
    assert(stateGated < stateFull, s"gate $gate kept $stateGated of $stateFull buffered keys")
  }

  test("Bernoulli gate shrinks state while keeping heavy hitters findable") {
    val (recs, freq) = stream(200, 3000, 1.3, seed = 41)
    val d = freq.values.max.toInt
    val full  = StreamingWitness.Config(nItems = 200, d = d, c = 2, seed = 42, gate = 1.0)
    val gated = StreamingWitness.Config(nItems = 200, d = d, c = 2, seed = 42, gate = 0.3)
    val (rFull, _, stateFull)   = StreamingWitness.runMicroBatched(spark, recs, 3, full)
    val (rGated, _, stateGated) = StreamingWitness.runMicroBatched(spark, recs, 3, gated)
    assert(rFull.nonEmpty)
    assert(stateGated < stateFull, s"gate must shrink buffered keys ($stateGated >= $stateFull)")
    // With gate=0.3 over many candidate keys, some run still succeeds whp.
    rGated.foreach { r =>
      val trueW = recs.filter(_.item == r.item).map(_.witness).toSet
      assert(r.witnesses.forall(trueW.contains))
    }
  }

  test("gate validation") {
    intercept[IllegalArgumentException](
      StreamingWitness.Config(nItems = 10, d = 4, c = 2, seed = 1, gate = 0.0))
    intercept[IllegalArgumentException](
      StreamingWitness.Config(nItems = 10, d = 4, c = 1, seed = 1))
    val cfg = StreamingWitness.Config(nItems = 10, d = 4, c = 2, seed = 1)
    val recs = (1 to 4).map(i => WitnessRecord(1, i.toLong))
    for (n <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](
        StreamingWitness.runMicroBatched(spark, recs, nBatches = n, cfg))
      assert(e.getMessage.contains(s"got $n"))
    }
  }

  test("Config rejects d < 1 as the sequential build does, naming the value") {
    val e = intercept[IllegalArgumentException](
      StreamingWitness.Config(nItems = 10, d = 0, c = 2, seed = 1))
    assert(e.getMessage.contains("degree threshold must be >= 1, got 0"))
  }

  test("state partitions: min(shuffle partitions, default parallelism), session conf restored") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    val expected = math.min(before.toInt, spark.sparkContext.defaultParallelism)
    val seen = new ConcurrentLinkedQueue[Long]()
    val listener = new StreamingQueryListener {
      override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
      override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit =
        e.progress.stateOperators.headOption.foreach(op => seen.add(op.numShufflePartitions))
      override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    }
    val (recs, freq) = stream(20, 200, 1.1, seed = 51)
    val cfg = StreamingWitness.Config(nItems = 20, d = freq.values.max.toInt, c = 2, seed = 52)
    spark.streams.addListener(listener)
    try {
      StreamingWitness.runMicroBatched(spark, recs, nBatches = 2, cfg)
      // Listener events arrive asynchronously; wait for at least one.
      eventually(timeout(Span(30, Seconds))) { assert(!seen.isEmpty) }
    } finally spark.streams.removeListener(listener)
    assert(seen.asScala.toSet == Set(expected.toLong),
      s"state partitions ${seen.asScala.toSet}, expected $expected")
    assert(spark.conf.get(key) == before, "session shuffle partitions must be restored")
  }
}
