package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import scala.collection.concurrent.TrieMap

import repro.Hashing.priority
import repro.core.{FrequentItemReport, InsertionOnlyND, Neighborhood, WitnessRecord}

/** One micro-batch input row: an item occurrence with its witness and the
  * global stream position (events are replayed in `pos` order per key so
  * micro-batch boundaries do not change the collected witness set).
  */
final case class WitnessEvent(item: Long, witness: Long, pos: Long)

/** Per-key operator state: total occurrences seen, plus one witness buffer
  * per threshold run (run i buffers witnesses from occurrence d1(i)
  * onwards, capped at d2 — Algorithm 1's collection rule).
  */
final case class WitnessState(count: Long, buffers: Seq[Seq[Long]])

/** Candidate row emitted each micro-batch (Update mode); the latest row per
  * item is the key's final state.
  */
final case class WitnessCandidate(item: Long, count: Long, buffers: Seq[Seq[Long]])

/** Structured Streaming stateful operator for frequent elements with
  * witnesses (DESIGN.md §4, S8; the band hint's "sketch counters per key
  * with attached witness timestamps, updated per micro-batch").
  *
  * `flatMapGroupsWithState` keeps (count, witness buffers) per item. A key
  * starts buffering witnesses for run i once its count reaches
  * d1(i) = max(1, floor(i*d/c)) and caps the buffer at d2 = floor(d/c).
  * At query end ([[select]]) each run samples as the sequential reservoir.
  *
  * Space modes:
  *  - ungated (gate = 1.0): state for every key crossing d1 — more space
  *    than the sequential reservoir, and the same result as
  *    [[repro.core.FrequentWitness.runDetailed]] for the same seed;
  *  - Bernoulli gate p: run i buffers key k only if its priority is at most
  *    p·2⁶³ — bounded expected state, success probability degrades
  *    gracefully; if every sampled key passes, the report is the ungated
  *    one. (Table 5 measures the tradeoff.)
  */
object StreamingWitness {

  final case class Config(nItems: Long, d: Int, c: Int, seed: Long, gate: Double = 1.0) {
    require(gate > 0 && gate <= 1.0, s"gate must be in (0, 1], got $gate")
    val s: Int = InsertionOnlyND.checkedReservoirSize(nItems, d, c, None)
    val d2: Int = InsertionOnlyND.targetSize(d, c)
    val thresholds: Vector[Int] = Vector.tabulate(c)(i => InsertionOnlyND.threshold(i, d, c))
    /** gate·2⁶³ as a priority bound (the cast saturates at Long.MaxValue). */
    val gateLimit: Long = (gate * Long.MaxValue.toDouble).toLong
  }

  /** The stateful update function: replay this batch's events in stream
    * order, bump the count, append to each run's buffer per the collection
    * rule, emit the refreshed candidate row.
    */
  def updateKey(cfg: Config)(
      item: Long, events: Iterator[WitnessEvent],
      state: GroupState[WitnessState]): Iterator[WitnessCandidate] = {
    val prev = state.getOption.getOrElse(
      WitnessState(0L, Vector.fill(cfg.c)(Vector.empty[Long])))
    var count   = prev.count
    val buffers = prev.buffers.map(_.toVector).toArray
    val gated   = Array.tabulate(cfg.c)(i => priority(cfg.seed, i, item) <= cfg.gateLimit)
    events.toVector.sortBy(_.pos).foreach { ev =>
      count += 1
      var i = 0
      while (i < cfg.c) {
        if (gated(i) && count >= cfg.thresholds(i) && buffers(i).size < cfg.d2)
          buffers(i) = buffers(i) :+ ev.witness
        i += 1
      }
    }
    val next = WitnessState(count, buffers.toVector)
    state.update(next)
    Iterator.single(WitnessCandidate(item, count, next.buffers))
  }

  /** Wire the operator over a streaming Dataset of events. */
  def candidates(events: Dataset[WitnessEvent], cfg: Config): Dataset[WitnessCandidate] = {
    val spark = events.sparkSession
    import spark.implicits._
    events
      .groupByKey(_.item)
      .flatMapGroupsWithState[WitnessState, WitnessCandidate](
        OutputMode.Update, GroupStateTimeout.NoTimeout)(updateKey(cfg))
  }

  /** Final selection over the latest candidate row per item: run i keeps
    * the s least (priority, item) among keys that reached d1(i), as the
    * sequential reservoir does, and reports its least with a full buffer
    * ([[InsertionOnlyND.bottomS]]). A gated-out key still counts among the
    * s, with an empty buffer.
    */
  def select(latest: Seq[WitnessCandidate], cfg: Config): (Option[FrequentItemReport], Vector[Boolean]) = {
    val outcome = Vector.tabulate(cfg.c) { i =>
      val crossers = latest.collect { case k if k.count >= cfg.thresholds(i) =>
        Neighborhood(k.item, k.buffers(i).toVector) }
      InsertionOnlyND.bottomS(i, crossers, cfg.s, cfg.d2, cfg.seed)
        .map(nb => FrequentItemReport(nb.a, nb.neighbors))
    }
    (InsertionOnlyND.pick(outcome, cfg.seed), outcome.map(_.nonEmpty))
  }

  /** min(session shuffle partitions, default parallelism): the partition
    * count of the streaming state and of `SparkDegRes`'s shuffle, since
    * partitions beyond the core count only add per-partition work.
    */
  private[spark] def corePartitions(spark: SparkSession): Int =
    math.min(spark.conf.get(SQLConf.SHUFFLE_PARTITIONS.key).toInt, spark.sparkContext.defaultParallelism)

  /** Runs the stateful query over an in-memory stream and returns the
    * latest candidate row per item: `records` are fed through a MemoryStream
    * in `nBatches` chunks, each processed before the next is added.
    *
    * The query runs with min(session shuffle partitions, default
    * parallelism) state partitions. Every state partition costs a
    * state-store load and commit per micro-batch, even when it holds no
    * keys, so partitions beyond the core count only add work. Spark fixes
    * the count when the query starts, so it is set on the caller's session
    * around `start()` only and the old value is restored afterwards; the
    * query stays on that session, where its listeners see it.
    *
    * Candidates are collected by `foreachBatch`: each batch's Update-mode
    * rows overwrite the driver-side entry of their item, so the map ends
    * holding the latest (largest-count) row per item.
    */
  def latestCandidates(spark: SparkSession, records: Seq[WitnessRecord], nBatches: Int,
                       cfg: Config): Vector[WitnessCandidate] = {
    require(nBatches >= 1, s"nBatches must be >= 1, got $nBatches")
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val source = MemoryStream[WitnessEvent]
    val latest = TrieMap.empty[Long, WitnessCandidate]
    val writer = candidates(source.toDS(), cfg)
      .writeStream
      .outputMode("update")
      .foreachBatch { (batch: Dataset[WitnessCandidate], _: Long) =>
        batch.collect().foreach(c => latest.update(c.item, c))
      }
    val key = SQLConf.SHUFFLE_PARTITIONS.key
    val sessionPartitions = spark.conf.get(key)
    spark.conf.set(key, corePartitions(spark).toLong)
    val query = try writer.start() finally spark.conf.set(key, sessionPartitions)
    try {
      val events = records.zipWithIndex.map { case (r, i) =>
        WitnessEvent(r.item, r.witness, i.toLong)
      }
      val batchSize = math.max(1, math.ceil(events.size.toDouble / nBatches).toInt)
      events.grouped(batchSize).foreach { batch =>
        source.addData(batch)
        query.processAllAvailable()
      }
    } finally query.stop()
    latest.values.toVector
  }

  /** End-to-end micro-batched execution: feed `records` in `nBatches`
    * micro-batches through the stateful query with [[latestCandidates]]
    * (one state partition per core, at most the session's shuffle
    * partitions; candidates gathered by `foreachBatch`), then [[select]]
    * the final report from the latest candidate row per item.
    *
    * @return (report, per-run success flags, number of keys holding state)
    */
  def runMicroBatched(spark: SparkSession, records: Seq[WitnessRecord], nBatches: Int,
                      cfg: Config): (Option[FrequentItemReport], Vector[Boolean], Int) = {
    val latest = latestCandidates(spark, records, nBatches, cfg)
    val (report, succ) = select(latest, cfg)
    (report, succ, latest.count(_.buffers.exists(_.nonEmpty)))
  }
}
