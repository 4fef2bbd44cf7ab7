package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import scala.collection.concurrent.TrieMap

import repro.core.{DegResSampling, DegreeTracker, Edge, FrequentItemReport, InsertionOnlyND, WitnessRecord}

/** One micro-batch input row: an item occurrence with its witness and the
  * global stream position (events are replayed in `pos` order per state
  * partition so micro-batch boundaries do not change the sample).
  */
final case class WitnessEvent(item: Long, witness: Long, pos: Long)

/** Structured Streaming stateful operator for frequent elements with
  * witnesses (DESIGN.md §4, S8; the band hint's "sketch counters per key
  * with attached witness timestamps, updated per micro-batch").
  *
  * It is [[SparkDegRes]]'s kernel kept across micro-batches.
  * `flatMapGroupsWithState` is keyed by the item's vertex partition
  * ([[VertexPartitions.partitionOf]]), and the state of each key is
  * Algorithm 2's c runs ([[InsertionOnlyND.runs]]) with their degree
  * table. Each batch feeds a key's events to its runs in stream order
  * ([[InsertionOnlyND.feed]]) and emits the partition's
  * [[InsertionOnlyND.Shard]]; the latest shards merge into the sequential
  * build's result ([[InsertionOnlyND.merge]]). State is at most P·c·s
  * neighborhoods of at most ⌊d/c⌋ witnesses, P the state partitions, plus
  * the degree table.
  */
object StreamingWitness {

  final case class Config(nItems: Long, d: Int, c: Int, seed: Long) {
    val s: Int = InsertionOnlyND.checkedReservoirSize(nItems, d, c, None)
    val d2: Int = InsertionOnlyND.targetSize(d, c)
  }

  /** A state partition's runs and their shared degree table. */
  private type PartitionState = (Vector[DegResSampling], DegreeTracker)

  /** The stateful update function: feed this batch's events of partition
    * `part` to its runs in stream order, emit the partition's shard.
    */
  private def updatePartition(cfg: Config)(
      part: Int, events: Iterator[WitnessEvent],
      state: GroupState[PartitionState]): Iterator[(Int, InsertionOnlyND.Shard)] = {
    val (runs, degrees) = state.getOption.getOrElse(
      (InsertionOnlyND.runs(cfg.d, cfg.c, cfg.s, cfg.seed), new DegreeTracker))
    InsertionOnlyND.feed(events.toVector.sortBy(_.pos).map(ev => Edge(ev.item, ev.witness)),
      runs, degrees)
    state.update((runs, degrees))
    Iterator.single((part, InsertionOnlyND.shard(runs, degrees)))
  }

  /** Wire the operator over a streaming Dataset of events, with `parts`
    * state keys.
    */
  private def shards(events: Dataset[WitnessEvent], parts: Int,
                     cfg: Config): Dataset[(Int, InsertionOnlyND.Shard)] = {
    val spark = events.sparkSession
    import spark.implicits._
    implicit val stateEncoder: Encoder[PartitionState] = Encoders.javaSerialization[PartitionState]
    events
      .groupByKey(ev => VertexPartitions.partitionOf(ev.item, parts))
      .flatMapGroupsWithState[PartitionState, (Int, InsertionOnlyND.Shard)](
        OutputMode.Update, GroupStateTimeout.NoTimeout)(updatePartition(cfg))
  }

  /** Runs the stateful query over an in-memory stream and returns the
    * latest shard of each state partition: `records` are fed through a
    * MemoryStream in `nBatches` chunks, each processed before the next is
    * added.
    *
    * The query runs with P = [[VertexPartitions.corePartitions]] state
    * partitions, and P is also the number of state keys. Every state
    * partition costs a state-store load and commit per micro-batch, even
    * when it holds no keys, so partitions beyond the core count only add
    * work. Spark fixes the count when the query starts, so it is set on
    * the caller's session around `start()` only and the old value is
    * restored afterwards; the query stays on that session, where its
    * listeners see it.
    *
    * Shards are collected by `foreachBatch`: each batch's Update-mode rows
    * overwrite the driver-side entry of their partition, so the map ends
    * holding each partition's latest shard.
    */
  def latestShards(spark: SparkSession, records: Seq[WitnessRecord], nBatches: Int,
                   cfg: Config): Vector[InsertionOnlyND.Shard] = {
    require(nBatches >= 1, s"nBatches must be >= 1, got $nBatches")
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val source = MemoryStream[WitnessEvent]
    val latest = TrieMap.empty[Int, InsertionOnlyND.Shard]
    val parts = VertexPartitions.corePartitions(spark)
    val writer = shards(source.toDS(), parts, cfg)
      .writeStream
      .outputMode("update")
      .foreachBatch { (batch: Dataset[(Int, InsertionOnlyND.Shard)], _: Long) =>
        batch.collect().foreach { case (part, shard) => latest.update(part, shard) }
      }
    val key = SQLConf.SHUFFLE_PARTITIONS.key
    val sessionPartitions = spark.conf.get(key)
    spark.conf.set(key, parts.toLong)
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
    * micro-batches through the stateful query with [[latestShards]], then
    * merge the shards ([[InsertionOnlyND.merge]]).
    *
    * @return (report, per-run success flags, the merged result's
    *         `totalPeakWords`)
    */
  def runMicroBatched(spark: SparkSession, records: Seq[WitnessRecord], nBatches: Int,
                      cfg: Config): (Option[FrequentItemReport], Vector[Boolean], Long) = {
    val res = InsertionOnlyND.merge(latestShards(spark, records, nBatches, cfg),
      cfg.c, cfg.s, cfg.d2, cfg.seed)
    (res.output.map(nb => FrequentItemReport(nb.a, nb.neighbors)), res.runSucceeded,
      res.totalPeakWords)
  }
}
