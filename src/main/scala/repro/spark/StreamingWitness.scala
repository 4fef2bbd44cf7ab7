package repro.spark

import java.nio.file.{Files, Path}

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.execution.streaming.checkpointing.{FileSystemBasedCheckpointFileManager, OffsetSeqLog}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import scala.collection.concurrent.TrieMap

import repro.core.{DegResSampling, DegreeTracker, Edge, FrequentItemReport, FrequentWitness, InsertionOnlyND,
  WitnessRecord}

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
    * the caller's session around `start()` only (see [[withSessionConf]]);
    * the query stays on that session, where its listeners see it.
    *
    * The checkpoint, always a local (`file:`) directory, is written with
    * Spark's `FileSystemBasedCheckpointFileManager`, set the same way. Its
    * rename on the local filesystem is `File.renameTo`. The default
    * `FileContextBasedCheckpointFileManager` renames through Hadoop's
    * `FileContext`, which without the native Hadoop library starts a
    * `readlink` process for each of 4 paths per checkpoint file written
    * (the temp file, the final file and their `.crc` files): about 100
    * processes a query. Both checksum layers, Hadoop's `.crc` files and
    * Spark's `*.delta.crc` files, are written as before. A query's
    * checkpoint has one writer, and this manager also refuses to
    * overwrite an existing final file.
    *
    * Shards are collected by `foreachBatch`: each batch's Update-mode rows
    * overwrite the driver-side entry of their partition, so the map ends
    * holding each partition's latest shard.
    *
    * @param checkpoint the query's checkpoint directory. By default a
    *   fresh temp directory, deleted after the query stops, also when it
    *   fails. A directory a query has run in before resumes that query:
    *   P is read back from its offset log, and since a MemoryStream starts
    *   at offset 0, the batches the log has planned are added to the source
    *   again before the start, so `records` and `nBatches` must repeat the
    *   earlier call's, extended. Only partitions that receive events after
    *   the restart return a shard.
    */
  def latestShards(spark: SparkSession, records: Seq[WitnessRecord], nBatches: Int,
                   cfg: Config, checkpoint: Option[Path] = None): Vector[InsertionOnlyND.Shard] = {
    require(nBatches >= 1, s"nBatches must be >= 1, got $nBatches")
    val dir = checkpoint.getOrElse(Files.createTempDirectory(TempCheckpointPrefix))
    try runQuery(spark, records, nBatches, cfg, dir, checkpoint.flatMap(resumePoint(spark, _)))
    finally if (checkpoint.isEmpty) FileUtils.deleteDirectory(dir.toFile)
  }

  private def runQuery(spark: SparkSession, records: Seq[WitnessRecord], nBatches: Int,
                       cfg: Config, dir: Path,
                       resumed: Option[(Int, Int)]): Vector[InsertionOnlyND.Shard] = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val events = records.zipWithIndex.map { case (r, i) =>
      WitnessEvent(r.item, r.witness, i.toLong)
    }
    val batchSize = math.max(1, math.ceil(events.size.toDouble / nBatches).toInt)
    val (parts, planned) = resumed.getOrElse((VertexPartitions.corePartitions(spark), 0))
    val (replayed, fresh) = events.grouped(batchSize).toVector.splitAt(planned)
    val source = MemoryStream[WitnessEvent]
    replayed.foreach(source.addData(_))
    val latest = TrieMap.empty[Int, InsertionOnlyND.Shard]
    val writer = shards(source.toDS(), parts, cfg)
      .writeStream
      .outputMode("update")
      .option("checkpointLocation", dir.toUri.toString)
      .foreachBatch { (batch: Dataset[(Int, InsertionOnlyND.Shard)], _: Long) =>
        batch.collect().foreach { case (part, shard) => latest.update(part, shard) }
      }
    val query = withSessionConf(spark, Seq(
      SQLConf.SHUFFLE_PARTITIONS.key -> parts.toString,
      CheckpointFileManagerKey -> classOf[FileSystemBasedCheckpointFileManager].getName,
    ))(writer.start())
    try {
      // A resumed query re-runs a planned batch that was not committed.
      if (replayed.nonEmpty) query.processAllAvailable()
      fresh.foreach { batch =>
        source.addData(batch)
        query.processAllAvailable()
      }
    } finally query.stop()
    latest.values.toVector
  }

  /** Name prefix of the default checkpoint directory. */
  private[spark] val TempCheckpointPrefix = "streaming-witness-checkpoint"

  /** Spark's session key for the streaming checkpoint file manager class. */
  private val CheckpointFileManagerKey = "spark.sql.streaming.checkpointFileManagerClass"

  /** Runs `body` with `settings` set on the session, then puts each key
    * back as it was: its old value, or unset if it was unset.
    */
  private def withSessionConf[T](spark: SparkSession, settings: Seq[(String, String)])(body: => T): T = {
    val set = spark.conf.getAll
    val before = settings.map { case (k, _) => k -> set.get(k) }
    try {
      settings.foreach { case (k, v) => spark.conf.set(k, v) }
      body
    } finally before.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }

  /** The state-partition count and the number of planned batches of the
    * query checkpointed in `dir`, if one has run there.
    */
  private def resumePoint(spark: SparkSession, dir: Path): Option[(Int, Int)] =
    new OffsetSeqLog(spark, dir.resolve("offsets").toUri.toString).getLatest().map {
      case (batchId, offsets) =>
        (offsets.metadata.get.conf(SQLConf.SHUFFLE_PARTITIONS.key).toInt, batchId.toInt + 1)
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
    (FrequentWitness.report(res), res.runSucceeded, res.totalPeakWords)
  }
}
