package repro.spark

import java.nio.file.{Files, Path}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

import jdk.jfr.Recording
import jdk.jfr.consumer.RecordingFile
import org.apache.hadoop.util.NativeCodeLoader
import org.apache.spark.TestBus
import org.apache.spark.sql.execution.streaming.checkpointing.FileContextBasedCheckpointFileManager
import org.apache.spark.sql.streaming.{StreamingQueryException, StreamingQueryListener}

import repro.{Oracle, SparkSpec, SynthGraphs}
import repro.core.{Edge, FrequentWitness, InsertionOnlyND, Neighborhood, WitnessRecord}

/** Tests for the Structured Streaming stateful operator (S8): per-key
  * counts, witness collection rule, micro-batch invariance, final
  * selection equal to the sequential build's, state within P·c·s
  * neighborhoods, restart from a checkpoint, checkpoint writes without a
  * process per file, the caller's session left as found.
  */
class StreamingWitnessSpec extends SparkSpec {

  private def stream(nItems: Long, total: Long, alpha: Double, seed: Long) =
    SynthGraphs.zipfWitnessStream(nItems, total, alpha, seed)

  test("per-key counts equal the true frequencies (oracle-checked)") {
    // Every stored neighborhood of run i is the key's witnesses from its
    // d1(i)-th occurrence on, capped at d2, so its size pins the key's
    // count; the degree tables hold each item once.
    val (recs, freq) = stream(50, 600, 1.1, seed = 1)
    val d = freq.values.max.toInt
    val cfg = InsertionOnlyND.Params(n = 50, d = d, c = 2, seed = 2)
    import spark.implicits._
    val shards = StreamingWitness.latestShards(spark, recs, nBatches = 3, cfg)
    val truth = recs.map(r => (r.item, r.witness)).toDF("item", "witness")
    val stored = for (sh <- shards; i <- 0 until cfg.c; nb <- sh.stored(i))
      yield (i, nb.a, nb.size.toLong)
    assert(stored.nonEmpty)
    val d1 = (0 until cfg.c).map(i => s"WHEN $i THEN ${InsertionOnlyND.threshold(i, d, cfg.c)}")
    Oracle.assertEquivalent(
      stored.toDF("run", "item", "size"),
      s"""SELECT s.run, s.item,
         |  least(${cfg.d2}, t.cnt - CASE CAST(s.run AS INTEGER) ${d1.mkString(" ")} END + 1) AS size
         |FROM stored s JOIN (SELECT item, count(*) AS cnt FROM truth GROUP BY item) t
         |  ON s.item = t.item""".stripMargin,
      "truth" -> truth, "stored" -> stored.map(x => (x._1, x._2)).toDF("run", "item"))
    Oracle.assertEquivalent(
      Seq(shards.map(_.degreeWords).sum).toDF("n"),
      "SELECT count(DISTINCT item) AS n FROM truth",
      "truth" -> truth)
  }

  test("collection rule: buffers hold witnesses from occurrence d1 onward, capped at d2") {
    // One item, 10 occurrences with witnesses 100..1000; d=8, c=2 =>
    // run 0 (d1=1) buffers the first 4 witnesses, run 1 (d1=4) buffers
    // witnesses of occurrences 4..7.
    val recs = (1 to 10).map(i => WitnessRecord(3, i * 100L))
    val cfg = InsertionOnlyND.Params(n = 5, d = 8, c = 2, seed = 4)
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
    val cfg = InsertionOnlyND.Params(n = 40, d = d, c = 2, seed = 12)
    val r1 = StreamingWitness.runMicroBatched(spark, recs, nBatches = 1, cfg)
    val r7 = StreamingWitness.runMicroBatched(spark, recs, nBatches = 7, cfg)
    assert(r1._1 == r7._1, "report must be batch-count invariant")
    assert(r1._2 == r7._2, "per-run success must be batch-count invariant")
  }

  test("reported witnesses are true witnesses of a sufficiently frequent item") {
    val (recs, freq) = stream(60, 900, 1.1, seed = 21)
    val d = freq.values.max.toInt
    val cfg = InsertionOnlyND.Params(n = 60, d = d, c = 3, seed = 22)
    val (report, _, _) = StreamingWitness.runMicroBatched(spark, recs, nBatches = 4, cfg)
    assert(report.nonEmpty)
    val r = report.get
    assert(r.witnessCount == cfg.d2)
    assert(Neighborhood.isValid(Neighborhood(r.item, r.witnesses), SynthGraphs.adjacency(recs.map(w => Edge(w.item, w.witness)))))
    assert(freq(r.item) >= cfg.d2, "reported item must actually be d/c-frequent")
  }

  test("the sequential report and run flags at 1 and 5 batches, c = 2, 3") {
    // The operator's merged sample per run is the sequential reservoir's
    // final set, so report and per-run success equal the sequential build's.
    val (recs, freq) = stream(30, 400, 1.0, seed = 31)
    val d = freq.values.max.toInt
    for (c <- Seq(2, 3)) {
      val cfg = InsertionOnlyND.Params(n = 30, d = d, c = c, seed = 32)
      val (want, seq) = FrequentWitness.runDetailed(recs, 30, d, c, seed = 32)
      for (nBatches <- Seq(1, 5)) {
        val (report, succ, _) = StreamingWitness.runMicroBatched(spark, recs, nBatches, cfg)
        assert(report == want && succ == seq.runSucceeded, s"c=$c nBatches=$nBatches")
      }
    }
  }

  test("state is bounded by P*c*s neighborhoods") {
    // d = 4: most keys reach both thresholds, so a store per crossing key
    // would hold nearly every key; the operator holds each partition's
    // reservoirs only.
    val (recs, _) = stream(200, 3000, 1.1, seed = 61)
    val cfg = InsertionOnlyND.Params(n = 200, d = 4, c = 2, seed = 62)
    val parts = VertexPartitions.corePartitions(spark)
    val (want, seq) = FrequentWitness.runDetailed(recs, 200, 4, 2, seed = 62)
    assert(want.nonEmpty)
    for (nBatches <- Seq(1, 3)) {
      val shards = StreamingWitness.latestShards(spark, recs, nBatches, cfg)
      val stored = shards.map(_.stored.map(_.size).sum).sum
      assert(stored <= parts * cfg.c * cfg.s, s"nBatches=$nBatches: $stored neighborhoods stored")
      val bound = cfg.s.toLong * (1 + cfg.d2)
      assert(shards.forall(_.peakWords.forall(_ <= bound)),
        s"nBatches=$nBatches: run peaks ${shards.map(_.peakWords)} above $bound")
      val (report, succ, _) = StreamingWitness.runMicroBatched(spark, recs, nBatches, cfg)
      assert(report == want && succ == seq.runSucceeded, s"nBatches=$nBatches")
    }
  }

  test("Config and nBatches validation") {
    intercept[IllegalArgumentException](
      InsertionOnlyND.Params(n = 10, d = 4, c = 1, seed = 1))
    val cfg = InsertionOnlyND.Params(n = 10, d = 4, c = 2, seed = 1)
    val recs = (1 to 4).map(i => WitnessRecord(1, i.toLong))
    for (n <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](
        StreamingWitness.runMicroBatched(spark, recs, nBatches = n, cfg))
      assert(e.getMessage.contains(s"got $n"))
    }
  }

  test("Config rejects d < 1 as the sequential build does, naming the value") {
    val e = intercept[IllegalArgumentException](
      InsertionOnlyND.Params(n = 10, d = 0, c = 2, seed = 1))
    assert(e.getMessage.contains("degree threshold must be >= 1, got 0"))
  }

  test("state partitions: min(shuffle partitions, default parallelism), session conf restored") {
    val before = spark.conf.get(shufflePartitions)
    val expected = math.min(before.toInt, spark.sparkContext.defaultParallelism)
    val (recs, freq) = stream(20, 200, 1.1, seed = 51)
    val cfg = InsertionOnlyND.Params(n = 20, d = freq.values.max.toInt, c = 2, seed = 52)
    val (_, seen) = statePartitionsSeen(StreamingWitness.runMicroBatched(spark, recs, nBatches = 2, cfg))
    assert(seen == Set(expected.toLong), s"state partitions $seen, expected $expected")
    assert(spark.conf.get(shufflePartitions) == before, "session shuffle partitions must be restored")
  }

  private val shufflePartitions = "spark.sql.shuffle.partitions"
  private val fileManager = "spark.sql.streaming.checkpointFileManagerClass"

  /** `body`'s value and the state-partition counts its queries reported. */
  private def statePartitionsSeen[T](body: => T): (T, Set[Long]) = {
    val seen = new ConcurrentLinkedQueue[Long]()
    val listener = new StreamingQueryListener {
      override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
      override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit =
        e.progress.stateOperators.headOption.foreach(op => seen.add(op.numShufflePartitions))
      override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    }
    spark.streams.addListener(listener)
    try {
      val out = body
      // The queries have stopped; their progress events are queued on the bus.
      TestBus.drain(spark.sparkContext)
      (out, seen.asScala.toSet)
    } finally spark.streams.removeListener(listener)
  }

  /** The command lines of the processes this JVM started during `body`,
    * from a JFR recording of `jdk.ProcessStart` events only.
    */
  private def processStarts(body: => Unit): Vector[String] = {
    val file = Files.createTempFile("process-start", ".jfr")
    val rec = new Recording()
    try {
      rec.enable("jdk.ProcessStart")
      rec.start()
      try body finally rec.stop()
      rec.dump(file)
      RecordingFile.readAllEvents(file).asScala.map(_.getString("command")).toVector
    } finally { rec.close(); Files.delete(file) }
  }

  private def deleteTree(dir: Path): Unit = {
    val paths = Files.walk(dir)
    try paths.iterator.asScala.toVector.reverse.foreach(Files.delete) finally paths.close()
  }

  test("a query stopped after k of n batches resumes from its checkpoint with the same result") {
    val (recs, freq) = stream(60, 900, 1.1, seed = 71)
    val d = freq.values.max.toInt
    val cfg = InsertionOnlyND.Params(n = 60, d = d, c = 2, seed = 72)
    val (want, seq) = FrequentWitness.runDetailed(recs, 60, d, 2, seed = 72)
    val n = 5
    val batchSize = math.ceil(recs.size.toDouble / n).toInt
    val parts = VertexPartitions.corePartitions(spark)
    val (whole, wholeParts) = statePartitionsSeen(StreamingWitness.latestShards(spark, recs, n, cfg))
    assert(wholeParts == Set(parts.toLong))
    val uninterrupted = cfg.merge(whole)
    assert(FrequentWitness.report(uninterrupted) == want && uninterrupted.runSucceeded == seq.runSucceeded)
    val sessionPartitions = spark.conf.get(shufflePartitions)
    for (k <- Seq(1, 3)) {
      // The restarted query returns the shards of partitions with events
      // after the restart; here that is every partition.
      val after = recs.drop(k * batchSize).map(r => VertexPartitions.partitionOf(r.item, parts)).toSet
      assert(after == recs.map(r => VertexPartitions.partitionOf(r.item, parts)).toSet)
      val dir = Files.createTempDirectory("streaming-witness-restart")
      try {
        StreamingWitness.latestShards(spark, recs.take(k * batchSize), nBatches = k, cfg, Some(dir))
        // Spark's own checksum file of every state partition's first version.
        val stateDirs = dir.resolve("state/0").toFile.listFiles.toVector
          .filter(_.getName.forall(_.isDigit))
        assert(stateDirs.size == parts, s"k=$k: state partitions $stateDirs")
        assert(stateDirs.forall(p => new java.io.File(p, "1.delta.crc").isFile),
          s"k=$k: missing 1.delta.crc in ${stateDirs.map(_.list.toVector)}")
        // Restart on a session whose core-partition count differs: the
        // query keeps the checkpoint's.
        spark.conf.set(shufflePartitions, math.max(1, parts - 1).toLong)
        val (resumed, resumedParts) = try statePartitionsSeen(
          StreamingWitness.latestShards(spark, recs, nBatches = n, cfg, Some(dir)))
        finally spark.conf.set(shufflePartitions, sessionPartitions)
        assert(resumedParts == Set(parts.toLong), s"k=$k: state partitions after the restart")
        assert(resumed.toSet == whole.toSet, s"k=$k: shards differ from the uninterrupted run's")
        assert(cfg.merge(resumed) == uninterrupted, s"k=$k")
      } finally deleteTree(dir)
    }
  }

  test("checkpoint writes start no readlink process, and the temp checkpoint is deleted") {
    // Without the native Hadoop library, Hadoop's FileContext rename starts
    // a readlink process per file; FileSystem.rename does not.
    assume(!NativeCodeLoader.isNativeCodeLoaded, "native Hadoop starts no process per file")
    val (recs, freq) = stream(20, 200, 1.1, seed = 81)
    val cfg = InsertionOnlyND.Params(n = 20, d = freq.values.max.toInt, c = 2, seed = 82)
    val commands = processStarts(StreamingWitness.runMicroBatched(spark, recs, nBatches = 2, cfg))
      .filter(_.contains(StreamingWitness.TempCheckpointPrefix))
    // The permission changes still start processes, which shows the
    // recording saw the checkpoint's writes.
    assert(commands.exists(_.startsWith("chmod")), s"no chmod recorded among $commands")
    val readlinks = commands.filter(_.startsWith("readlink"))
    assert(readlinks.isEmpty, s"${readlinks.size} readlink processes, e.g. ${readlinks.take(3)}")
    val dirs = commands.flatMap(cmd =>
      s"/[^\\s:]*${StreamingWitness.TempCheckpointPrefix}[^/\\s]*".r.findFirstIn(cmd)).distinct
    assert(dirs.size == 1, s"checkpoint directories $dirs")
    assert(!Files.exists(java.nio.file.Paths.get(dirs.head)), s"${dirs.head} is left behind")
  }

  test("the caller's session confs are left as found, set or unset, also when start() throws") {
    val keys = Seq(shufflePartitions, fileManager)
    def confs: Map[String, Option[String]] = {
      val set = spark.conf.getAll
      keys.map(k => k -> set.get(k)).toMap
    }
    val (recs, freq) = stream(20, 200, 1.1, seed = 91)
    val cfg = InsertionOnlyND.Params(n = 20, d = freq.values.max.toInt, c = 2, seed = 92)
    val saved = confs
    def leavesAsFound(): Unit = {
      val before = confs
      StreamingWitness.runMicroBatched(spark, recs, nBatches = 2, cfg)
      assert(confs == before, "after a query")
      // A checkpoint whose metadata file is not JSON fails the query's start.
      val dir = Files.createTempDirectory("streaming-witness-bad-metadata")
      try {
        Files.writeString(dir.resolve("metadata"), "not json")
        val e = intercept[Exception](
          StreamingWitness.latestShards(spark, recs, nBatches = 2, cfg, Some(dir)))
        assert(!e.isInstanceOf[StreamingQueryException], s"the query ran: $e")
      } finally deleteTree(dir)
      assert(confs == before, "after a failed start")
    }
    try {
      keys.foreach(spark.conf.unset)
      leavesAsFound()
      assert(confs.values.forall(_.isEmpty), "unset keys must stay unset")
      spark.conf.set(shufflePartitions, 3L)
      spark.conf.set(fileManager, classOf[FileContextBasedCheckpointFileManager].getName)
      leavesAsFound()
    } finally keys.foreach(k => saved(k).fold(spark.conf.unset(k))(spark.conf.set(k, _)))
    assert(confs == saved)
  }
}
