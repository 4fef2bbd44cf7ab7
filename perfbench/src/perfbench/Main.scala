package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.{Callable, ExecutorService, Executors}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryProgress
import org.json4s._
import org.json4s.jackson.JsonMethods.compact

/** One pass over a workload's queries, and the micro-batches it ran.
  * `queryNs` is each query's own time.
  */
final case class Pass(wallNs: Long, attempted: Int, failures: Vector[(String, String)],
                      tally: Map[String, Double], spans: Vector[Span], gcMs: Double,
                      traced: Boolean, batches: Batches, queryNs: Map[String, Long])

/** Command-line arguments; see perfbench/README.md. */
final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      scale: String, out: Path)

object Args {
  def parse(argv: Seq[String]): Args = {
    if (argv.size % 2 != 0) throw new IllegalArgumentException("arguments come in --name value pairs")
    val kv = argv.grouped(2).map { case Seq(k, v) =>
      if (!k.startsWith("--")) throw new IllegalArgumentException(s"expected --name, got $k")
      k.drop(2) -> v
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "scale", "out")
    (kv.keySet -- known).foreach(k => throw new IllegalArgumentException(s"unknown argument --$k"))
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(
      workload = need("workload"),
      seed     = need("seed").toLong,
      seconds  = need("seconds").toDouble,
      trace    = kv.getOrElse("trace", "0") match {
        case "0" => false; case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      scale    = kv.getOrElse("scale", "full"),
      out      = Paths.get(need("out")).toAbsolutePath,
    )
    if (!Workloads.names.contains(a.workload))
      throw new IllegalArgumentException(s"unknown workload ${a.workload}; one of ${Workloads.names.mkString(", ")}")
    if (a.seconds <= 0) throw new IllegalArgumentException("--seconds must be positive")
    Scale(a.scale)
    a
  }
}

/** Runs one workload: set-up, then timed passes, then the result.
  *
  * `setup_s` is the Spark session start, the median of the scale's rounds
  * of input generation and DataFrame materialization, and the warm-up.
  * Then passes run back to back for `seconds`; `wall_s` is the median pass.
  * With `trace`, passes alternate untraced and traced, so that drift in the
  * host's speed falls on both alike: per-layer figures come from the traced
  * passes and the tracing overhead is the difference of the two medians.
  *
  * On the workloads without Spark a pass runs its queries on one worker
  * per core (at most 4), longest first by the warm-up pass's times, and
  * ends when the last answer is checked. On a shared host each core's
  * speed drifts on its own, by a fifth or more over seconds; one thread
  * would measure the core it happened to run on, several measure them all.
  */
final class Runner(a: Args) {
  private val scale  = Scale(a.scale)
  private val tracer = new Tracer(a.trace)
  private val tally  = new Tally
  private val cores  = math.min(4, Runtime.getRuntime.availableProcessors)
  private var spark: Option[SparkSession] = None
  private var probe: Option[SparkProbe] = None
  private var prepared: Prepared = _
  private var order: Vector[Query] = Vector.empty // a pass's queries, in the order they start
  private val pool: Option[ExecutorService] =
    if (!Workloads.parallel(a.workload) || cores < 2) None
    else Some(Executors.newFixedThreadPool(cores, (r: Runnable) => {
      val th = new Thread(r, "perfbench-worker"); th.setDaemon(true); th
    }))

  private def startSession(): SparkSession = {
    val work = a.out.getParent.getParent
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      // As jobs.Jobs.session and the test suite's SparkSpec.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      // Keep every file Spark writes inside the build directory.
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("spark-warehouse").toString)
      .config("spark.sql.streaming.forceDeleteTempCheckpointLocation", "true")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def teardown(): Unit = {
    pool.foreach(_.shutdownNow())
    probe.foreach(_.close()); probe = None
    spark.foreach(_.stop()); spark = None
  }

  private def gcMs: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.toDouble).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  /** (query id, why it failed if it did, its time). */
  private def runQuery(q: Query, parent: Int): (String, Option[String], Long) = {
    val t0 = System.nanoTime()
    val r = try tracer.inQuery(q.id, parent)(q.run())
            catch { case NonFatal(e) => Some(s"threw $e") }
    (q.id, r, System.nanoTime() - t0)
  }

  private def pass(traced: Boolean): Pass = {
    tracer.enabled = traced
    probe.foreach(_.trace(traced))
    val batch0 = progressCount
    val mark = tracer.size
    val gc0  = gcMs
    val t0   = System.nanoTime()
    val results = tracer.span("pass") {
      val parent = tracer.current
      pool match {
        case None    => order.map(runQuery(_, parent))
        case Some(p) => order.map(q => p.submit(new Callable[(String, Option[String], Long)] {
                          def call() = runQuery(q, parent) })).map(_.get)
      }
    }
    val wall = System.nanoTime() - t0
    val failures = results.flatMap { case (id, r, _) => r.map(id -> _) }
    Pass(wall, order.size, failures, tally.take(), tracer.since(mark), gcMs - gc0,
         traced, Batches(batchesIn(batch0, progressCount)), results.map(r => r._1 -> r._3).toMap)
  }

  private def seconds(body: => Unit): Double = {
    val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e9
  }

  /** Everything before the first timed pass: the Spark session start,
    * the scale's rounds of input generation and materialization, of which
    * the median counts, and the warm-up passes. Returns (setup_s, set-up
    * spans, spans of each round).
    */
  private def setup(): (Double, Vector[Span], Vector[Vector[Span]]) = {
    val sessionS = if (!Workloads.usesSpark(a.workload)) 0.0 else seconds {
      val s = tracer.span("spark.session_start")(startSession())
      spark = Some(s)
      probe = Some(new SparkProbe(s, tracer))
    }
    val rounds = Vector.fill(scale.setupRounds) {
      System.gc()
      val mark = tracer.size
      val s = seconds {
        prepared = tracer.span("setup")(Workloads.prepare(a.workload, a.seed, scale, Env(tracer, tally, spark)))
      }
      (s, tracer.since(mark))
    }
    order = prepared.queries
    // Passes still speed up after the first one (by a tenth to a sixth
    // from the first to the second), so every workload warms up twice.
    val warmS = seconds {
      for (_ <- 1 to 2) {
        val warm = tracer.span("warmup")(pass(a.trace))
        warm.failures.foreach { case (q, why) => println(s"warm-up query $q failed: $why") }
        // Longest first, so that a parallel pass does not end waiting on
        // one long query started last.
        if (pool.nonEmpty) order = order.sortBy(q => -warm.queryNs(q.id))
      }
    }
    (sessionS + Metrics.median(rounds.map(_._1)) + warmS, tracer.spans, rounds.map(_._2))
  }

  /** Passes back to back, untraced and (with `trace`) traced in turn,
    * started until `seconds` have passed. A traced run makes at least one
    * pass of each kind. Starting the last pass before the end, rather than
    * only if it would end in time, keeps the number of passes of a slow
    * Spark workload steady when the host's speed drifts.
    */
  private def timed(seconds: Double): Vector[Pass] = {
    val end = System.nanoTime() + (seconds * 1e9).toLong
    val out = Vector.newBuilder[Pass]
    var i = 0
    while (i == 0 || (a.trace && i < 2) || System.nanoTime() < end) {
      out += pass(traced = a.trace && i % 2 == 1)
      i += 1
    }
    out.result()
  }

  /** Micro-batches reported so far, once Spark's queued events are in. */
  private def progressCount: Int = {
    probe.foreach(_.drain())
    probe.map(_.progress.size).getOrElse(0)
  }

  /** Micro-batches that read input, numbers `from` until `until`. */
  private def batchesIn(from: Int, until: Int): Vector[StreamingQueryProgress] =
    probe.map(_.progress.slice(from, until).filter(_.numInputRows > 0)).getOrElse(Vector.empty)

  private def context(inputs: Vector[(String, Long)]): JObject = {
    val conf = spark.map(_.conf)
    Json.obj(
      "workload" -> JString(a.workload), "seed" -> JLong(a.seed), "scale" -> JString(a.scale),
      "seconds" -> JDouble(a.seconds), "trace" -> JBool(a.trace), "setup_rounds" -> JLong(scale.setupRounds),
      "pass_workers" -> JLong(if (pool.isEmpty) 1 else cores),
      "inputs" -> JObject(inputs.map { case (k, v) => k -> (JLong(v): JValue) }.toList),
      "nproc" -> JLong(Runtime.getRuntime.availableProcessors),
      "jdk" -> JString(s"${sys.props("java.version")} ${sys.props("java.vm.name")}"),
      "scala" -> JString(scala.util.Properties.versionNumberString),
      "spark" -> JString(org.apache.spark.SPARK_VERSION),
      "spark_master" -> JString(spark.map(_.sparkContext.master).getOrElse("none: no Spark in this workload")),
      "shuffle_partitions" -> conf.map(c => JString(c.get("spark.sql.shuffle.partitions")): JValue).getOrElse(JNull),
      "max_heap_mb" -> JLong(Runtime.getRuntime.maxMemory / (1L << 20)),
      "os" -> JString(s"${sys.props("os.name")} ${sys.props("os.arch")}"),
    )
  }

  def run(): Unit = {
    val (setupS, setupSpans, rounds) = setup()
    val recordsPerPass = prepared.queries.map(_.records).sum.toDouble

    heapPools.foreach(_.resetPeakUsage())
    val (tracedPasses, measured) = timed(a.seconds).partition(_.traced)
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed.toDouble).sum / (1 << 20)
    val batches = Batches(measured.flatMap(_.batches.progress))

    val timedPasses = measured ++ tracedPasses
    val attempted = timedPasses.map(_.attempted).sum
    val failures  = timedPasses.flatMap(_.failures)
    val wallS = Metrics.median(measured.map(_.wallNs / 1e9))

    val values: Map[String, Double] =
      if (!a.trace) Map(
        "setup_s"       -> setupS,
        "wall_s"        -> wallS,
        "records_per_s" -> recordsPerPass / wallS,
        "passed_share"  -> (attempted - failures.size).toDouble / attempted,
      )
      else {
        val tracedWall = Metrics.median(tracedPasses.map(_.wallNs / 1e9))
        new LayerMetrics(setupSpans, rounds, tracedPasses, probe).values ++ Map(
          "jvm.heap_peak_mb"     -> heapPeakMb,
          "trace.overhead_s"     -> (tracedWall - wallS),
          "trace.overhead_share" -> (tracedWall - wallS) / wallS,
        )
      }
    val metrics = (if (a.trace) Metrics.perLayer else Metrics.endToEnd).map { case (n, u) =>
      (n, u, values.getOrElse(n, 0.0)) }

    // Figures that apply only to some workloads, from the untraced passes:
    // printed, and kept in the result file, but not in the result line.
    val batchMs = batches.latencyMs
    val words   = measured.flatMap(_.tally.get("peak_words"))
    val extraValues: Map[String, Double] =
      Map("failed_share" -> failures.size.toDouble / attempted) ++
      (if (words.isEmpty) Map.empty else Map("peak_words" -> Metrics.median(words))) ++
      (if (batchMs.isEmpty) Map.empty else Map(
        "batch_ms_p50"     -> Metrics.median(batchMs),
        "batch_ms_tail"    -> Metrics.tail(batchMs).map(_._2).getOrElse(batchMs.max),
        "state_rows_peak"  -> batches.rowsPeak,
        "state_bytes_peak" -> batches.bytesPeak,
      ))
    val extras = Metrics.workloadOnly.collect { case (n, u) if extraValues.contains(n) => (n, u, extraValues(n)) }
    val tailNote = if (batchMs.isEmpty) None else Some(Metrics.tail(batchMs) match {
      case Some((p, _)) => f"batch_ms_tail is p$p%.1f of ${batchMs.size} micro-batches"
      case None => s"batch_ms_tail is the maximum of ${batchMs.size} micro-batch(es): too few for a percentile with ten beyond it"
    })

    val ctx = context(prepared.inputs)
    teardown()
    def named(ms: Vector[(String, String, Double)]): JObject = JObject(ms.map { case (n, u, v) =>
      n -> (Json.obj("value" -> JDouble(v), "unit" -> JString(u)): JValue) }.toList)
    val result = Json.obj(
      "correct" -> JBool(failures.isEmpty), "attempted" -> JLong(attempted),
      "failed" -> JLong(failures.size), "metrics" -> named(metrics))
    Files.createDirectories(a.out.getParent)
    Files.writeString(a.out, compact(Json.obj(
      "context" -> ctx,
      "result" -> result,
      "extras" -> named(extras),
      "notes" -> JArray(tailNote.map(JString(_)).toList),
      "pass_wall_s" -> JArray(measured.map(p => JDouble(p.wallNs / 1e9): JValue).toList),
      "traced_pass_wall_s" -> JArray(tracedPasses.map(p => JDouble(p.wallNs / 1e9): JValue).toList),
      "failures" -> JArray(failures.map { case (q, why) =>
        Json.obj("query" -> JString(q), "reason" -> JString(why)): JValue }.toList),
      "micro_batches" -> JArray(batches.progress.map(b => parseJson(b.json)).toList),
      "spans" -> JArray((setupSpans ++ tracedPasses.flatMap(_.spans)).map(Json.span).toList),
    )) + "\n")

    println(s"perfbench ${a.workload} seed=${a.seed} trace=${if (a.trace) 1 else 0} scale=${a.scale}")
    println(s"context ${compact(ctx)}")
    (metrics ++ extras).foreach { case (n, u, v) => println(f"  $n%-44s $v%16.6f $u") }
    tailNote.foreach(n => println(s"  ($n)"))
    failures.distinct.foreach { case (q, why) => println(s"FAILED query $q: $why") }
    println(s"results written to ${a.out}")
    println(compact(result))
  }

  private def parseJson(s: String): JValue = org.json4s.jackson.JsonMethods.parse(s)
}

object Json {
  def obj(kv: (String, JValue)*): JObject = JObject(kv.toList)
  def span(s: Span): JValue = obj(
    "id" -> JLong(s.id), "name" -> JString(s.name), "parent" -> JLong(s.parent),
    "query" -> JString(s.query), "start_ns" -> JLong(s.startNs), "end_ns" -> JLong(s.endNs),
    "records" -> JLong(s.records))
}

object Main {
  def main(argv: Array[String]): Unit = {
    val args =
      try Args.parse(argv.toSeq)
      catch { case e: IllegalArgumentException => System.err.println(s"perfbench: ${e.getMessage}"); sys.exit(2) }
    new Runner(args).run()
    sys.exit(0)
  }
}
