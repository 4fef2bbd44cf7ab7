package perfbench

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.streaming.{StateOperatorProgress, StreamingQueryProgress}

/** Figures of micro-batches that read input, from their progress reports:
  * the end-to-end streaming figures and the traced per-layer ones alike.
  */
final case class Batches(progress: Vector[StreamingQueryProgress]) {
  def isEmpty: Boolean = progress.isEmpty
  def size: Int = progress.size
  /** Each batch's time in one phase of `StreamingQueryProgress.durationMs`. */
  def phaseMs(phase: String): Vector[Double] =
    progress.map(_.durationMs.asScala.get(phase).map(_.toDouble).getOrElse(0.0))
  def latencyMs: Vector[Double] = phaseMs("triggerExecution")
  /** Each batch's sum of `f` over its stateful operators. */
  def state(f: StateOperatorProgress => Long): Vector[Double] =
    progress.map(_.stateOperators.map(f).sum.toDouble)
  def rowsPeak: Double  = state(_.numRowsTotal).max
  def bytesPeak: Double = state(_.memoryUsedBytes).max
}

/** Per-layer figures of a traced run, each the median over traced passes
  * (input generation: over set-up rounds; streaming figures: over
  * micro-batches). A layer's time is its spans' self time: duration minus
  * the time of the spans they contain.
  */
final class LayerMetrics(setup: Vector[Span], setupRounds: Seq[Vector[Span]], passes: Seq[Pass],
                         probe: Option[SparkProbe]) {

  private val batches = Batches(passes.flatMap(_.batches.progress).toVector)

  private final class View(spans: Vector[Span]) {
    private val self = Tracer.selfNs(spans)
    private def named(n: String) = spans.filter(_.name == n)
    def ms(n: String): Double = named(n).map(s => self(s.id)).sum / 1e6
    def layerMs(prefix: String): Double =
      spans.filter(_.name.startsWith(prefix)).map(s => self(s.id)).sum / 1e6
    def records(n: String): Double = named(n).map(_.records).sum.toDouble
    def nsPer(n: String): Double = ratio(ms(n) * 1e6, records(n))
    def jobs(n: String)(f: JobCounts => Long): Double =
      named(n).flatMap(s => probe.flatMap(_.jobCounts(s.id))).map(f).sum.toDouble
  }

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  private def perPass(p: Pass): Map[String, Double] = {
    val v = new View(p.spans)
    val t = p.tally.withDefaultValue(0.0)
    Map(
      "core.frequent_witness.ns_per_record" -> v.nsPer("core.frequent_witness"),
      "core.insertion_only.ns_per_edge"     -> v.nsPer("core.insertion_only"),
      "core.star_detection.ms"              -> v.ms("core.star_detection"),
      "core.run_peak_words"                 -> t("core.run_peak_words"),
      "core.degree_words"                   -> t("core.degree_words"),
      "core.star_detection.peak_words"      -> t("core.star_detection.peak_words"),
      "core.runs_succeeded_ratio"           -> ratio(t("core.runs_succeeded"), t("core.runs")),
      "core.self_ms"                        -> v.layerMs("core."),
      "baseline.exact_nd.ns_per_edge"       -> v.nsPer("baseline.exact_nd"),
      "baseline.space_saving.ns_per_item"   -> v.nsPer("baseline.space_saving"),
      "baseline.misra_gries.ns_per_item"    -> v.nsPer("baseline.misra_gries"),
      "baseline.exact_nd.peak_words"        -> t("baseline.exact_nd.peak_words"),
      "baseline.space_saving.peak_words"    -> t("baseline.space_saving.peak_words"),
      "baseline.misra_gries.peak_words"     -> t("baseline.misra_gries.peak_words"),
      "baseline.self_ms"                    -> v.layerMs("baseline."),
      "sketch.turnstile_nd.build_ms"        -> v.ms("sketch.turnstile_nd.build"),
      "sketch.turnstile_nd.ns_per_sampler_update" -> v.nsPer("sketch.turnstile_nd.build"),
      "sketch.turnstile_nd.sampler_updates" -> v.records("sketch.turnstile_nd.build"),
      "sketch.turnstile_nd.result_ms"       -> v.ms("sketch.turnstile_nd.result"),
      "sketch.turnstile_nd.words"           -> t("sketch.turnstile_nd.words"),
      "sketch.vertex_ok_ratio"              -> ratio(t("sketch.vertex_ok"), t("sketch.runs")),
      "sketch.edge_ok_ratio"                -> ratio(t("sketch.edge_ok"), t("sketch.runs")),
      "sketch.self_ms"                      -> v.layerMs("sketch."),
      "spark.sparkl0.ms"                    -> v.ms("spark.sparkl0"),
      "spark.sparkl0.jobs"                  -> v.jobs("spark.sparkl0")(_.jobs),
      "spark.sparkl0.tasks"                 -> v.jobs("spark.sparkl0")(_.tasks),
      "spark.sparkl0.task_busy_ms"          -> v.jobs("spark.sparkl0")(_.busyMs),
      "spark.sparkdegres.ms"                -> v.ms("spark.sparkdegres"),
      "spark.sparkdegres.jobs"              -> v.jobs("spark.sparkdegres")(_.jobs),
      "spark.sparkdegres.stages"            -> v.jobs("spark.sparkdegres")(_.stages),
      "spark.sparkdegres.shuffle_read_bytes"  -> v.jobs("spark.sparkdegres")(_.shuffleRead),
      "spark.sparkdegres.shuffle_write_bytes" -> v.jobs("spark.sparkdegres")(_.shuffleWrite),
      "spark.sparkdegres.task_busy_ms"      -> v.jobs("spark.sparkdegres")(_.busyMs),
      "spark.streaming.run_ms"              -> v.ms("spark.streaming"),
      "spark.self_ms"                       -> v.layerMs("spark."),
      "bench.check_ms"                      -> v.ms("query"),
      "jvm.gc_ms"                           -> p.gcMs,
    )
  }

  private def perRound(spans: Vector[Span]): Map[String, Double] = {
    val v = new View(spans)
    Vector("zipf_witness_stream", "planted_star", "zipf_degrees", "uniform_plus_planted",
      "turnstile_from", "adjacency", "adjacency_of", "edges_df")
      .map(g => s"synth.$g.ms" -> v.ms(s"synth.$g")).toMap
  }

  private def medians(maps: Seq[Map[String, Double]]): Map[String, Double] =
    maps.flatMap(_.keys).distinct.map(k => k -> Metrics.median(maps.map(_.getOrElse(k, 0.0)))).toMap

  private def streaming: Map[String, Double] =
    if (batches.isEmpty) Map.empty
    else {
      def dur(phase: String) = Metrics.median(batches.phaseMs(phase))
      def perBatch(f: JobCounts => Long) =
        passes.map(p => new View(p.spans).jobs("spark.streaming")(f)).sum / batches.size
      Map(
        "spark.streaming.batch_ms"          -> Metrics.median(batches.latencyMs),
        "spark.streaming.add_batch_ms"      -> dur("addBatch"),
        "spark.streaming.wal_commit_ms"     -> dur("walCommit"),
        "spark.streaming.commit_ms"         -> dur("commitOffsets"),
        "spark.streaming.query_planning_ms" -> dur("queryPlanning"),
        "spark.streaming.state_update_ms"   -> Metrics.median(batches.state(_.allUpdatesTimeMs)),
        "spark.streaming.state_commit_ms"   -> Metrics.median(batches.state(_.commitTimeMs)),
        "spark.streaming.tasks_per_batch"   -> perBatch(_.streamingTasks),
        "spark.streaming.state_partitions"  -> batches.state(_.numShufflePartitions).max,
        "spark.streaming.shuffle_bytes"     -> perBatch(_.streamingShuffle),
        "spark.streaming.state_rows"        -> batches.rowsPeak,
        "spark.streaming.state_bytes"       -> batches.bytesPeak,
        "spark.streaming.rows_updated"      -> batches.state(_.numRowsUpdated).sum / passes.size,
      )
    }

  /** Every figure this class derives, by metric name. */
  def values: Map[String, Double] =
    medians(passes.map(perPass)) ++ medians(setupRounds.map(perRound)) ++ streaming +
      ("spark.session_start.ms" -> new View(setup).ms("spark.session_start"))
}
