package perfbench

/** Metric names and units, in the order BENCHMARK.json lists them. */
object Metrics {

  /** Measured with tracing off, on every workload. */
  val endToEnd: Vector[(String, String)] = Vector(
    "setup_s"       -> "s",
    "wall_s"        -> "s",
    "records_per_s" -> "1/s",
    "passed_share"  -> "share",
  )

  /** Printed with the end-to-end metrics on the workloads where they apply,
    * but not reported in the result line: every metric there must apply to
    * every workload and be non-zero.
    */
  val workloadOnly: Vector[(String, String)] = Vector(
    "failed_share"     -> "share",
    "peak_words"       -> "words",
    "batch_ms_p50"     -> "ms",
    "batch_ms_tail"    -> "ms",
    "state_rows_peak"  -> "rows",
    "state_bytes_peak" -> "bytes",
  )

  /** Measured in the traced run; a layer idle on a workload reads 0. */
  val perLayer: Vector[(String, String)] = Vector(
    "core.frequent_witness.ns_per_record" -> "ns",
    "core.insertion_only.ns_per_edge"     -> "ns",
    "core.star_detection.ms"              -> "ms",
    "core.run_peak_words"                 -> "words",
    "core.degree_words"                   -> "words",
    "core.star_detection.peak_words"      -> "words",
    "core.runs_succeeded_ratio"           -> "share",
    "core.self_ms"                        -> "ms",
    "baseline.exact_nd.ns_per_edge"       -> "ns",
    "baseline.space_saving.ns_per_item"   -> "ns",
    "baseline.misra_gries.ns_per_item"    -> "ns",
    "baseline.exact_nd.peak_words"        -> "words",
    "baseline.space_saving.peak_words"    -> "words",
    "baseline.misra_gries.peak_words"     -> "words",
    "baseline.self_ms"                    -> "ms",
    "sketch.turnstile_nd.build_ms"        -> "ms",
    "sketch.turnstile_nd.ns_per_sampler_update" -> "ns",
    "sketch.turnstile_nd.sampler_updates" -> "count",
    "sketch.turnstile_nd.result_ms"       -> "ms",
    "sketch.turnstile_nd.words"           -> "words",
    "sketch.vertex_ok_ratio"              -> "share",
    "sketch.edge_ok_ratio"                -> "share",
    "sketch.self_ms"                      -> "ms",
    "spark.sparkl0.ms"                    -> "ms",
    "spark.sparkl0.jobs"                  -> "count",
    "spark.sparkl0.tasks"                 -> "count",
    "spark.sparkl0.task_busy_ms"          -> "ms",
    "spark.sparkdegres.ms"                -> "ms",
    "spark.sparkdegres.jobs"              -> "count",
    "spark.sparkdegres.stages"            -> "count",
    "spark.sparkdegres.shuffle_read_bytes"  -> "bytes",
    "spark.sparkdegres.shuffle_write_bytes" -> "bytes",
    "spark.sparkdegres.task_busy_ms"      -> "ms",
    "spark.streaming.run_ms"              -> "ms",
    "spark.streaming.batch_ms"            -> "ms",
    "spark.streaming.add_batch_ms"        -> "ms",
    "spark.streaming.wal_commit_ms"       -> "ms",
    "spark.streaming.commit_ms"           -> "ms",
    "spark.streaming.query_planning_ms"   -> "ms",
    "spark.streaming.state_update_ms"     -> "ms",
    "spark.streaming.state_commit_ms"     -> "ms",
    "spark.streaming.tasks_per_batch"     -> "count",
    "spark.streaming.state_partitions"    -> "count",
    "spark.streaming.shuffle_bytes"       -> "bytes",
    "spark.streaming.state_rows"          -> "rows",
    "spark.streaming.state_bytes"         -> "bytes",
    "spark.streaming.rows_updated"        -> "rows",
    "spark.self_ms"                       -> "ms",
    "synth.zipf_witness_stream.ms"        -> "ms",
    "synth.planted_star.ms"               -> "ms",
    "synth.zipf_degrees.ms"               -> "ms",
    "synth.uniform_plus_planted.ms"       -> "ms",
    "synth.turnstile_from.ms"             -> "ms",
    "synth.adjacency.ms"                  -> "ms",
    "synth.adjacency_of.ms"               -> "ms",
    "synth.edges_df.ms"                   -> "ms",
    "spark.session_start.ms"              -> "ms",
    "bench.check_ms"                      -> "ms",
    "jvm.gc_ms"                           -> "ms",
    "jvm.heap_peak_mb"                    -> "MB",
    "trace.overhead_s"                    -> "s",
    "trace.overhead_share"                -> "share",
  )

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted; val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** The highest percentile with at least ten samples above it:
    * (percentile, value), or None with ten samples or fewer.
    */
  def tail(xs: Seq[Double]): Option[(Double, Double)] =
    if (xs.size <= 10) None
    else {
      val s = xs.sorted; val i = s.size - 11
      Some((100.0 * (i + 1) / s.size, s(i)))
    }
}
