package repro.spark

import org.apache.spark.sql.SparkSession

import repro.core.StreamOp
import repro.sketch.{TurnstileConfig, TurnstileND, TurnstileResult}

/** Distributed build of Algorithm 3's sketch (DESIGN.md §4, S9).
  *
  * It parallelizes over *samplers*, the dominant cost: every stream op
  * updates every edge sampler. One Spark job runs a [[TurnstileND]] shard
  * per task over the broadcast ops, and `reduce` adds the shards' samples.
  * Each sampler still sees the whole stream in order, so the result equals
  * the sequential `new TurnstileND(config)`'s — asserted in `SparkL0Spec`.
  */
object SparkL0 {

  def run(spark: SparkSession, ops: Seq[StreamOp], config: TurnstileConfig): TurnstileResult = {
    val sc = spark.sparkContext
    val parts = 4 * sc.defaultParallelism
    val bOps = sc.broadcast(ops.toArray)
    try {
      val samples = sc.parallelize(0 until parts, parts)
        .map(p => new TurnstileND(config, p, parts).processAll(bOps.value).samples)
        .reduce(_ ++ _)
      config.assemble(samples)
    } finally bOps.destroy()
  }
}
