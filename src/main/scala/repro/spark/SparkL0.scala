package repro.spark

import org.apache.spark.sql.SparkSession

import repro.core.StreamOp
import repro.sketch.{TurnstileConfig, TurnstileND, TurnstileResult}

/** Distributed build of Algorithm 3's sketch (DESIGN.md §4, S9).
  *
  * It parallelizes over *sketches*: one Spark job runs a [[TurnstileND]]
  * shard per task over the broadcast ops (shard 0 also holds the edge
  * sketch), with [[VertexPartitions.corePartitions]] tasks, and `reduce`
  * adds the shards' samples. Each sketch still sees the whole stream in
  * order, so the result equals the sequential `new TurnstileND(config)`'s
  * — asserted in `SparkL0Spec`.
  */
object SparkL0 {

  def run(spark: SparkSession, ops: Seq[StreamOp], config: TurnstileConfig): TurnstileResult = {
    ops.foreach(op => config.requireEdge(op.edge.a, op.edge.b)) // before any task fails on it
    val sc = spark.sparkContext
    val parts = VertexPartitions.corePartitions(spark)
    val bOps = sc.broadcast(ops.toArray)
    try {
      val samples = sc.parallelize(0 until parts, parts)
        .map(p => new TurnstileND(config, p, parts).processAll(bOps.value).samples)
        .reduce(_ ++ _)
      config.assemble(samples)
    } finally bOps.destroy()
  }
}
