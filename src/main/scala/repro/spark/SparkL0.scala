package repro.spark

import org.apache.spark.sql.SparkSession

import repro.core.StreamOp
import repro.sketch.{TurnstileConfig, TurnstileND, TurnstileResult}

/** Distributed build of Algorithm 3's sketch (DESIGN.md §4, S9).
  *
  * It parallelizes over *sketches*: one Spark job runs a [[TurnstileND]]
  * shard per task over the ops (shard 0 also holds the edge sketch), with
  * [[VertexPartitions.corePartitions]] tasks. Each task returns its
  * shard's `result()` and `reduce` combines them with `++`. The ops travel
  * in the task closure, which Spark ships once per stage. Each sketch
  * still sees the whole stream in order, so the result equals the
  * sequential `new TurnstileND(config)`'s — asserted in `SparkL0Spec`.
  */
object SparkL0 {

  def run(spark: SparkSession, ops: Seq[StreamOp], config: TurnstileConfig): TurnstileResult = {
    ops.foreach(op => config.requireEdge(op.edge.a, op.edge.b)) // before any task fails on it
    val parts = VertexPartitions.corePartitions(spark)
    val opArray = ops.toArray
    spark.sparkContext.parallelize(0 until parts, parts)
      .map(p => new TurnstileND(config, p, parts).processAll(opArray).result())
      .reduce(_ ++ _)
  }
}
