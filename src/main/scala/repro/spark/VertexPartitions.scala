package repro.spark

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.internal.SQLConf

/** The vertex→partition rule of both Spark builds of Algorithm 2: the
  * shuffle of [[SparkDegRes]] and the state key of [[StreamingWitness]]
  * send vertex `a` to the same partition, so each partition's runs see
  * every edge of their vertices.
  */
object VertexPartitions {

  /** min(session shuffle partitions, default parallelism): partitions
    * beyond the core count only add per-partition work. Also the shard
    * count of [[SparkL0]].
    */
  def corePartitions(spark: SparkSession): Int =
    math.min(spark.conf.get(SQLConf.SHUFFLE_PARTITIONS.key).toInt, spark.sparkContext.defaultParallelism)

  /** The partition of vertex `a` among `parts`. */
  def partitionOf(a: Long, parts: Int): Int = Math.floorMod(java.lang.Long.hashCode(a), parts)
}
