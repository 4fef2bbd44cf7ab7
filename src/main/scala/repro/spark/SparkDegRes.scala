package repro.spark

import org.apache.spark.Partitioner
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.core.{Edge, InsertionOnlyND, InsertionOnlyResult}

/** Algorithm 2 on vertex partitions — DESIGN.md §4, S7.
  *
  * Input: an edge stream as rows (pos, a, b) where `pos` is the stream
  * position. One shuffle sends each vertex's edges to one partition,
  * sorted by `pos` there, and each partition runs the sequential build's
  * c samplers ([[InsertionOnlyND.Partition]]) over its rows. Run i's reservoir
  * is a bottom-s sample by [[repro.Hashing.priority]], and bottom-s
  * samples merge by union (Cohen–Kaplan bottom-k sketches; Agarwal et al.,
  * *Mergeable Summaries*, PODS 2012): the s least (priority, a) over the partitions'
  * reservoirs are the sequential reservoir's final set. A vertex in that
  * set has been held since it crossed d1, and its buffer depends only on
  * its own edges, so its neighborhood is the sequential one too. Each run
  * keeps its full neighborhood of least priority, and the winning run is
  * [[InsertionOnlyND.pick]]'s ([[InsertionOnlyND.Params.merge]]): the result
  * equals [[InsertionOnlyND.run]]'s for the same seed, in one Spark job
  * whatever c is.
  */
object SparkDegRes {

  /** Partitions `(a, pos)` keys by `a` alone, so a vertex's edges meet. */
  private final class VertexPartitioner(val numPartitions: Int) extends Partitioner {
    def getPartition(key: Any): Int = key match {
      case (a: Long, _) => VertexPartitions.partitionOf(a, numPartitions)
    }
  }

  /** Run the full c-approximation algorithm.
    *
    * @param edges DataFrame (pos, a, b) — a simple bipartite edge stream,
    *              its rows in any order
    * @param n     |A|
    * @param d     degree threshold >= 1 (promise: some vertex has deg >= d)
    * @param c     integral approximation factor >= 2
    * @param seed  priority seed, as in [[InsertionOnlyND.run]]
    * @param sOverride reservoir size >= 1 in place of Theorem 3.2's
    * @return [[InsertionOnlyND.run]]'s result, except that run i's peak
    *         words are its largest partition's
    */
  def run(edges: DataFrame, n: Long, d: Int, c: Int, seed: Long,
          sOverride: Option[Int] = None): InsertionOnlyResult = {
    val p = InsertionOnlyND.Params(n, d, c, seed, sOverride)
    val parts = VertexPartitions.corePartitions(edges.sparkSession)
    val shards = edges
      .select(col("a").cast("long"), col("pos").cast("long"), col("b").cast("long"))
      .rdd.map(r => ((r.getLong(0), r.getLong(1)), r.getLong(2)))
      .repartitionAndSortWithinPartitions(new VertexPartitioner(parts))
      .mapPartitions(rows =>
        Iterator.single(p.partition().feed(rows.map { case ((a, _), b) => Edge(a, b) }).shard))
      .collect().toVector
    p.merge(shards)
  }
}
