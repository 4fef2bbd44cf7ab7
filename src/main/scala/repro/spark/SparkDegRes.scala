package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.Hashing
import repro.core.{InsertionOnlyND, Neighborhood}

/** Outcome of the DataFrame build of Algorithm 2 (mirrors
  * [[repro.core.InsertionOnlyResult]] minus word-level accounting, which is
  * meaningful only for the sequential build).
  */
final case class SparkDegResResult(
    output: Option[Neighborhood],
    runSucceeded: Vector[Boolean],
    reservoirSize: Int,
)

/** Algorithm 2 as a pure DataFrame (Catalyst) pipeline — DESIGN.md §4.
  *
  * Input: an edge stream as rows (pos, a, b) where `pos` is the stream
  * position. The sequential algorithm's reservoir maintains a uniform
  * s-sample of the vertices whose degree reached d1; here that sample is
  * drawn equivalently by ranking each vertex's edges by `pos` (window),
  * filtering vertices with deg ≥ d1, and keeping the s least
  * (priority, a) with the sequential build's [[Hashing.priority]] — the
  * same set its reservoir ends with. The "next d/c edges after crossing
  * d1" are exactly the edges with per-vertex rank in [d1, d1 + d/c), so
  * run i succeeds iff its sample contains a vertex of degree
  * ≥ d1 + d/c - 1, its neighborhood is the one of least priority among
  * those, and the winning run is [[InsertionOnlyND.pick]]'s: the result
  * equals [[InsertionOnlyND.run]]'s for the same seed.
  *
  * All c runs share one plan: the degree table is expanded into one row
  * per (vertex, run) and each run's winner is taken by a window over the
  * run, so a call issues two collects (winners, then their neighbors)
  * whatever c is.
  */
object SparkDegRes {

  /** Edges with their per-vertex arrival rank (1-based, by stream pos). */
  def ranked(edges: DataFrame): DataFrame =
    edges.withColumn("rank",
      row_number().over(Window.partitionBy("a").orderBy("pos")).cast("long"))

  /** Exact per-vertex degrees — oracle-checked against DuckDB in tests. */
  def degrees(edges: DataFrame): DataFrame =
    edges.groupBy("a").agg(count(lit(1)) as "deg")

  /** Run the full c-approximation algorithm.
    *
    * @param edges DataFrame (pos, a, b) — a simple bipartite edge stream
    * @param n     |A|
    * @param d     degree threshold >= 1 (promise: some vertex has deg >= d)
    * @param c     integral approximation factor >= 2
    * @param seed  priority seed, as in [[InsertionOnlyND.run]]
    * @param sOverride reservoir size >= 1 in place of Theorem 3.2's
    */
  def run(edges: DataFrame, n: Long, d: Int, c: Int, seed: Long,
          sOverride: Option[Int] = None): SparkDegResResult = {
    val s  = InsertionOnlyND.checkedReservoirSize(n, d, c, sOverride)
    val d2 = InsertionOnlyND.targetSize(d, c)
    val d1 = Vector.tabulate(c)(InsertionOnlyND.threshold(_, d, c))

    // A typed UDF, not Column arithmetic: SplitMix64 overflows on purpose,
    // and ANSI mode throws on overflow.
    val prio = udf((run: Int, a: Long) => Hashing.priority(seed, run, a))
    val runs = array(d1.zipWithIndex.map { case (t, i) =>
      struct(lit(i) as "run", lit(t) as "d1") }: _*)
    // Per run: a uniform s-sample of {a : deg(a) >= d1} via hash priority.
    // A sampled vertex yields a full neighborhood iff it still has d2 edges
    // from rank d1 onwards, i.e. deg >= d1 + d2 - 1; the winner is the
    // sampled one of least priority.
    val winners = degrees(edges)
      .select(col("a"), col("deg"), explode(runs) as "r")
      .select(col("a"), col("deg"), col("r.run") as "run", col("r.d1") as "d1")
      .filter(col("deg") >= col("d1"))
      .withColumn("prio", prio(col("run"), col("a")))
      .withColumn("k", row_number().over(Window.partitionBy("run").orderBy("prio", "a")))
      .filter(col("k") <= s && col("deg") >= col("d1").cast("long") + (d2 - 1L))
      .groupBy("run")
      .agg(min(struct("prio", "a")) as "w")
      .select(col("run"), col("w.a"))
      .collect()
      .map(r => r.getInt(0) -> r.getLong(1))
      .toMap

    // Ranks up to the largest window end of any winner; each run keeps the
    // ranks [d1, d1 + d2) of its own winner (one vertex may win several
    // runs with different d1).
    val neighbor: Map[(Long, Long), Long] =
      if (winners.isEmpty) Map.empty
      else ranked(edges.filter(col("a").isin(winners.values.toSeq.distinct: _*)))
        .filter(col("rank") <= winners.keys.map(d1(_)).max.toLong + d2 - 1)
        .select("a", "rank", "b")
        .collect()
        .map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(2))
        .toMap
    val outcome: Vector[Option[Neighborhood]] = Vector.tabulate(c) { i =>
      winners.get(i).map { a =>
        Neighborhood(a, Vector.tabulate(d2)(j => neighbor((a, d1(i).toLong + j))))
      }
    }
    SparkDegResResult(InsertionOnlyND.pick(outcome, seed), outcome.map(_.nonEmpty), s)
  }
}
