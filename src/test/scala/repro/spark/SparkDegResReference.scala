package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.util.Random

import repro.core.{InsertionOnlyND, Neighborhood}

/** The earlier build of [[SparkDegRes.run]], one query pair per run, kept
  * verbatim as the reference that the one-plan build must match bit for
  * bit (SparkDegResSpec's parity tests).
  */
object SparkDegResReference {
  import SparkDegRes.{degrees, ranked}

  def run(edges: DataFrame, n: Long, d: Int, c: Int, seed: Long,
          sOverride: Option[Int] = None): SparkDegResResult = {
    require(c >= 2, s"approximation factor must be >= 2, got $c")
    val s  = sOverride.getOrElse(InsertionOnlyND.reservoirSize(n, c))
    val d2 = InsertionOnlyND.targetSize(d, c)

    val rk  = ranked(edges).cache()
    val deg = degrees(edges).cache()
    try {
      val winners: Vector[Option[Neighborhood]] = (0 until c).toVector.map { i =>
        val d1 = InsertionOnlyND.threshold(i, d, c)
        // Uniform s-sample of {a : deg(a) >= d1} via hash priority.
        val sampled = deg
          .filter(col("deg") >= d1)
          .withColumn("prio", xxhash64(col("a"), lit(seed), lit(i)))
          .orderBy("prio")
          .limit(s)
        // A sampled vertex yields a full neighborhood iff it still has d2
        // edges from rank d1 onwards, i.e. deg >= d1 + d2 - 1.
        val winner = sampled
          .filter(col("deg") >= d1.toLong + d2 - 1)
          .orderBy("prio")
          .limit(1)
          .collect()
          .headOption
        winner.map { row =>
          val a = row.getAs[Long]("a")
          val nbrs = rk
            .filter(col("a") === a && col("rank").between(d1, d1.toLong + d2 - 1))
            .orderBy("rank")
            .select("b")
            .collect()
            .map(_.getLong(0))
            .toVector
          Neighborhood(a, nbrs)
        }
      }
      val successes = winners.flatten
      val out =
        if (successes.isEmpty) None
        else Some(successes(new Random(seed).nextInt(successes.size)))
      SparkDegResResult(out, winners.map(_.nonEmpty), s)
    } finally {
      rk.unpersist(); deg.unpersist()
    }
  }
}
