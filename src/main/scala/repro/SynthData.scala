package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic TPC-H-lite `lineitem` table at a configurable scale factor,
  * reduced to `l_partkey`, the one column the witness streams read.
  *
  * SF=1.0 has TPC-H SF1's 6M rows. Tests use SF<=0.01. The generator is
  * deterministic in (sf, seed) so the DuckDB oracle sees identical input.
  * The part key's generator seed, seed + 1, fixes Table 5's lineitem row
  * and the oracle test's input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame =
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed + 1) * n(NPartPerSf, sf) + 1).cast(LongType) as "l_partkey")
}
