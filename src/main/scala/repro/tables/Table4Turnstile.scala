package repro.tables

import org.apache.spark.sql.SparkSession
import scala.util.Random

import repro.SynthGraphs
import repro.core.{Edge, Neighborhood}
import repro.sketch.TurnstileConfig
import repro.spark.SparkL0

/** Table 4 — turnstile Neighborhood Detection (Theorem 5.4, Lemmas
  * 5.2/5.3): success rate, sketch words vs the dn/c² law, and the vertex-
  * vs edge-sampling strategy split across the two degree regimes, under
  * streams with deletions. Sketch builds run distributed via SparkL0.
  *
  * The checks read the scaled block (cv, ce). A second block runs the
  * paper's cv = ce = 10, where A' = A whenever c < 10·ln n, so it shows
  * success, validity and words but not the crossover.
  */
object Table4Turnstile {

  final case class Cell(regime: String, cv: Double, ce: Double, n: Long, d: Int, c: Int,
                        trials: Int, successes: Int, valid: Int, vertexOk: Int, edgeOk: Int,
                        vertexFailures: Int, edgeFailures: Int, avgWords: Long, peakWords: Long)

  private val N      = 512L
  private val M      = 4096L
  private val D      = 32
  private val Cs     = Seq(2, 4, 8)
  private val Chaff  = 0.3
  private val Trials = 3
  private val Cv     = 0.5
  private val Ce     = 0.2

  /** Many-heavy: >= n/x vertices of degree >= d/c (Lemma 5.2 regime).
    * Single-heavy: one planted degree-d vertex, background degree 1-2
    * (Lemma 5.3 regime).
    */
  private def instance(regime: String, c: Int, seed: Long): Vector[Edge] = regime match {
    case "many-heavy" =>
      val rng = new Random(seed)
      val x = math.max(N.toDouble / c, math.sqrt(N.toDouble))
      val nHeavy = math.min(N, math.max(2L, math.ceil(2 * N / x).toLong))
      rng.shuffle((1L to N).flatMap { a =>
        val deg = if (a <= nHeavy) D else 2
        (1 to deg).map(i => Edge(a, ((a * 7919 + i * 104729) % M) + 1))
      }.toVector).distinct
    case "single-heavy" =>
      SynthGraphs.uniformPlusPlanted(N, M, D, bg = 2, seed)._1
    case other => throw new IllegalArgumentException(s"unknown regime $other")
  }

  private def block(spark: SparkSession, cv: Double, ce: Double): Seq[Cell] =
    for {
      regime <- Seq("many-heavy", "single-heavy")
      c <- Cs
    } yield {
      var succ = 0; var valid = 0; var vOk = 0; var eOk = 0; var vFail = 0; var eFail = 0
      var words = 0L; var peak = 0L
      for (t <- 1 to Trials) {
        val edges = instance(regime, c, seed = 100L * t + c)
        val ops = SynthGraphs.turnstileFrom(edges, M, Chaff, seed = 200L * t + c)
        val adj = SynthGraphs.adjacencyOf(ops)
        val cfg = TurnstileConfig(N, M, D, c, seed = 300L * t + c, cv, ce, buckets = 6)
        val res = SparkL0.run(spark, ops, cfg)
        words += res.totalWords
        peak = math.max(peak, res.totalWords)
        vFail += res.vertexDecodeFailures
        eFail += res.edgeDecodeFailures
        if (res.vertexBestSize.nonEmpty) vOk += 1
        if (res.edgeBestSize.nonEmpty) eOk += 1
        res.output.foreach { nb =>
          succ += 1
          if (Neighborhood.isValid(nb, adj)) valid += 1
        }
      }
      Cell(regime, cv, ce, N, D, c, Trials, succ, valid, vOk, eOk, vFail, eFail, words / Trials, peak)
    }

  def run(spark: SparkSession): TableOutput = {
    val cells = block(spark, Cv, Ce)
    val paper = block(spark, cv = 10.0, ce = 10.0)
    val theory = Cs.map(c => c -> (N.toDouble * D / (c.toDouble * c))).toMap
    val rows = (cells ++ paper).map { cl =>
      Vector(cl.regime, s"${cl.cv}/${cl.ce}", cl.n.toString, cl.d.toString, cl.c.toString,
        s"${cl.successes}/${cl.trials}", s"${cl.valid}/${cl.successes}",
        s"${cl.vertexOk}/${cl.edgeOk}", s"${cl.vertexFailures}/${cl.edgeFailures}",
        TableFormat.words(cl.avgWords),
        TableFormat.words(theory(cl.c).toLong))
    }.toVector
    val manyHeavy   = cells.filter(_.regime == "many-heavy")
    val singleHeavy = cells.filter(_.regime == "single-heavy")
    TableOutput(
      title = "Table 4: turnstile ND with deletions (paper: space ~ dn/c^2; vertex sampling wins iff #heavy >= n/x)",
      header = Vector("regime", "cv/ce", "n", "d", "c", "succ", "valid", "vOk/eOk", "vFail/eFail",
        "words", "dn/c^2"),
      rows = rows,
      checks = Vector(
        ("T4: every cell succeeds in every trial",
          cells.forall(cl => cl.successes == cl.trials)),
        ("T4: every output validates against the post-deletion graph",
          cells.forall(cl => cl.valid == cl.successes)),
        ("T4: many-heavy regime: vertex sampling succeeds on its own in every trial (Lemma 5.2)",
          manyHeavy.forall(cl => cl.vertexOk == cl.trials)),
        ("T4: single-heavy regime: edge sampling succeeds on its own in every trial (Lemma 5.3)",
          singleHeavy.forall(cl => cl.edgeOk == cl.trials)),
        ("T4: single-heavy regime: vertex sampling alone is not reliable at large c",
          singleHeavy.exists(cl => cl.vertexOk < cl.trials)),
        ("T4: measured words decrease in c (dn/c^2 shape)",
          Seq(manyHeavy, singleHeavy).forall(g =>
            g.sortBy(_.c).sliding(2).forall {
              case Seq(a, b) => b.avgWords < a.avgWords; case _ => true })),
      ),
      notes = Vector(
        s"checks read the cv/ce = $Cv/$Ce block (paper uses 10/10 for whp proofs); chaff=$Chaff of edges inserted+deleted.",
        "vFail/eFail: vertex / edge sketches that failed to decode, summed over the trials.",
        s"paper-constant block: peak words ${TableFormat.words(paper.map(_.peakWords).max)}."),
    )
  }
}
