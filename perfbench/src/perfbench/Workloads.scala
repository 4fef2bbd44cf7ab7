package perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.SynthGraphs
import repro.baseline.{ExactND, MisraGries, SpaceSaving}
import repro.core.{Edge, FrequentWitness, InsertionOnlyND, Neighborhood, StarDetection, WitnessRecord}
import repro.sketch.{TurnstileConfig, TurnstileND, TurnstileResult}
import repro.spark.{SparkDegRes, SparkL0, StreamingWitness}

/** One checked call into a layer. `run` returns None when the answer passes
  * its check, else why it failed; it may also throw.
  */
final case class Query(id: String, records: Long, run: () => Option[String])

/** A workload's inputs, generated from the seed, and the queries of one pass. */
final case class Prepared(queries: Vector[Query], inputs: Vector[(String, Long)])

/** Per-pass quantities the program reports (words, success flags), added
  * to by the workers of a parallel pass.
  */
final class Tally {
  private val m = mutable.LinkedHashMap.empty[String, Double]
  def add(k: String, v: Double): Unit = synchronized { m.update(k, m.getOrElse(k, 0.0) + v) }
  def take(): Map[String, Double] = synchronized { val out = m.toMap; m.clear(); out }
}

/** What a workload's set-up and queries run against. */
final case class Env(tracer: Tracer, tally: Tally, spark: Option[SparkSession]) {
  def session: SparkSession = spark.getOrElse(sys.error("workload needs a SparkSession"))
}

/** Input sizes. `full` is what the benchmark measures; `tiny` is for the
  * smoke test.
  */
final case class Scale(
    items: Long,            // witness-stream items (|A|)
    zipfRecords: Long,      // insert-zipf witness stream
    witnessSeeds: Int,      // FrequentWitness runs per c, each with its own seed
    starN: Long,            // insert-zipf planted star, Table 2 shape
    starD: Int,
    sdN: Long,              // Star Detection graph, Table 6 shape
    sdDeg: Int,
    baseStreams: Int,       // baseline-zipf witness streams, Table 5 shape
    baseRecords: Long,      // records per baseline-zipf stream
    tsN: Long,              // turnstile-df, Table 4 shape
    tsM: Long,
    tsD: Int,
    degresN: Long,          // turnstile-df planted star for SparkDegRes
    degresD: Int,
    batchRecords: Long,     // stream-witness records per query
    setupRounds: Int,       // input-generation rounds in set-up; the median counts
)

object Scale {
  val full = Scale(items = 2000, zipfRecords = 80000, witnessSeeds = 16, starN = 10000, starD = 256,
    sdN = 2048, sdDeg = 128, baseStreams = 16, baseRecords = 12500, tsN = 256, tsM = 4096, tsD = 32,
    degresN = 1000, degresD = 64, batchRecords = 2000, setupRounds = 3)
  val tiny = Scale(items = 200, zipfRecords = 5000, witnessSeeds = 2, starN = 500, starD = 64,
    sdN = 256, sdDeg = 48, baseStreams = 2, baseRecords = 3000, tsN = 64, tsM = 512, tsD = 16,
    degresN = 300, degresD = 48, batchRecords = 300, setupRounds = 2)
  def apply(name: String): Scale = name match {
    case "full" => full
    case "tiny" => tiny
    case other  => throw new IllegalArgumentException(s"unknown scale $other")
  }
}

/** The four workloads. Each generates its inputs with [[repro.SynthGraphs]]
  * from the seed; the program under test sees only those inputs. Why each
  * workload exists is stated in BENCHMARK.json and perfbench/README.md.
  */
object Workloads {
  val names: Vector[String] = Vector("insert-zipf", "baseline-zipf", "turnstile-df", "stream-witness")
  def usesSpark(name: String): Boolean = name == "turnstile-df" || name == "stream-witness"
  /** Spark calls already spread over the cores, and turnstile-df checks
    * each SparkL0 call against the sequential result of the same pass; so
    * only the other workloads run a pass's queries on parallel workers.
    */
  def parallel(name: String): Boolean = !usesSpark(name)

  def prepare(name: String, seed: Long, sz: Scale, env: Env): Prepared = name match {
    case "insert-zipf"    => insertZipf(seed, sz, env)
    case "baseline-zipf"  => baselineZipf(seed, sz, env)
    case "turnstile-df"   => turnstileDf(seed, sz, env)
    case "stream-witness" => streamWitness(seed, sz, env)
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  val ZipfAlpha = 1.1

  /** None if `nb` is a true neighborhood of exactly `size` neighbors. */
  def checkNeighborhood(nb: Neighborhood, adj: Map[Long, Set[Long]], size: Int): Option[String] =
    if (!Neighborhood.isValid(nb, adj)) Some(s"vertex ${nb.a}: neighbors not valid")
    else if (nb.size != size) Some(s"vertex ${nb.a}: size ${nb.size}, expected $size")
    else None

  private def witnessEdges(recs: Vector[WitnessRecord]): Vector[Edge] =
    recs.map(r => Edge(r.item, r.witness))

  // ---- insert-zipf: layer core -------------------------------------------

  private def insertZipf(seed: Long, sz: Scale, env: Env): Prepared = {
    val t = env.tracer
    val (recs, freq) = t.span("synth.zipf_witness_stream") {
      SynthGraphs.zipfWitnessStream(sz.items, sz.zipfRecords, ZipfAlpha, seed) }
    val d = freq.values.max.toInt
    val adj = t.span("synth.adjacency") { SynthGraphs.adjacency(witnessEdges(recs)) }

    val (star, _) = t.span("synth.planted_star") {
      SynthGraphs.plantedStar(sz.starN, 4 * sz.starN, sz.starD, maxBg = 32, seed) }
    val starAdj = t.span("synth.adjacency") { SynthGraphs.adjacency(star) }

    // Star Detection runs on a general graph: a planted star over V x V,
    // read as undirected pairs without self-loops or repeated pairs.
    val (g, _) = t.span("synth.planted_star") {
      SynthGraphs.plantedStar(sz.sdN, sz.sdN, sz.sdDeg, maxBg = 8, seed + 1) }
    val pairs = g.iterator.filter(e => e.a != e.b)
      .map(e => (math.min(e.a, e.b), math.max(e.a, e.b))).distinct.toVector
    val undirected = t.span("synth.adjacency") {
      SynthGraphs.adjacency(pairs.flatMap { case (u, v) => Vector(Edge(u, v), Edge(v, u)) }) }
    val maxDeg = undirected.valuesIterator.map(_.size).max
    val sdC = math.ceil(math.log(sz.sdN.toDouble)).toInt
    val sdEps = 0.5

    def tallyRuns(res: repro.core.InsertionOnlyResult, c: Int): Unit = {
      env.tally.add("core.run_peak_words", res.runPeakWords.sum.toDouble)
      env.tally.add("core.degree_words", res.degreeWords.toDouble)
      env.tally.add("core.runs_succeeded", res.runSucceeded.count(identity).toDouble)
      env.tally.add("core.runs", c.toDouble)
      env.tally.add("peak_words", res.totalPeakWords.toDouble)
    }

    // Which heavy items land in run 0's reservoir decides how much it
    // collects, so one run's time swings with its seed; several seeds per c
    // keep a pass's work close to its expectation.
    val witness = for (c <- Vector(2, 3, 4); r <- 1 to sz.witnessSeeds) yield {
      Query(s"frequent_witness/c=$c/run=$r", recs.size.toLong, () => {
        val (report, res) = t.span("core.frequent_witness", recs.size.toLong) {
          FrequentWitness.runDetailed(recs, sz.items, d, c, seed * 1009 + c * 101 + r) }
        tallyRuns(res, c)
        report match {
          case None    => Some("no answer")
          case Some(r) => checkNeighborhood(Neighborhood(r.item, r.witnesses), adj,
                            InsertionOnlyND.targetSize(d, c))
        }
      })
    }
    val insertion = Vector(2, 4, 6).map { c =>
      Query(s"insertion_only/c=$c", star.size.toLong, () => {
        val res = t.span("core.insertion_only", star.size.toLong) {
          InsertionOnlyND.run(star, sz.starN, sz.starD, c, seed * 37 + c) }
        tallyRuns(res, c)
        res.output match {
          case None     => Some("no answer")
          case Some(nb) => checkNeighborhood(nb, starAdj, InsertionOnlyND.targetSize(sz.starD, c))
        }
      })
    }
    val starQuery = Query(s"star_detection/c=$sdC", pairs.size.toLong, () => {
      val res = t.span("core.star_detection", pairs.size.toLong) {
        StarDetection.run(pairs, sz.sdN, sdC, sdEps, seed * 41) }
      env.tally.add("core.star_detection.peak_words", res.totalPeakWords.toDouble)
      env.tally.add("peak_words", res.totalPeakWords.toDouble)
      res.output match {
        case None => Some("no answer")
        case Some(nb) =>
          // Corollary 3.3: the answer is one guess's floor(guess/c)
          // neighborhood, within (1+eps)c of the maximum degree.
          val sizes = res.guesses.map(InsertionOnlyND.targetSize(_, sdC)).toSet
          if (!Neighborhood.isValid(nb, undirected)) Some(s"vertex ${nb.a}: neighbors not valid")
          else if (!sizes.contains(nb.size)) Some(s"size ${nb.size} is no guess's floor(guess/c)")
          else if (maxDeg.toDouble / nb.size > (1 + sdEps) * sdC)
            Some(s"ratio ${maxDeg.toDouble / nb.size} above ${(1 + sdEps) * sdC}")
          else None
      }
    })
    Prepared(witness ++ insertion :+ starQuery, Vector(
      "zipf_items" -> sz.items, "zipf_records" -> recs.size.toLong, "zipf_d" -> d.toLong,
      "star_n" -> sz.starN, "star_d" -> sz.starD.toLong, "star_edges" -> star.size.toLong,
      "sd_n" -> sz.sdN, "sd_edges" -> pairs.size.toLong, "sd_max_degree" -> maxDeg.toLong))
  }

  // ---- baseline-zipf: layer baseline -------------------------------------

  private def baselineZipf(seed: Long, sz: Scale, env: Env): Prepared = {
    val t = env.tracer
    val k = InsertionOnlyND.reservoirSize(sz.items, 2)
    // Several independent streams, so that a parallel pass has many calls
    // to spread over its workers, and a pass's work does not hang on one
    // draw of the stream.
    val streams = (0 until sz.baseStreams).map { i =>
      val (recs, freq) = t.span("synth.zipf_witness_stream") {
        SynthGraphs.zipfWitnessStream(sz.items, sz.baseRecords, ZipfAlpha, seed * 1009 + i) }
      val adj = t.span("synth.adjacency") { SynthGraphs.adjacency(witnessEdges(recs)) }
      (i, recs, freq.values.max.toInt, freq.maxBy(_._2)._1, adj)
    }

    def topItem(name: String, top: Option[Long], trueTop: Long, words: Long): Option[String] = {
      env.tally.add(s"baseline.$name.peak_words", words.toDouble)
      env.tally.add("peak_words", words.toDouble)
      top match {
        case None                  => Some("no answer")
        case Some(i) if i != trueTop => Some(s"top item $i, true top $trueTop")
        case _                     => None
      }
    }
    val queries = streams.flatMap { case (i, recs, d, trueTop, adj) =>
      val n = recs.size.toLong
      Vector(
        Query(s"misra_gries/stream=$i/k=$k", n, () => {
          val mg = t.span("baseline.misra_gries", n) { new MisraGries(k).processAll(recs.iterator.map(_.item)) }
          topItem("misra_gries", mg.candidates.headOption.map(_._1), trueTop, mg.peakWords)
        }),
        Query(s"space_saving/stream=$i/k=$k", n, () => {
          val ss = t.span("baseline.space_saving", n) { new SpaceSaving(k).processAll(recs.iterator.map(_.item)) }
          topItem("space_saving", ss.candidates.headOption.map(_._1), trueTop, ss.peakWords)
        }),
        Query(s"exact_nd/stream=$i/d=$d", n, () => {
          val ex = t.span("baseline.exact_nd", n) {
            new ExactND(d).processAll(recs.iterator.map(r => Edge(r.item, r.witness))) }
          topItem("exact_nd", ex.best.map(_.a), trueTop, ex.peakWords)
            .orElse(checkNeighborhood(ex.best.get, adj, d))
        }),
      )
    }.toVector
    Prepared(queries, Vector("zipf_items" -> sz.items, "zipf_streams" -> sz.baseStreams.toLong,
      "zipf_records" -> streams.map(_._2.size.toLong).sum, "zipf_d_max" -> streams.map(_._3.toLong).max,
      "k" -> k.toLong))
  }

  // ---- turnstile-df: layers sketch and spark (batch builds) --------------

  private def turnstileDf(seed: Long, sz: Scale, env: Env): Prepared = {
    val t = env.tracer
    val spark = env.session
    val (n, m, d) = (sz.tsN, sz.tsM, sz.tsD)
    // The two Table 4 regimes: many vertices of degree >= d/c (Zipf degrees
    // with alpha 0.5: about c^2 of them), where vertex sampling succeeds
    // (Lemma 5.2); and one planted degree-d vertex over degree-2
    // background, where edge sampling must (Lemma 5.3). Each at the
    // extremes of c: c = 2 has the most edge samplers, c = 8 the fewest; a
    // middle c would lengthen the pass without exercising anything new.
    val cells = for (regime <- Vector("many-heavy", "single-heavy"); c <- Vector(2, 8)) yield {
      val s = seed * 1000 + c * 10 + (if (regime == "many-heavy") 1 else 2)
      val edges = regime match {
        case "many-heavy" => t.span("synth.zipf_degrees") {
          SynthGraphs.zipfDegrees(n, m, d, alpha = 0.5, minDeg = 1, s)._1 }
        case _ => t.span("synth.uniform_plus_planted") {
          SynthGraphs.uniformPlusPlanted(n, m, d, bg = 2, s)._1 }
      }
      val ops = t.span("synth.turnstile_from") { SynthGraphs.turnstileFrom(edges, m, 0.3, s + 7) }
      val adj = t.span("synth.adjacency_of") { SynthGraphs.adjacencyOf(ops) }
      val cfg = TurnstileConfig(n, m, d, c, s + 13, cv = 0.5, ce = 0.2, buckets = 6)
      // Sampler updates the sequential build makes: every op updates every
      // edge sampler, and the samplers of its vertex if that was sampled.
      val sampled = cfg.sampledVertices.toSet
      val updates = ops.iterator.map(op =>
        cfg.nEdgeSamplers.toLong + (if (sampled(op.edge.a)) cfg.samplersPerVertex else 0)).sum
      (regime, c, ops, adj, cfg, updates)
    }
    val sequential = mutable.HashMap.empty[String, TurnstileResult]

    def checkTurnstile(res: TurnstileResult, adj: Map[Long, Set[Long]], c: Int): Option[String] =
      res.output match {
        case None => Some("no answer")
        // The sketch reports every distinct sample of the winning vertex,
        // so a correct answer has at least floor(d/c) neighbors.
        case Some(nb) =>
          if (!Neighborhood.isValid(nb, adj)) Some(s"vertex ${nb.a}: neighbors not valid in the final graph")
          else if (nb.size < InsertionOnlyND.targetSize(d, c))
            Some(s"vertex ${nb.a}: size ${nb.size} below ${InsertionOnlyND.targetSize(d, c)}")
          else None
      }

    val sketchQueries = cells.flatMap { case (regime, c, ops, adj, cfg, updates) =>
      val key = s"$regime/c=$c"
      Vector(
        Query(s"turnstile_nd/$key", ops.size.toLong, () => {
          sequential.remove(key)
          val nd = t.span("sketch.turnstile_nd.build", updates) { new TurnstileND(cfg).processAll(ops) }
          val res = t.span("sketch.turnstile_nd.result") { nd.result() }
          sequential.update(key, res)
          env.tally.add("sketch.turnstile_nd.words", res.totalWords.toDouble)
          env.tally.add("peak_words", res.totalWords.toDouble)
          env.tally.add("sketch.runs", 1)
          if (res.vertexBestSize.nonEmpty) env.tally.add("sketch.vertex_ok", 1)
          if (res.edgeBestSize.nonEmpty) env.tally.add("sketch.edge_ok", 1)
          checkTurnstile(res, adj, c)
        }),
        Query(s"sparkl0/$key", ops.size.toLong, () => {
          val res = t.span("spark.sparkl0", ops.size.toLong) { SparkL0.run(spark, ops, cfg) }
          sequential.get(key) match {
            case None => Some("no sequential TurnstileND result to compare")
            case Some(seq) if seq != res => Some("differs from sequential TurnstileND on the same config")
            case _ => checkTurnstile(res, adj, c)
          }
        }),
      )
    }

    val (star, _) = t.span("synth.planted_star") {
      SynthGraphs.plantedStar(sz.degresN, 4 * sz.degresN, sz.degresD, maxBg = 32, seed) }
    val starAdj = t.span("synth.adjacency") { SynthGraphs.adjacency(star) }
    // Materialized before timing, and cut from the local Seq it was made
    // from: a cached DataFrame keeps that lineage, so every task reading it
    // would still carry its share of the stream.
    val df = t.span("synth.edges_df") { SynthGraphs.edgesDf(spark, star).localCheckpoint(eager = true) }
    // One c only: each call costs about a dozen Spark jobs, and a second c
    // would double the pass without exercising anything new.
    val degResC = 2
    val degRes = Query(s"sparkdegres/c=$degResC", star.size.toLong, () => {
      val res = t.span("spark.sparkdegres", star.size.toLong) {
        SparkDegRes.run(df, sz.degresN, sz.degresD, degResC, seed * 43 + degResC) }
      res.output match {
        case None     => Some("no answer")
        case Some(nb) => checkNeighborhood(nb, starAdj, InsertionOnlyND.targetSize(sz.degresD, degResC))
      }
    })
    Prepared(sketchQueries :+ degRes, Vector(
      "ts_n" -> n, "ts_m" -> m, "ts_d" -> d.toLong,
      "ts_ops" -> cells.map(_._3.size.toLong).sum,
      "ts_sampler_updates" -> cells.map(_._6).sum,
      "degres_n" -> sz.degresN, "degres_d" -> sz.degresD.toLong, "degres_edges" -> star.size.toLong))
  }

  // ---- stream-witness: layer spark (structured streaming) ----------------

  private def streamWitness(seed: Long, sz: Scale, env: Env): Prepared = {
    val t = env.tracer
    val spark = env.session
    val (recs, freq) = t.span("synth.zipf_witness_stream") {
      SynthGraphs.zipfWitnessStream(sz.items, sz.batchRecords, ZipfAlpha, seed) }
    val adj = t.span("synth.adjacency") { SynthGraphs.adjacency(witnessEdges(recs)) }
    val d = freq.values.max.toInt
    val cfg = StreamingWitness.Config(sz.items, d, c = 2, seed = seed * 47)
    val q = Query("streaming_witness/c=2", recs.size.toLong, () => {
      // One micro-batch per query: at 64 state partitions a micro-batch
      // takes 3-5 s on 4 cores, and each added batch would leave fewer
      // passes in a run to take the median of. runMicroBatched is a closed
      // loop: it adds a batch only after processAllAvailable has returned.
      val (report, _, _) = t.span("spark.streaming", recs.size.toLong) {
        StreamingWitness.runMicroBatched(spark, recs, 1, cfg) }
      report match {
        case None    => Some("no answer")
        case Some(r) => checkNeighborhood(Neighborhood(r.item, r.witnesses), adj, cfg.d2)
      }
    })
    Prepared(Vector(q), Vector("zipf_items" -> sz.items, "zipf_records" -> recs.size.toLong,
      "zipf_d" -> d.toLong, "micro_batches_per_query" -> 1L))
  }
}
