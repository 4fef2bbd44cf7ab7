package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, SynthData, SynthGraphs}

/** Tests for the motivating application: frequent elements with witnesses.
  * Includes DuckDB-oracle cross-checks of the ground-truth frequencies.
  */
class FrequentWitnessSpec extends SparkSpec {

  test("zipf witness stream: frequencies sum to stream length and are exact") {
    val (recs, freq) = SynthGraphs.zipfWitnessStream(nItems = 100, total = 2000, alpha = 1.1, seed = 1)
    assert(recs.size.toLong == freq.values.sum)
    val counted = recs.groupBy(_.item).map { case (k, v) => k -> v.size.toLong }
    assert(counted == freq.filter(_._2 > 0))
  }

  test("witness ids are unique within the stream (simple-graph requirement)") {
    val (recs, _) = SynthGraphs.zipfWitnessStream(nItems = 50, total = 500, alpha = 1.0, seed = 2)
    assert(recs.map(_.witness).distinct.size == recs.size)
  }

  for (c <- Seq(2, 3, 4)) test(s"reports a frequent item with floor(d/c) true witnesses (c=$c)") {
    val (recs, freq) = SynthGraphs.zipfWitnessStream(nItems = 200, total = 4000, alpha = 1.1, seed = 10L + c)
    val d = freq.values.max.toInt // promise: the top item reaches d
    val report = FrequentWitness.runDetailed(recs, nItems = 200, d = d, c = c, seed = 20L + c)._1
    assert(report.nonEmpty, "promise holds, so the algorithm must succeed whp")
    val r = report.get
    assert(r.witnessCount == math.max(1, d / c))
    // the reported witnesses are distinct occurrences of the item
    assert(Neighborhood.isValid(Neighborhood(r.item, r.witnesses), SynthGraphs.adjacency(recs.map(w => Edge(w.item, w.witness)))))
  }

  test("reported item is actually frequent (>= d/c occurrences)") {
    val (recs, freq) = SynthGraphs.zipfWitnessStream(nItems = 100, total = 3000, alpha = 1.2, seed = 31)
    val d = freq.values.max.toInt
    val (report, _) = FrequentWitness.runDetailed(recs, 100, d, 2, seed = 32)
    val r = report.get
    assert(freq(r.item) >= d / 2, s"item ${r.item} has freq ${freq(r.item)} < ${d / 2}")
  }

  test("TPC-H-lite: ground-truth part frequencies oracle-checked vs DuckDB") {
    val li = SynthData.lineitem(spark, sf = 0.002, seed = 0).cache()
    try {
      val sparkFreq = li.groupBy("l_partkey").agg(count(lit(1)) as "cnt")
      Oracle.assertEquivalent(
        sparkFreq,
        "SELECT l_partkey, count(*) AS cnt FROM lineitem GROUP BY l_partkey",
        "lineitem" -> li)
    } finally li.unpersist()
  }

  test("TPC-H-lite witness stream: algorithm reports a frequent part with valid order witnesses") {
    val (recs, freq) = SynthGraphs.lineitemWitnessStream(spark, sf = 0.002)
    val d = freq.values.max.toInt
    assert(d >= 2, s"need a frequent part in the sample, max freq = $d")
    val c = 2
    val report = FrequentWitness.runDetailed(recs, nItems = freq.keys.max, d = d, c = c, seed = 44)._1
    assert(report.nonEmpty)
    val r = report.get
    assert(freq.getOrElse(r.item, 0L) >= d / c)
    assert(Neighborhood.isValid(Neighborhood(r.item, r.witnesses), SynthGraphs.adjacency(recs.map(w => Edge(w.item, w.witness)))))
  }

  test("witness records map to the documented bipartite edges") {
    val recs = Seq(WitnessRecord(3, 100), WitnessRecord(3, 101), WitnessRecord(5, 102))
    val (report, res) = FrequentWitness.runDetailed(recs, nItems = 5, d = 2, c = 2, seed = 9)
    // Item -> A-vertex, witness -> B-vertex: the same run as on these edges.
    val edges = Seq(Edge(3, 100), Edge(3, 101), Edge(5, 102))
    assert(res == InsertionOnlyND.run(edges, n = 5, d = 2, c = 2, seed = 9))
    assert(res.succeeded)
    assert(report == res.output.map(nb => FrequentItemReport(nb.a, nb.neighbors)))
    assert(Neighborhood.isValid(res.output.get, SynthGraphs.adjacency(edges)))
  }
}
