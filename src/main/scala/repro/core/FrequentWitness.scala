package repro.core

/** One stream record of the motivating application: an item occurrence
  * carrying its witness (a timestamp, user id, source IP, ...).
  *
  * Witness ids must be distinct per occurrence of the same item (e.g. a
  * timestamp or a unique event id) so that the derived bipartite graph is
  * simple, matching the paper's model.
  */
final case class WitnessRecord(item: Long, witness: Long)

/** A frequent item reported together with a subset of its witnesses. */
final case class FrequentItemReport(item: Long, witnesses: Vector[Long]) {
  def witnessCount: Int = witnesses.size
}

/** Frequent elements *with witnesses* (the paper's title problem).
  *
  * A stream of (item, witness) records is exactly an edge stream of the
  * bipartite graph with items as A-vertices and witnesses as B-vertices, so
  * an item occurring >= d times is an A-vertex of degree >= d, and
  * Neighborhood Detection returns the item together with >= floor(d/c) of
  * its witnesses. Classic heavy-hitter sketches (Misra-Gries, SpaceSaving;
  * see repro.baseline) find the item but can report zero witnesses — the
  * gap this paper fills.
  */
object FrequentWitness {

  /** Run the insertion-only algorithm over a witness stream; returns the
    * report (None = every run failed) and the underlying run's diagnostics.
    *
    * @param records stream of (item, witness) occurrences
    * @param nItems  number of possible items (|A|)
    * @param d       frequency threshold (promise: some item occurs >= d times)
    * @param c       approximation factor >= 2
    */
  def runDetailed(records: IterableOnce[WitnessRecord], nItems: Long, d: Int,
                  c: Int, seed: Long): (Option[FrequentItemReport], InsertionOnlyResult) = {
    val res = InsertionOnlyND.run(
      records.iterator.map(r => Edge(r.item, r.witness)), nItems, d, c, seed)
    (report(res), res)
  }

  /** The report of an Algorithm 2 result: its output's item and witnesses. */
  def report(res: InsertionOnlyResult): Option[FrequentItemReport] =
    res.output.map(nb => FrequentItemReport(nb.a, nb.neighbors))
}
