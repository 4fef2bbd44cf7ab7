package repro.core

/** Word-level space accounting so measured space can be diffed against the
  * paper's O(.) bounds.
  *
  * Convention (matches the paper's accounting): one machine word of
  * O(log n) bits per stored vertex id, degree counter, or sketch counter;
  * O(1) words per stored edge. Structures report their *peak* footprint in
  * words so that transient states (e.g. a full reservoir later evicted)
  * are charged.
  */
trait SpaceMeter {
  /** Current number of words held by this structure. */
  def currentWords: Long

  @volatile private var peak: Long = 0L

  /** Call after every mutation; tracks the high-water mark. */
  protected def touch(): Unit = {
    val c = currentWords
    if (c > peak) peak = c
  }

  /** Peak number of words ever held. */
  def peakWords: Long = math.max(peak, currentWords)
}
