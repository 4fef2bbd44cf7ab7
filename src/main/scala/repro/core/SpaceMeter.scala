package repro.core

/** Word-level space accounting so measured space can be diffed against the
  * paper's O(.) bounds.
  *
  * Convention (matches the paper's accounting): one machine word of
  * O(log n) bits per stored vertex id, degree counter, or sketch counter;
  * O(1) words per stored edge. Structures report their *peak* footprint in
  * words so that transient states (e.g. a full reservoir later evicted)
  * are charged.
  *
  * The count is kept running: every mutation charges the words it stores
  * and releases the words it frees, so accounting costs O(1) per mutation
  * whatever the size of the structure.
  */
trait SpaceMeter {
  private var words: Long = 0L
  private var peak: Long  = 0L

  /** Charge `w` newly stored words; tracks the high-water mark. */
  protected final def charge(w: Long): Unit = {
    words += w
    if (words > peak) peak = words
  }

  /** Release `w` words that are no longer stored. */
  protected final def release(w: Long): Unit = words -= w

  /** Current number of words held by this structure. */
  final def currentWords: Long = words

  /** Peak number of words ever held. */
  final def peakWords: Long = peak
}
