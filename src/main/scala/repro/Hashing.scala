package repro

/** Hashing shared by the ℓ₀-sampler and the streaming witness operator. */
object Hashing {

  /** One SplitMix64 step: add the golden-ratio increment, then mix. A
    * bijection on 64-bit words whose outputs pass as independent uniform
    * bits for distinct inputs.
    */
  @inline def splitmix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
