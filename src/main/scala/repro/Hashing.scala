package repro

/** Hashing shared by the ℓ₀-sketches, their seeds, and every priority sampler. */
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

  /** Uniform non-negative 63-bit priority of item `a` in run `run`; the s
    * least (priority, a) of a set are a uniform s-subset of it. SplitMix64
    * is nested over seed, run, a, not fed their XOR, so inputs do not alias,
    * and a non-negative Long sorts alike in Scala and Spark SQL.
    */
  def priority(seed: Long, run: Int, a: Long): Long =
    splitmix64(splitmix64(splitmix64(seed) + run) + a) >>> 1
}
