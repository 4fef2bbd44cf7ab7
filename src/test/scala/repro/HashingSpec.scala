package repro

import org.scalatest.funsuite.AnyFunSuite

/** The priority hash every sampler draws from. */
class HashingSpec extends AnyFunSuite {

  private val grid = for (seed <- 1L to 64L; a <- 1L to 64L) yield (seed, a)

  test("priority is non-negative and deterministic") {
    for ((seed, a) <- grid; run <- Seq(-1, 0, 3)) {
      val p = Hashing.priority(seed, run, a)
      assert(p >= 0, s"priority($seed, $run, $a) = $p")
      assert(Hashing.priority(seed, run, a) == p)
    }
  }

  test("priority does not alias (seed, a) pairs within a run") {
    // A hash of seed ^ a would map (1, 2) and (2, 1) to one value.
    assert(grid.map { case (seed, a) => Hashing.priority(seed, 0, a) }.distinct.size == 64 * 64)
  }

  test("priority separates runs of one seed") {
    assert((0 until 64).map(Hashing.priority(1L, _, 1L)).distinct.size == 64)
  }
}
