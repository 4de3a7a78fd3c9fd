package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.rrset.TestSets
import Alloc.Alloc

class SeedingSpec extends AnyFunSuite {

  // n = 4, cpe = (1, 1), 8 sets: each covered set is worth nΓ/|R| = 1.
  private val rr = TestSets.collection(4, Array(1.0, 1.0), Seq(
    0 -> Seq(0, 1), 0 -> Seq(0), 0 -> Seq(1, 2), 0 -> Seq(3),
    1 -> Seq(2, 3), 1 -> Seq(2), 1 -> Seq(0, 3), 1 -> Seq(1)))
  private def problem(b0: Double): RMProblem =
    new RMProblem(rr, Array(b0, 10.0), Array.fill(2, 4)(0.5))

  test("fits accepts a spend that lands on B_i and rejects one past the 1e-9 slack") {
    // With S_0 = {0}: c_0(S_0) + π_0(S_0) = 0.5 + 2, and node 1 adds 0.5 + 1.
    def fitsNode1(b0: Double): Boolean = {
      val sd = Seeding.empty(problem(b0))
      sd.add(0, 0)
      assert(sd.sess.gain(1, 0) == 1.0)
      sd.fits(0, 1, sd.sess.gain(1, 0))
    }
    assert(fitsNode1(4.0))
    assert(fitsNode1(4.0 - 0.5e-9))
    assert(!fitsNode1(4.0 - 2e-9))
  }

  test("Seeding.of holds exactly the start allocation") {
    val a: Alloc = Vector(Vector(1, 0), Vector(2))
    val sd = Seeding.of(problem(10.0), a)
    assert(sd.alloc == a)
    assert((0 until 4).filter(sd.has) == Seq(0, 1, 2))
    sd.add(1, 3)
    assert(sd.alloc == Vector(Vector(1, 0), Vector(2, 3)))
    assert(sd.has(3))
  }

  test("pi equals Alloc.piTotal bit for bit, and rate is the session's gain over the seed cost") {
    for (seed <- 1L to 5L) {
      val prob = TestInstances.randomRRInstance(seed, 30, 3, 1.0)
      val a: Alloc = Vector(Vector(0, 4, 9), Vector(2, 11), Vector(7, 3, 20, 25))
      val sd = Seeding.of(prob, a)
      assert(java.lang.Double.doubleToRawLongBits(sd.pi) ==
        java.lang.Double.doubleToRawLongBits(Alloc.piTotal(prob.oracle, a)), s"seed=$seed")
      for (i <- 0 until prob.h; u <- 0 until prob.n)
        assert(sd.rate(i, u) == RevenueSession.rate(sd.sess.gain(u, i), prob.costs(i)(u)))
    }
  }
}
