package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.OracleGreedy
import Alloc.Alloc

/** Pins the outputs of every lazy-greedy site — `Greedy`, ThresholdGreedy's
  * threshold phase, `Fill` and CA/CS-Greedy — on the Search instance
  * families: kinds 0–2, h ∈ {1, 2, 3, 5}, several seeds and budget scales.
  * Each test folds its outputs (allocations, `b`, the raw bits of π) into
  * one checksum. The constants were computed by the per-site loops these
  * algorithms had before they shared `LazyGreedy`, so a change to the tie
  * order (which element of two equal keys pops first) fails here.
  */
class GreedyPinSpec extends AnyFunSuite {

  private lazy val instances: Seq[RMProblem] = for {
    kind <- 0 to 2
    h <- Seq(1, 2, 3, 5)
    seed <- 1L to 10L
    scale <- Seq(0.25, 0.5, 1.0, 2.0, 4.0)
  } yield TestInstances.searchInstance(kind, 1000 * seed + 17 * h + kind, h, scale)

  /** An order-sensitive 64-bit fold of ints and longs. */
  private final class Checksum {
    private var acc = 0x2545f4914f6cdd1dL
    def long(x: Long): Unit = acc = (acc ^ x) * 0x100000001b3L + 0x9e3779b97f4a7c15L
    def int(x: Int): Unit = long(x.toLong)
    def double(x: Double): Unit = long(java.lang.Double.doubleToRawLongBits(x))
    def seeds(s: IndexedSeq[Int]): Unit = { int(s.size); s.foreach(int) }
    def alloc(a: Alloc): Unit = { int(a.size); a.foreach(seeds) }
    def value: Long = acc
  }

  private def checksum(f: (RMProblem, Checksum) => Unit): Long = {
    val c = new Checksum
    instances.foreach(f(_, c))
    c.value
  }

  /** γ from 0 to γ_max in eighths. */
  private def gammas(prob: RMProblem): Seq[Double] = (0 to 8).map(k => prob.gammaMax * k / 8)

  test("Greedy: all nodes and a restricted candidate list, every advertiser") {
    val got = checksum { (prob, c) =>
      for (i <- 0 until prob.h) {
        c.seeds(Greedy.run(prob, (0 until prob.n).toVector, i))
        c.seeds(Greedy.run(prob, (0 until prob.n).filter(u => (u + i) % 3 != 0).toVector, i))
      }
    }
    assert(got == GreedyPinSpec.GreedySum, s"checksum $got")
  }

  test("ThresholdGreedy over a γ sweep: alloc, b and the bits of pi") {
    val got = checksum { (prob, c) =>
      for (g <- gammas(prob)) {
        val r = ThresholdGreedy.run(prob, g)
        c.alloc(r.alloc); c.int(r.b); c.double(r.pi)
      }
    }
    assert(got == GreedyPinSpec.ThresholdSum, s"checksum $got")
  }

  test("Fill from the empty allocation and from a partial one") {
    val got = checksum { (prob, c) =>
      c.alloc(ThresholdGreedy.fill(prob, Alloc.empty(prob.h)))
      val partial = ThresholdGreedy.run(prob, prob.gammaMax / 2).alloc.map(_.take(1))
      c.alloc(ThresholdGreedy.fill(prob, partial))
    }
    assert(got == GreedyPinSpec.FillSum, s"checksum $got")
  }

  test("CA-Greedy and CS-Greedy") {
    val got = checksum { (prob, c) =>
      c.alloc(OracleGreedy.caGreedy(prob))
      c.alloc(OracleGreedy.csGreedy(prob))
    }
    assert(got == GreedyPinSpec.OracleSum, s"checksum $got")
  }
}

object GreedyPinSpec {
  val GreedySum = -3217291867688702574L
  val ThresholdSum = 8291216659245147830L
  val FillSum = 4551976889801771306L
  val OracleSum = -8842784688524261228L
}
