package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ThresholdGreedySpec extends AnyFunSuite {

  test("gamma=0 on easy instance selects greedily and stays feasible") {
    val prob = TestInstances.randomDeterministicInstance(3, n = 6, h = 2)
    val r = ThresholdGreedy.run(prob, 0.0)
    for (i <- 0 until prob.h)
      assert(TestInstances.payment(prob, i, r.alloc(i)) <= prob.budgets(i) + 1e-6)
    assert(Alloc.disjoint(r.alloc))
  }

  test("huge gamma selects nothing in the threshold phase but Fill tops up") {
    val prob = TestInstances.randomDeterministicInstance(4, n = 6, h = 2)
    val r = ThresholdGreedy.run(prob, 1e9)
    // b must be 0: no element clears rate ≥ 1e9/B
    assert(r.b == 0)
    // Fill still runs, so the allocation need not be empty — but feasible.
    for (i <- 0 until prob.h)
      assert(TestInstances.payment(prob, i, r.alloc(i)) <= prob.budgets(i) + 1e-6)
  }

  test("b counts depleted advertisers and is within [0,h]") {
    for (seed <- 1 to 10) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = 2)
      val r = ThresholdGreedy.run(prob, 0.5)
      assert(r.b >= 0 && r.b <= prob.h)
    }
  }

  test("allocations are disjoint across advertisers (partition matroid)") {
    for (seed <- 1 to 10; gamma <- Seq(0.0, 0.3, 1.0)) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 7, h = 2)
      val r = ThresholdGreedy.run(prob, gamma)
      assert(Alloc.disjoint(r.alloc), s"seed=$seed gamma=$gamma")
    }
  }

  test("budget feasibility for every advertiser at various gammas") {
    for (seed <- 1 to 10; gamma <- Seq(0.0, 0.2, 0.7, 2.0)) {
      val prob = TestInstances.randomProbabilisticInstance(seed, n = 5, h = 2)
      val r = ThresholdGreedy.run(prob, gamma)
      for (i <- 0 until prob.h)
        assert(TestInstances.payment(prob, i, r.alloc(i)) <= prob.budgets(i) + 1e-6,
          s"seed=$seed gamma=$gamma ad=$i")
    }
  }

  test("theorem 3.2, b=0 case: π ≥ (OPT - hγ)/2") {
    for (seed <- 1 to 20) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = 2)
      val gamma = 0.05
      val r = ThresholdGreedy.run(prob, gamma)
      if (r.b == 0) {
        val (opt, _) = BruteForce.optimal(prob)
        val got = Alloc.piTotal(prob.oracle, r.alloc)
        assert(got >= (opt - prob.h * gamma) / 2 - 1e-6,
          s"seed=$seed got=$got opt=$opt")
      }
    }
  }

  test("theorem 3.2, b=1 case: π ≥ max{(OPT - hγ)/6, γ/2}") {
    var checked = 0
    for (seed <- 1 to 40) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = 2)
      for (gamma <- Seq(0.1, 0.5, 1.0, 2.0)) {
        val r = ThresholdGreedy.run(prob, gamma)
        if (r.b == 1) {
          checked += 1
          val (opt, _) = BruteForce.optimal(prob)
          val got = Alloc.piTotal(prob.oracle, r.alloc)
          val bound = math.max((opt - prob.h * gamma) / 6, gamma / 2)
          assert(got >= bound - 1e-6, s"seed=$seed gamma=$gamma got=$got opt=$opt")
        }
      }
    }
    assert(checked > 0, "no b=1 cases exercised — fixture too easy")
  }

  test("theorem 3.2, b≥2 case: π ≥ b·γ/2") {
    var checked = 0
    for (seed <- 1 to 40) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = 2)
      for (gamma <- Seq(0.1, 0.3, 0.6)) {
        val r = ThresholdGreedy.run(prob, gamma)
        if (r.b >= 2) {
          checked += 1
          val got = Alloc.piTotal(prob.oracle, r.alloc)
          assert(got >= r.b * gamma / 2 - 1e-6, s"seed=$seed gamma=$gamma got=$got")
        }
      }
    }
    assert(checked > 0, "no b>=2 cases exercised — fixture too easy")
  }

  test("fill only adds, never removes") {
    val prob = TestInstances.randomDeterministicInstance(6, n = 6, h = 2)
    val start: Alloc.Alloc = Vector(Vector(0), Vector(1))
    val filled = ThresholdGreedy.fill(prob, start)
    assert(start(0).toSet.subsetOf(filled(0).toSet))
    assert(start(1).toSet.subsetOf(filled(1).toSet))
  }

  test("fill keeps the allocation feasible and disjoint") {
    for (seed <- 1 to 10) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 7, h = 2)
      val filled = ThresholdGreedy.fill(prob, Alloc.empty(prob.h))
      assert(Alloc.disjoint(filled))
      for (i <- 0 until prob.h)
        assert(TestInstances.payment(prob, i, filled(i)) <= prob.budgets(i) + 1e-6)
    }
  }

  test("fill from empty selects something whenever a feasible element exists") {
    var exercised = 0
    for (seed <- 1 to 10) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 7, h = 2)
      val anyFeasible = (0 until prob.h)
        .exists(i => (0 until prob.n).exists(prob.elementFeasible(i, _)))
      val filled = ThresholdGreedy.fill(prob, Alloc.empty(prob.h))
      if (anyFeasible) {
        exercised += 1
        assert(Alloc.piTotal(prob.oracle, filled) > 0, s"seed=$seed")
      } else assert(Alloc.seedCount(filled) == 0, s"seed=$seed")
    }
    assert(exercised > 0, "no instance had a feasible element")
  }

  test("threshold actually filters: higher gamma can only shrink the pre-Fill pool") {
    // indirect check: revenue with huge gamma never exceeds gamma=0 revenue by
    // more than Fill could add — both must be feasible; and with gamma beyond
    // gammaMax, b = 0 always.
    for (seed <- 1 to 10) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = 2)
      val big = prob.gammaMax * 1.001
      val r = ThresholdGreedy.run(prob, big)
      assert(r.b == 0, s"seed=$seed: no advertiser can deplete when gamma > gammaMax")
    }
  }

  test("exact on both oracles over a γ sweep: π(S⃗), Fill continuing the session, Greedy's π") {
    var kept = 0; var rebuilt = 0
    for (kind <- 0 to 2; seed <- 1 to 6; h <- Seq(2, 3, 5); scale <- Seq(0.5, 1.0, 2.0)) {
      val prob = TestInstances.searchInstance(kind, seed, h, scale)
      for (k <- 0 to 8) {
        val gamma = prob.gammaMax * 1.1 * k / 8
        val r = ThresholdGreedy.run(prob, gamma)
        val want = SequentialSearch.thresholdGreedy(prob, gamma)
        val where = s"kind=$kind seed=$seed h=$h scale=$scale gamma=$gamma"
        assert(r.pi == Alloc.piTotal(prob.oracle, r.alloc), where)
        // Fill from S⃗′ in a fresh session, S⃗′ chosen by piOf: same allocation.
        assert(r.alloc == want.alloc && r.b == want.b, where)
        if (want.keptS) kept += 1 else rebuilt += 1
      }
      for (i <- 0 until h) {
        val (set, pi) = Greedy.scored(prob, (0 until prob.n).toVector, i)
        assert(set == Greedy.run(prob, (0 until prob.n).toVector, i))
        assert(pi == prob.oracle.piOf(i, set), s"kind=$kind seed=$seed h=$h ad=$i")
      }
    }
    assert(kept > 0 && rebuilt > 0, s"kept S⃗ $kept times, rebuilt $rebuilt times")
  }

  test("a cancelled call stops with a CancellationException") {
    val prob = TestInstances.searchInstance(0, 1, 2, 1.0)
    val flag = new java.util.concurrent.atomic.AtomicBoolean(true)
    assertThrows[java.util.concurrent.CancellationException](ThresholdGreedy.run(prob, 0.0, flag))
  }
}
