package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GreedySpec extends AnyFunSuite {

  private def singleAdProblem(budget: Double, costs: Array[Double],
                              inst: (repro.graph.SocialGraph, repro.graph.ExplicitModel),
                              cpe: Double = 1.0): RMProblem = {
    val o = new ExactOracle(inst._2, Array(cpe))
    new RMProblem(o, Array(budget), Array(costs))
  }

  test("generous budget: greedy takes the best node on a chain") {
    val prob = singleAdProblem(100.0, Array.fill(4)(0.5), TestInstances.chain4())
    val s = Greedy.run(prob, (0 until 4).toVector, 0)
    assert(s.contains(0))
    assert(TestInstances.payment(prob, 0, s) <= 100.0 + 1e-9)
  }

  test("respects the budget constraint c+π ≤ B") {
    val prob = singleAdProblem(3.0, Array.fill(4)(0.5), TestInstances.chain4())
    val s = Greedy.run(prob, (0 until 4).toVector, 0)
    assert(TestInstances.payment(prob, 0, s) <= 3.0 + 1e-9)
  }

  test("individually infeasible candidates are filtered (line 1)") {
    // hub payment: c=0.5, π=5 → 5.5 > B=2; leaves cost 0.5, π=1 → fits
    val prob = singleAdProblem(2.0, Array.fill(5)(0.5), TestInstances.star5())
    val s = Greedy.run(prob, (0 until 5).toVector, 0)
    assert(!s.contains(0))
    assert(s.nonEmpty)
    assert(TestInstances.payment(prob, 0, s) <= 2.0 + 1e-9)
  }

  test("empty candidate set returns empty") {
    val prob = singleAdProblem(10.0, Array.fill(4)(0.5), TestInstances.chain4())
    assert(Greedy.run(prob, Vector.empty, 0).isEmpty)
  }

  test("stopple node wins when its revenue beats the accumulated set") {
    // Two nodes: a cheap low-revenue node (picked first by rate) and an
    // expensive high-revenue hub whose addition violates the budget.
    val g = repro.graph.SocialGraph.fromPairs(6, Seq((0, 2), (0, 3), (0, 4), (0, 5)))
    val m = new repro.graph.ExplicitModel(g, Array(Array.fill(4)(1.0)))
    val o = new ExactOracle(m, Array(1.0))
    // node1: isolated σ=1; node0: hub σ=5.
    val costs = Array(4.4, 0.01, 99, 99, 99, 99)
    // rate(1) = 1/1.01 ≈ .990; rate(0) = 5/9.4 ≈ .532 → 1 first.
    // B: after taking 1 (pay 1.01), adding 0 needs 1.01+4.4+6=11.41 > B=9.5 → stopple.
    val prob = new RMProblem(o, Array(9.5), Array(costs))
    val s = Greedy.run(prob, (0 until 6).toVector, 0)
    // D = {0} with π=5 beats S={1} with π=1.
    assert(s == Vector(0))
  }

  test("theorem 3.1: 1/3-approximation on random deterministic instances") {
    for (seed <- 1 to 25) {
      val p2 = TestInstances.randomDeterministicInstance(seed, n = 6, h = 1)
      val (opt, _) = BruteForce.optimal(p2)
      val s = Greedy.run(p2, (0 until p2.n).toVector, 0)
      val got = p2.oracle.piOf(0, s)
      assert(got >= opt / 3.0 - 1e-9, s"seed=$seed got=$got opt=$opt")
      assert(TestInstances.payment(p2, 0, s) <= p2.budgets(0) + 1e-9)
    }
  }

  test("theorem 3.1 also holds on probabilistic instances") {
    for (seed <- 1 to 15) {
      val p2 = TestInstances.randomProbabilisticInstance(seed, n = 5, h = 1)
      val (opt, _) = BruteForce.optimal(p2)
      val s = Greedy.run(p2, (0 until p2.n).toVector, 0)
      val got = p2.oracle.piOf(0, s)
      assert(got >= opt / 3.0 - 1e-9, s"seed=$seed got=$got opt=$opt")
    }
  }

  test("restricting candidates restricts the solution") {
    val prob = singleAdProblem(100.0, Array.fill(4)(0.5), TestInstances.chain4())
    val s = Greedy.run(prob, Vector(2, 3), 0)
    assert(s.toSet.subsetOf(Set(2, 3)))
  }

  test("zero-cost nodes are taken while budget allows") {
    val prob = singleAdProblem(4.0, Array.fill(4)(1e-9), TestInstances.chain4())
    val s = Greedy.run(prob, (0 until 4).toVector, 0)
    // budget 4 fits π=4 exactly (cost ~0): the chain head covers everything
    assert(prob.oracle.piOf(0, s) == 4.0)
  }
}
