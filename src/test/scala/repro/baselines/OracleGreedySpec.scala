package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Alloc, ExactOracle, RMProblem, TestInstances}

class OracleGreedySpec extends AnyFunSuite {

  test("footnote-8 toy: CA-Greedy takes the big node, CS-Greedy the efficient pair") {
    val (_, m, costs) = TestInstances.toyFootnote8()
    val oracle = new ExactOracle(m, Array(1.0))
    // π(u)=7, π(v)=4, π(w)=3; c(u)=9, c(v)=3, c(w)=2. Budget 17:
    //   CA: picks u (gain 7): pay 9+7=16 ≤ 17. Next best v: 16+3+4=23 > 17 → stop. π=7.
    //   CS: rates v: 4/7=.571, w: 3/5=.6, u: 7/16=.4375 → w, v: pay 2+3+3+4=12 ≤ 17.
    //       Then u: 12+9+7=28 > 17 → stop. π=7? No: π=3+4=7 equal...
    // Use budget 16.5 to separate: CA picks u (16 ≤ 16.5), CS picks w,v (12 ≤ 16.5).
    val prob = new RMProblem(oracle, Array(16.5), Array(costs))
    val ca = OracleGreedy.caGreedy(prob)
    val cs = OracleGreedy.csGreedy(prob)
    assert(ca(0).toSet == Set(0), s"CA picked ${ca(0)}")
    assert(cs(0).toSet == Set(1, 2), s"CS picked ${cs(0)}")
    assert(oracle.piOf(0, ca(0)) == 7.0)
    assert(oracle.piOf(0, cs(0)) == 7.0)
  }

  test("CS-Greedy beats CA-Greedy when efficiency matters (paper's toy, tight budget)") {
    val (_, m, costs) = TestInstances.toyFootnote8()
    val oracle = new ExactOracle(m, Array(1.0))
    // Budget 13: CA picks u → pay 16 > 13? u infeasible singleton?
    //   c(u)+π(u) = 16 > 13 → u filtered at init; CA then picks v (pay 7),
    //   then w: 7+2+3=12 ≤ 13 → π=7.
    // Budget 12.5: CS picks w (pay 5), v (pay 12) → π=7; CA picks v (pay 7),
    //   then w: 12 ≤ 12.5 → 7 as well. Make w/v asymmetric via budget 8:
    //   CA: v (pay 7); w: 7+5=12 > 8 → terminate. π=4.
    //   CS: w (pay 5); v: 5+7=12 > 8 → terminate. π=3.
    val prob = new RMProblem(oracle, Array(8.0), Array(costs))
    val ca = OracleGreedy.caGreedy(prob)
    val cs = OracleGreedy.csGreedy(prob)
    assert(ca(0).toSet == Set(1))
    assert(cs(0).toSet == Set(2))
  }

  test("budget feasibility on random instances (both variants)") {
    for (seed <- 1 to 12) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 7, h = 2)
      for (alg <- Seq(OracleGreedy.caGreedy(prob), OracleGreedy.csGreedy(prob))) {
        assert(Alloc.disjoint(alg))
        for (i <- 0 until prob.h)
          assert(TestInstances.payment(prob, i, alg(i)) <= prob.budgets(i) + 1e-6)
      }
    }
  }

  test("terminates per advertiser: second advertiser keeps selecting after first stops") {
    val prob = TestInstances.randomDeterministicInstance(4, n = 7, h = 2)
    val a = OracleGreedy.csGreedy(prob)
    // merely structural: result exists for both ads and is feasible
    assert(a.size == 2)
  }

  test("empty when no element is individually feasible") {
    val (_, m, costs) = TestInstances.toyFootnote8()
    val oracle = new ExactOracle(m, Array(1.0))
    val prob = new RMProblem(oracle, Array(0.5), Array(costs))
    assert(OracleGreedy.caGreedy(prob).forall(_.isEmpty))
    assert(OracleGreedy.csGreedy(prob).forall(_.isEmpty))
  }

  test("partition matroid: a node endorses at most one ad even if both want it") {
    val (_, m) = TestInstances.star5(h = 2)
    val oracle = new ExactOracle(m, Array(1.0, 1.0))
    val costs = Array.fill(2, 5)(0.1)
    val prob = new RMProblem(oracle, Array(100.0, 100.0), Array(costs(0), costs(1)))
    val a = OracleGreedy.caGreedy(prob)
    assert(Alloc.disjoint(a))
    assert(a(0).toSet.intersect(a(1).toSet).isEmpty)
  }
}
