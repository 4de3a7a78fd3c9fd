package repro.eval

import repro.SparkSpec
import repro.core.Alloc.Alloc
import repro.rrset.{RRCollection, TestSets}

class EvaluatorSpec extends SparkSpec {

  private def mkColl(): RRCollection = {
    val c = new RRCollection(5, Array(1.0, 2.0))
    TestSets.append(c, 0, Array(0, 1))
    TestSets.append(c, 0, Array(2))
    TestSets.append(c, 1, Array(1, 3))
    TestSets.append(c, 1, Array(4))
    c.rebuildIndex()
    c
  }

  private val costs = Array(
    Array(1.0, 2.0, 3.0, 4.0, 5.0),
    Array(0.5, 1.5, 2.5, 3.5, 4.5))
  private val budgets = Array(10.0, 12.0)

  test("revenue matches manual coverage computation") {
    val c = mkColl()
    val ev = new Evaluator(c, costs, budgets)
    val a: Alloc = Vector(Vector(0), Vector(3))
    // scale = n·Γ/|R| = 5·3/4; ad0 covers set0; ad1 covers set2
    assert(math.abs(ev.revenue(a) - 2 * (5.0 * 3 / 4)) < 1e-9)
  }

  test("revenuePerAd splits correctly") {
    val c = mkColl()
    val ev = new Evaluator(c, costs, budgets)
    val a: Alloc = Vector(Vector(0, 2), Vector(4))
    val per = ev.revenuePerAd(a)
    assert(math.abs(per.sum - ev.revenue(a)) < 1e-9)
    assert(per(0) == 2 * c.scalePerSet && per(1) == c.scalePerSet)
  }

  test("seedCost sums the cost table") {
    val ev = new Evaluator(mkColl(), costs, budgets)
    val a: Alloc = Vector(Vector(0, 1), Vector(2))
    assert(ev.seedCost(a) == 1.0 + 2.0 + 2.5)
  }

  test("budgetUsage and rateOfReturn formulas") {
    val c = mkColl()
    val ev = new Evaluator(c, costs, budgets)
    val a: Alloc = Vector(Vector(0), Vector.empty)
    val rev = ev.revenue(a); val cost = ev.seedCost(a)
    assert(math.abs(ev.budgetUsage(a) - (rev + cost) / 22.0) < 1e-12)
    assert(math.abs(ev.rateOfReturn(a) - rev / (rev + cost)) < 1e-12)
  }

  test("rateOfReturn of an empty allocation is zero") {
    val ev = new Evaluator(mkColl(), costs, budgets)
    assert(ev.rateOfReturn(Vector(Vector.empty, Vector.empty)) == 0.0)
  }
}
