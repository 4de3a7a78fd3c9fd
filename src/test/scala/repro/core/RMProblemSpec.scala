package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RMProblemSpec extends AnyFunSuite {

  private val prob = TestInstances.randomDeterministicInstance(1, n = 6, h = 2)

  test("singletonPi matches oracle piOf") {
    for (i <- 0 until prob.h; u <- 0 until prob.n)
      assert(math.abs(prob.singletonPi(i)(u) - prob.oracle.piOf(i, Seq(u))) < 1e-12)
  }

  test("singletonPi over an RR collection equals piOf exactly") {
    val rng = new java.util.SplittableRandom(3)
    val c = repro.rrset.TestSets.collection(12, Array(1.0, 2.5, 0.7), Seq.fill(500) {
      val ms = Seq.fill(1 + rng.nextInt(5))(rng.nextInt(12)).distinct
      (rng.nextInt(3), ms)
    })
    val p = new RMProblem(c, Array.fill(3)(10.0), Array.fill(3, 12)(1.0))
    for (i <- 0 until 3; u <- 0 until 12) assert(p.singletonPi(i)(u) == c.piOf(i, Seq(u)))
  }

  test("elementFeasible matches the definition") {
    for (i <- 0 until prob.h; u <- 0 until prob.n) {
      val exp = prob.costs(i)(u) + prob.singletonPi(i)(u) <= prob.budgets(i) + 1e-9
      assert(prob.elementFeasible(i, u) == exp)
    }
  }

  test("mismatched budget length is rejected") {
    assertThrows[IllegalArgumentException](
      new RMProblem(prob.oracle, Array(1.0), prob.costs))
  }

  test("Alloc helpers: empty, seedCount, disjoint") {
    val e = Alloc.empty(3)
    assert(e.size == 3 && Alloc.seedCount(e) == 0 && Alloc.disjoint(e))
    val a: Alloc.Alloc = Vector(Vector(1, 2), Vector(3))
    assert(Alloc.seedCount(a) == 3 && Alloc.disjoint(a))
    val bad: Alloc.Alloc = Vector(Vector(1, 2), Vector(2))
    assert(!Alloc.disjoint(bad))
  }

  test("Alloc.piTotal sums per-advertiser revenue") {
    val a: Alloc.Alloc = Vector(Vector(0, 1), Vector(2))
    val exp = prob.oracle.piOf(0, Seq(0, 1)) + prob.oracle.piOf(1, Seq(2))
    assert(math.abs(Alloc.piTotal(prob.oracle, a) - exp) < 1e-12)
  }
}

class CostModelsSpec extends AnyFunSuite {

  test("linear cost is alpha times sigma") {
    assert(CostModel.Linear.cost(0.2, 10.0) == 2.0)
  }

  test("quasilinear cost is alpha·sigma·ln(sigma)") {
    assert(math.abs(CostModel.QuasiLinear.cost(0.1, math.E) - 0.1 * math.E) < 1e-12)
  }

  test("superlinear cost is alpha·sigma²") {
    assert(CostModel.SuperLinear.cost(0.3, 4.0) == 0.3 * 16.0)
  }

  test("sigma below 1 is clamped to 1") {
    assert(CostModel.Linear.cost(0.5, 0.2) == 0.5)
    assert(CostModel.SuperLinear.cost(0.5, 0.0) == 0.5)
  }

  test("costs are always strictly positive") {
    for (cm <- CostModel.all; s <- Seq(0.0, 1.0, 2.0, 50.0))
      assert(cm.cost(0.1, s) > 0)
  }

  test("superlinear dominates linear dominates quasilinear at sigma < e") {
    val s = 2.0 // ln 2 < 1 < 2
    assert(CostModel.QuasiLinear.cost(0.1, s) < CostModel.Linear.cost(0.1, s))
    assert(CostModel.Linear.cost(0.1, s) < CostModel.SuperLinear.cost(0.1, s))
  }

  test("ordering flips for quasilinear at sigma > e") {
    val s = 10.0
    assert(CostModel.QuasiLinear.cost(0.1, s) > CostModel.Linear.cost(0.1, s))
  }

  test("table applies the model elementwise") {
    val sigma = Array(Array(1.0, 4.0), Array(9.0, 16.0))
    val t = CostModel.table(CostModel.SuperLinear, 0.5, sigma)
    assert(t(0)(1) == 8.0 && t(1)(0) == 40.5)
  }

  test("cost model names are distinct") {
    assert(CostModel.all.map(_.name).toSet.size == 3)
  }
}
