package repro.eval

import repro.SparkSpec
import repro.core.{CostModel, RMProblem}
import repro.graph.GraphGen

class ExperimentsSpec extends SparkSpec {

  test("Table 2 identities: lastfm budgets mean/max/min") {
    val b = Experiments.lastfmBudgets
    assert(b.length == Experiments.H)
    assert(math.abs(b.sum / b.length - 320.0) < 1e-9)
    assert(b.max == 1200.0 && b.min == 100.0)
  }

  test("Table 2 identities: flixster budgets are paper's /10") {
    val b = Experiments.flixsterBudgets
    assert(math.abs(b.sum / b.length - 1010.0) < 1e-9)
    assert(b.max == 2000.0 && b.min == 600.0)
  }

  test("Table 2 identities: CPEs mean/max/min") {
    val c = Experiments.cpes
    assert(math.abs(c.sum / c.length - 1.5) < 1e-9)
    assert(c.max == 2.0 && c.min == 1.0)
  }

  test("evalSets / calibSets scale with n and are bounded") {
    assert(Experiments.evalSets(1300) == 260000)
    assert(Experiments.evalSets(100) == 200000)
    assert(Experiments.evalSets(1000000) == 2000000)
    assert(Experiments.calibSets(1300) == 200000)
  }

  test("lastfm env materialises consistently") {
    val env = Experiments.env(spark, GraphGen.Lastfm)
    assert(env.n == 1300)
    assert(env.cpe.length == 10 && env.budgets.length == 10)
    assert(env.sigmaSingle.length == 10)
    assert(env.sigmaSingle.forall(_.length == env.n))
    // singleton spreads are non-negative and not absurd
    val flat = env.sigmaSingle.flatten
    assert(flat.forall(_ >= 0))
    assert(flat.max < env.n)
  }

  test("singleton spread of a node is at least its own engagement on average") {
    val env = Experiments.env(spark, GraphGen.Lastfm)
    // estimator noise allows per-node dips below 1; the mean must be ≥ ~1
    val means = env.sigmaSingle.map(row => row.sum / row.length)
    assert(means.forall(_ > 0.8), s"means=${means.mkString(",")}")
  }

  test("cost tables: superlinear ≥ linear for influential nodes (σ ≥ 1)") {
    val env = Experiments.env(spark, GraphGen.Lastfm)
    val lin = env.costs(CostModel.Linear, 0.1)
    val sup = env.costs(CostModel.SuperLinear, 0.1)
    var checked = 0
    for (i <- 0 until 10; u <- 0 until env.n if env.sigmaSingle(i)(u) >= 1.0) {
      assert(sup(i)(u) >= lin(i)(u) - 1e-12)
      checked += 1
    }
    assert(checked > 0)
  }

  test("cost tables scale linearly in alpha") {
    val env = Experiments.env(spark, GraphGen.Lastfm)
    val c1 = env.costs(CostModel.Linear, 0.1)
    val c5 = env.costs(CostModel.Linear, 0.5)
    for (u <- 0 until 50)
      assert(math.abs(c5(0)(u) - 5 * c1(0)(u)) < 1e-9)
  }

  test("env of a dataset without Table 2 budgets asks for budgetOverride") {
    val e = intercept[IllegalArgumentException](Experiments.env(spark, GraphGen.Dblp))
    assert(e.getMessage.contains("dblp-lite") && e.getMessage.contains("budgetOverride"))
  }

  test("env is cached: second call returns the same instance") {
    val a = Experiments.env(spark, GraphGen.Lastfm)
    val b = Experiments.env(spark, GraphGen.Lastfm)
    assert(a eq b)
  }

  test("eval problem wires the independent collection") {
    val env = Experiments.env(spark, GraphGen.Lastfm)
    val p = new RMProblem(env.evalColl, env.budgets, env.costs(CostModel.Linear, 0.1))
    assert(env.evalColl.numSets == Experiments.evalSets(env.n))
    assert(p.oracle eq env.evalColl)
    assert(p.budgets sameElements env.budgets)
  }
}
