package repro.bench

import repro.SparkSpec
import repro.core.{Alloc, CostModel, RMA}
import repro.eval.{Evaluator, Experiments, Tables}
import repro.graph.GraphGen

/** Scalability substrate check (the paper's §5.2.3 setting: Weighted-Cascade,
  * linear incentive α=0.2, uniform budgets, DBLP and LiveJournal). Figures 5–6
  * are plots and out of scope; this bench demonstrates the same configuration
  * runs end-to-end at our scaled-down sizes and reports RMA's time, revenue,
  * seeds and sets at h = [[Experiments.H]].
  *
  * Budgets are the paper's (10K for DBLP, 100K for LiveJournal) divided by the
  * graph scale-down factors (≈31x and ≈120x).
  */
class ScalabilityBench extends SparkSpec {

  private def run(spec: GraphGen.DatasetSpec, budget: Double): Unit = {
    val env = Experiments.env(spark, spec,
      budgetOverride = Some(Array.fill(Experiments.H)(budget)))
    val costs = env.costs(CostModel.Linear, 0.2)
    val r = RMA.run(spark, env.model, env.cpe, env.budgets.map(_ / (1 + Tables.Rho)), costs,
      RMA.Config(eps = Tables.EpsRma, delta = 1.0 / env.n, tau = Tables.TauDefault,
        rho = Tables.Rho, seed = 17L))
    val ev = new Evaluator(env.evalColl, costs, env.budgets)
    println(f"[scalability] ${spec.name}%-17s h=${Experiments.H}%2d B=$budget%.0f: " +
      f"time=${r.millis / 1e3}%.1f s revenue=${ev.revenue(r.alloc)}%.0f " +
      f"seeds=${Alloc.seedCount(r.alloc)} sets=${r.numSets}")
    assert(ev.revenue(r.alloc) > 0)
  }

  test("Fig 5 substrate: RMA on dblp-lite (WC, uniform budgets 10K/31)") {
    run(GraphGen.Dblp, budget = 315.0)
  }

  test("Fig 5 substrate: RMA on livejournal-lite (WC, uniform budgets 100K/120)") {
    run(GraphGen.LiveJournal, budget = 830.0)
  }
}
