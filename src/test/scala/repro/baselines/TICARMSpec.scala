package repro.baselines

import repro.SparkSpec
import repro.core.{Alloc, CostModel}
import repro.graph.{ExplicitModel, SocialGraph}

class TICARMSpec extends SparkSpec {

  // Two mid-size communities so selection is non-trivial but cheap.
  private lazy val g: SocialGraph = {
    val rng = new java.util.SplittableRandom(3)
    val pairs = (for {
      u <- 0 until 30; v <- 0 until 30
      if u != v && rng.nextDouble() < 0.08
    } yield (u, v)).toSeq
    SocialGraph.fromPairs(30, pairs)
  }
  private lazy val probs = {
    val rng = new java.util.SplittableRandom(4)
    Array.fill(2)(Array.fill(g.m)(0.1 + 0.4 * rng.nextDouble()))
  }
  private lazy val model = new ExplicitModel(g, probs)
  private lazy val cpe = Array(1.0, 1.5)
  private lazy val evalColl =
    new repro.rrset.RRSource(spark, model, cpe).collection(150000, seed = 777)

  private def sigmaTable: Array[Array[Double]] =
    Array.tabulate(2)(i => Array.tabulate(g.n)(u => evalColl.sigmaSingleton(u, i)))

  private lazy val cfg = TICARM.Config(eps = 0.3, seed = 11L)

  test("TI-CARM never overshoots any budget (conservative feasibility)") {
    val costs = CostModel.table(CostModel.Linear, 0.2, sigmaTable)
    val budgets = Array(8.0, 10.0)
    val r = TICARM.tiCarm(spark, model, cpe, budgets, costs, cfg)
    for (i <- 0 until 2) {
      val pay = r.alloc(i).map(costs(i)).sum + evalColl.piOf(i, r.alloc(i))
      assert(pay <= budgets(i) * 1.05 + 1e-6, s"ad=$i pay=$pay budget=${budgets(i)}")
    }
    assert(Alloc.disjoint(r.alloc))
  }

  test("TI-CSRM never overshoots any budget") {
    val costs = CostModel.table(CostModel.Linear, 0.2, sigmaTable)
    val budgets = Array(8.0, 10.0)
    val r = TICARM.tiCsrm(spark, model, cpe, budgets, costs, cfg)
    for (i <- 0 until 2) {
      val pay = r.alloc(i).map(costs(i)).sum + evalColl.piOf(i, r.alloc(i))
      assert(pay <= budgets(i) * 1.05 + 1e-6, s"ad=$i pay=$pay")
    }
  }

  test("under superlinear costs TI-CARM selects very few seeds (paper Fig 1/3 behaviour)") {
    val costs = CostModel.table(CostModel.SuperLinear, 0.4, sigmaTable)
    val budgets = Array(8.0, 10.0)
    val ca = TICARM.tiCarm(spark, model, cpe, budgets, costs, cfg)
    val cs = TICARM.tiCsrm(spark, model, cpe, budgets, costs, cfg)
    assert(Alloc.seedCount(ca.alloc) <= Alloc.seedCount(cs.alloc),
      s"CA=${Alloc.seedCount(ca.alloc)} CS=${Alloc.seedCount(cs.alloc)}")
  }

  test("runs are deterministic in the seed") {
    // At budgets (30, 30) TI-CARM picks 8 + 5 seeds (the pin below); at
    // tighter ones its first pick overshoots and both runs would be empty.
    // TI-CSRM's linear-cost rates nearly tie, so its runs check the tie order.
    val costs = CostModel.table(CostModel.Linear, 0.2, sigmaTable)
    val budgets = Array(30.0, 30.0)
    for ((name, alg) <- Seq("TI-CARM" -> TICARM.tiCarm _, "TI-CSRM" -> TICARM.tiCsrm _);
         subsim <- Seq(false, true)) {
      val c = cfg.copy(subsim = subsim)
      val a = alg(spark, model, cpe, budgets, costs, c)
      val b = alg(spark, model, cpe, budgets, costs, c)
      assert(a.alloc.forall(_.nonEmpty), s"$name subsim=$subsim: ${a.alloc}")
      assert(a.alloc == b.alloc, s"$name subsim=$subsim")
    }
  }

  test("TI-CARM and TI-CSRM allocations are pinned for cfg") {
    // Computed before the marginal-rate formula was shared: on the budgets of
    // the determinism test, where TI-CARM's first pick already overshoots,
    // and on looser ones. Under linear costs TI-CSRM's rates nearly tie, so
    // its picks follow the formula's rounding.
    val costs = CostModel.table(CostModel.Linear, 0.2, sigmaTable)
    def both(b: Double) = {
      val budgets = Array(b, b)
      (TICARM.tiCarm(spark, model, cpe, budgets, costs, cfg).alloc,
       TICARM.tiCsrm(spark, model, cpe, budgets, costs, cfg).alloc)
    }
    assert(both(6.0) == ((Vector(Vector(), Vector()), Vector(Vector(7, 26), Vector(28)))))
    assert(both(30.0) == ((
      Vector(Vector(6, 2, 3, 22, 12, 13, 25, 11), Vector(17, 14, 4, 29, 16)),
      Vector(Vector(7, 1, 10, 23, 16, 21, 11, 27, 2, 6), Vector(28, 24, 29, 12, 26, 19, 17, 0)))))
  }

  test("diagnostics: sets generated and regenerations are positive") {
    val costs = CostModel.table(CostModel.Linear, 0.2, sigmaTable)
    val r = TICARM.tiCsrm(spark, model, cpe, Array(6.0, 6.0), costs, cfg)
    assert(r.totalSetsGenerated > 0)
    assert(r.peakSets > 0)
    assert(r.regenerations >= 2) // at least the initial generation per ad
    assert(r.millis >= 0)
  }

  test("tiny budgets yield empty or near-empty allocations, never infeasible ones") {
    val costs = CostModel.table(CostModel.Linear, 0.2, sigmaTable)
    val budgets = Array(0.5, 0.5)
    val r = TICARM.tiCarm(spark, model, cpe, budgets, costs, cfg)
    for (i <- 0 until 2) {
      val pay = r.alloc(i).map(costs(i)).sum + evalColl.piOf(i, r.alloc(i))
      assert(pay <= budgets(i) * 1.1 + 1e-6)
    }
  }

  test("memory proxy grows with smaller eps (paper Fig 4 shape)") {
    val costs = CostModel.table(CostModel.Linear, 0.2, sigmaTable)
    val budgets = Array(6.0, 8.0)
    val loose = TICARM.tiCarm(spark, model, cpe, budgets, costs, cfg.copy(eps = 0.4))
    val tight = TICARM.tiCarm(spark, model, cpe, budgets, costs, cfg.copy(eps = 0.15))
    assert(tight.peakSets > loose.peakSets,
      s"tight=${tight.peakSets} loose=${loose.peakSets}")
  }
}
