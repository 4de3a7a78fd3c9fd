package repro.core

import repro.SparkSpec
import repro.graph.{ExplicitModel, SocialGraph}
import repro.rrset.{RRCollection, RRSource, TestSets}

class RMASpec extends SparkSpec {

  // A small probabilistic instance with a brute-forcible exact optimum:
  // 8 nodes, h=2, ≤8 random edges per ad.
  private lazy val g = SocialGraph.fromPairs(8,
    Seq((0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)))
  private lazy val probs = Array(
    Array(0.6, 0.6, 0.5, 0.5, 0.4, 0.4, 0.4, 0.4),
    Array(0.3, 0.3, 0.7, 0.7, 0.6, 0.6, 0.2, 0.2))
  private lazy val model = new ExplicitModel(g, probs)
  private lazy val cpe = Array(1.0, 1.5)
  private lazy val exact = new ExactOracle(model, cpe)
  private lazy val costs = Array(
    Array(0.6, 0.4, 0.4, 0.3, 0.6, 0.4, 0.4, 0.3),
    Array(0.5, 0.5, 0.5, 0.4, 0.7, 0.5, 0.4, 0.4))
  private lazy val budgets = Array(4.0, 5.0)
  private lazy val cfg = RMA.Config(eps = 0.05, delta = 0.1, tau = 0.1, rho = 0.2, seed = 5L)

  test("muOf packs cheapest nodes within the relaxed budget") {
    assert(RMA.muOf(Array(1.0, 2.0, 3.0), cpe = 1.0, relaxedBudget = 5.5) == 2)
    assert(RMA.muOf(Array(10.0), cpe = 1.0, relaxedBudget = 5.0) == 1) // clamped ≥ 1
    assert(RMA.muOf(Array(0.1, 0.1, 0.1), cpe = 0.0, relaxedBudget = 10.0) == 3)
  }

  test("thetaMax is positive and grows as eps shrinks") {
    val mus = Array(3, 4)
    // large bMin so θ̂ (the ε-dependent term) dominates the max
    val t1 = RMA.thetaMax(100, 2.0, 0.1, 0.1, 0.01, 0.1, 1e6, mus)
    val t2 = RMA.thetaMax(100, 2.0, 0.1, 0.05, 0.01, 0.1, 1e6, mus)
    assert(t1 > 0 && t2 > t1)
    // and the ε-independent θ̄ term makes it insensitive when it dominates
    val t3 = RMA.thetaMax(100, 2.0, 0.1, 0.1, 0.01, 0.1, 1e-3, mus)
    val t4 = RMA.thetaMax(100, 2.0, 0.1, 0.05, 0.01, 0.1, 1e-3, mus)
    assert(t3 == t4)
  }

  test("thetaMax grows as the minimum budget shrinks") {
    val mus = Array(3, 4)
    val t1 = RMA.thetaMax(100, 2.0, 0.1, 0.1, 0.01, 0.1, 5.0, mus)
    val t2 = RMA.thetaMax(100, 2.0, 0.1, 0.1, 0.01, 0.1, 1.0, mus)
    assert(t2 > t1)
  }

  test("confidence bounds: lb ≤ estimate ≤ ub, and both tighten with more sets") {
    for (est <- Seq(5.0, 50.0, 500.0); scale <- Seq(0.1, 0.01)) {
      val q = 10.0
      assert(RMA.lb(est, scale, q) <= est + 1e-9)
      assert(RMA.ub(est, scale, q) >= est - 1e-9)
    }
    // smaller scale (more sets) → tighter interval
    val wide = RMA.ub(50, 0.1, 10) - RMA.lb(50, 0.1, 10)
    val tight = RMA.ub(50, 0.01, 10) - RMA.lb(50, 0.01, 10)
    assert(tight < wide)
  }

  test("lb is clamped at (numerically) zero for tiny estimates") {
    assert(RMA.lb(0.0, 0.1, 10.0) >= 0.0)
    assert(RMA.lb(0.0, 0.1, 10.0) < 1e-9)
  }

  test("seekUB never exceeds the trivial bound π̃(S*)/λ") {
    val rr = new RRCollection(4, Array(1.0))
    Seq(Array(0), Array(1), Array(0, 1)).foreach(TestSets.append(rr, 0, _))
    rr.rebuildIndex()
    val alloc: Alloc.Alloc = Vector(Vector(0))
    val z = RMA.seekUB(rr, alloc, None, lambda = 1.0 / 3, h = 1)
    assert(math.abs(z - Alloc.piTotal(rr, alloc) * 3) < 1e-9)
  }

  test("seekUB takes each multi-advertiser branch of Alg 7, capped at π̃(S*)/λ") {
    // h = 4 (so b_min = 2); advertiser i's sets are {2i}, {2i+1}, {2i, 2i+1}.
    val h = 4
    val rr = new RRCollection(2 * h, Array(1.0, 1.5, 2.0, 0.5))
    for (i <- 0 until h; ms <- Seq(Array(2 * i), Array(2 * i + 1), Array(2 * i, 2 * i + 1)))
      TestSets.append(rr, i, ms)
    rr.rebuildIndex()
    val lam = Search.lambda(h, 0.1)
    val sStar: Alloc.Alloc = Vector.tabulate(h)(i => Vector(2 * i, 2 * i + 1))
    val t1: Alloc.Alloc = Vector.tabulate(h)(i => Vector(2 * i))
    val t2: Alloc.Alloc = Vector(Vector(0), Vector(), Vector(), Vector())
    def pi(a: Alloc.Alloc) = Alloc.piTotal(rr, a)
    val trivial = pi(sStar) / lam
    def ub(t1: Option[Alloc.Alloc], b1: Int, t2: Option[Alloc.Alloc], b2: Int, g2: Double) =
      RMA.seekUB(rr, sStar, Some(Search.SearchInfo(t1, b1, 0.0, t2, b2, g2, bMin = 2, calls = 0, discarded = 0)), lam, h)
    val cases = Seq(
      "b₁ < b_min with T₂" -> (ub(Some(t1), 1, Some(t2), 0, 0.5), 6 * pi(t2)),
      "b₁ < b_min without T₂" -> (ub(Some(t1), 1, None, 0, 0.5), trivial),
      "T₂ with b₂ = 0" -> (ub(Some(t1), 2, Some(t2), 0, 0.5), 2 * pi(t2) + h * 0.5),
      "T₂ with b₂ > 0" -> (ub(Some(t1), 2, Some(t2), 1, 0.5), 6 * pi(t2) + h * 0.5),
      "T₁ only" -> (ub(Some(t1), 2, None, 0, 0.5), pi(t1) / lam),
      "T₂ above the cap" -> (ub(Some(t1), 2, Some(t2), 1, 1000.0), trivial),
    )
    for ((branch, (got, expected)) <- cases) assert(math.abs(got - expected) < 1e-9, branch)
    // Every uncapped value is distinct and below the cap, so each assertion
    // sees its own branch.
    val uncapped = cases.map(_._2._2).filter(_ != trivial)
    assert(uncapped.distinct.size == 4 && uncapped.forall(_ < trivial), uncapped)
  }

  test("RMA returns a bicriteria-feasible solution on the small instance") {
    val r = RMA.run(spark, model, cpe, budgets, costs, cfg)
    for (i <- 0 until 2) {
      val pay = r.alloc(i).map(costs(i)).sum + exact.piOf(i, r.alloc(i))
      assert(pay <= (1 + cfg.rho) * budgets(i) * 1.02 + 1e-6,
        s"ad=$i pay=$pay vs ${(1 + cfg.rho) * budgets(i)}")
    }
    assert(Alloc.disjoint(r.alloc))
  }

  test("RMA achieves (λ-ε)·OPT against the brute-force optimum") {
    val exactProb = new RMProblem(exact, budgets, costs)
    val (opt, _) = BruteForce.optimal(exactProb)
    val r = RMA.run(spark, model, cpe, budgets, costs, cfg)
    val got = Alloc.piTotal(exact, r.alloc)
    assert(got >= (r.lambda - cfg.eps) * opt - 1e-6, s"got=$got opt=$opt λ=${r.lambda}")
  }

  test("RMA is deterministic in its seed") {
    val r1 = RMA.run(spark, model, cpe, budgets, costs, cfg)
    val r2 = RMA.run(spark, model, cpe, budgets, costs, cfg)
    assert(r1.alloc == r2.alloc && r1.numSets == r2.numSets)
  }

  test("RMA with SUBSIM generation returns a comparable solution") {
    val r = RMA.run(spark, model, cpe, budgets, costs, cfg.copy(subsim = true))
    val exactProb = new RMProblem(exact, budgets, costs)
    val (opt, _) = BruteForce.optimal(exactProb)
    assert(Alloc.piTotal(exact, r.alloc) >= (r.lambda - cfg.eps) * opt - 1e-6)
  }

  test("RMA diagnostics are sane") {
    val r = RMA.run(spark, model, cpe, budgets, costs, cfg)
    assert(r.iterations >= 1)
    assert(r.numSets >= r.theta0)
    assert(r.lambda == Search.lambda(2, cfg.tau))
    assert(r.millis >= 0)
    // R₂ is as large as R₁; each of its sets holds at least its root.
    assert(r.r2Sets == r.numSets && r.r2Members >= r.r2Sets)
  }

  test("single-advertiser RMA uses Greedy internally and stays feasible") {
    val m1 = new ExplicitModel(g, Array(probs(0)))
    val e1 = new ExactOracle(m1, Array(1.0))
    val r = RMA.run(spark, m1, Array(1.0), Array(4.0), Array(costs(0)), cfg)
    val pay = r.alloc(0).map(costs(0)).sum + e1.piOf(0, r.alloc(0))
    assert(pay <= (1 + cfg.rho) * 4.0 * 1.02 + 1e-6, s"pay=$pay")
    assert(r.lambda == 1.0 / 3)
  }

  test("RMA stops early: generated sets stay far below thetaMax on easy instances") {
    val r = RMA.run(spark, model, cpe, budgets, costs, cfg)
    assert(r.numSets < r.thetaMax,
      s"numSets=${r.numSets} thetaMax=${r.thetaMax} — progressive sampling should stop early")
  }

  /** RMA's rounds replayed on stored collections built from RMA's seeds: R₁
    * and R₂ hold θ₀ sets seeded 2s+1 / 2s+2, and round k > 1 appends one
    * doubling batch seeded 1000s+2(k−1)+1 / 1000s+2(k−1)+2. Returns each
    * round's allocation, β and per-advertiser feasibility, computed as
    * Alg 6 lines 8–12 do, with R₂ stored and indexed.
    */
  private def replayRounds(m: ExplicitModel, cpe: Array[Double], budgets: Array[Double],
                           costs: Array[Array[Double]], c: RMA.Config,
                           r: RMA.Result): Seq[(Alloc.Alloc, Double, Seq[Boolean])] = {
    val h = cpe.length
    val n = m.graph.n
    // Alg 6 line 3's q, from θ₀ and θ_max before rounding.
    val deltaP = c.delta / 4
    val mus = Array.tabulate(h)(i => RMA.muOf(costs(i), cpe(i), (1 + c.rho) * budgets(i)))
    val thMax = RMA.thetaMax(n, cpe.sum, r.lambda, c.eps, deltaP, c.rho, budgets.min, mus)
    val theta0 = 4.0 * n * cpe.sum * (2 + c.rho / 3) / (c.rho * c.rho * budgets.min) * math.log(h / deltaP)
    val tMax = math.max(1, math.ceil(math.log(thMax / theta0) / math.log(2)).toInt)
    val q = math.log((h + 2) * tMax / deltaP)
    val source = new RRSource(spark, m, cpe)
    val r1 = source.collection(r.theta0.toInt, c.seed * 2 + 1, c.subsim)
    val r2 = source.collection(r.theta0.toInt, c.seed * 2 + 2, c.subsim)
    assert((0 until r1.numSets).exists(s => r1.setMembers(s).toSeq != r2.setMembers(s).toSeq))
    (1 to r.iterations).map { k =>
      if (k > 1) {
        source.appendTo(r1, r1.numSets, c.seed * 1000 + (k - 1) * 2 + 1, c.subsim)
        source.appendTo(r2, r2.numSets, c.seed * 1000 + (k - 1) * 2 + 2, c.subsim)
      }
      val or = Search.rmWithOracle(new RMProblem(r1, budgets.map(_ * (1 + c.rho / 2)), costs), c.tau)
      val feasible = (0 until h).map(i => RMA.ub(r2.piOf(i, or.alloc(i)), r2.scalePerSet, q) <=
        (1 + c.rho) * budgets(i) - or.alloc(i).map(costs(i)).sum + 1e-9)
      val lbS = RMA.lb(Alloc.piTotal(r2, or.alloc), r2.scalePerSet, q)
      val ubO = RMA.ub(RMA.seekUB(r1, or.alloc, or.info, r.lambda, h), r1.scalePerSet, q)
      (or.alloc, if (ubO <= 0) 1.0 else lbS / ubO, feasible)
    }
  }

  /** The replayed rounds are RMA's: only the last one meets the stop rule,
    * and its allocation, β and feasibility are the `Result`'s.
    */
  private def assertRoundsReplay(rounds: Seq[(Alloc.Alloc, Double, Seq[Boolean])], r: RMA.Result,
                                 c: RMA.Config, where: String): Unit = {
    def stops(beta: Double, feasible: Seq[Boolean]) = beta >= r.lambda - c.eps && feasible.forall(identity)
    assert(r.iterations >= 2, where)
    // |R₁| doubles every round (the 64M cap is far away).
    assert(r.numSets.toLong == r.theta0 << (r.iterations - 1), where)
    assert(rounds.init.forall { case (_, beta, feasible) => !stops(beta, feasible) }, where)
    val (alloc, beta, feasible) = rounds.last
    assert(alloc == r.alloc && beta == r.beta && feasible.forall(identity) == r.feasibleAtStop, where)
    assert(stops(r.beta, Seq(r.feasibleAtStop)) || r.numSets >= r.thetaMax, where)
  }

  test("RMA's doubling loop: h=1 runs several rounds, and β and feasibility replay on a stored R₂") {
    // With h=1, λ=1/3 and SeekUB is the trivial 3·π̃(S*, R₁), so β ≥ λ−ε
    // needs tight confidence bounds: θ₀ sets are too few.
    val m1 = new ExplicitModel(g, Array(probs(0)))
    for (subsim <- Seq(false, true)) {
      val c = cfg.copy(subsim = subsim)
      val r = RMA.run(spark, m1, Array(1.0), Array(4.0), Array(costs(0)), c)
      val rounds = replayRounds(m1, Array(1.0), Array(4.0), Array(costs(0)), c, r)
      assertRoundsReplay(rounds, r, c, s"subsim=$subsim")
    }
  }

  test("RMA's cap stop: maxSetsCap ends the h=1 doubling run at round 2") {
    val m1 = new ExplicitModel(g, Array(probs(0)))
    for (subsim <- Seq(false, true)) {
      val c0 = cfg.copy(subsim = subsim)
      // Uncapped, round 1 (θ₀ sets) does not stop and round 2 doubles.
      val uncapped = RMA.run(spark, m1, Array(1.0), Array(4.0), Array(costs(0)), c0)
      assert(uncapped.iterations >= 2 && uncapped.numSets >= 2 * uncapped.theta0)
      // Between θ₀ and 2θ₀: round 2 grows R₁ and R₂ only up to the cap.
      val cap = (1.5 * uncapped.theta0).toInt
      val c = c0.copy(maxSetsCap = cap)
      val r = RMA.run(spark, m1, Array(1.0), Array(4.0), Array(costs(0)), c)
      val where = s"subsim=$subsim β=${r.beta} feasible=${r.feasibleAtStop}"
      assert(r.theta0 == uncapped.theta0 && r.iterations == 2, where)
      assert(r.numSets == cap && r.r2Sets == cap && cap < r.thetaMax, where)
      // The β/feasibility rule alone would not have stopped the run.
      assert(!(r.beta >= r.lambda - c.eps && r.feasibleAtStop), where)
      assert(Alloc.disjoint(r.alloc), where)
    }
  }

  test("RMA's θ_max stop: θ_max below θ₀'s 256-set floor ends round 1 although R₂'s check fails") {
    // Two nodes and a budget near one seed's payment: θ_max ≈ 239 < 256 sets.
    // Node 0 is too expensive, so node 1 is the only seed; R₂'s upper bound
    // on its revenue exceeds (1+ϱ)B minus its cost.
    val g2 = SocialGraph.fromPairs(2, Seq((0, 1)))
    val m2 = new ExplicitModel(g2, Array(Array(0.5)))
    val c = RMA.Config(eps = 0.3, delta = 0.99, tau = 0.1, rho = 0.9, seed = 26L)
    val r = RMA.run(spark, m2, Array(1.0), Array(0.7), Array(Array(5.0, 0.01)), c)
    val where = s"θ₀=${r.theta0} θ_max=${r.thetaMax} β=${r.beta}"
    assert(r.iterations == 1 && r.theta0 == 256, where)
    assert(r.numSets >= r.thetaMax && r.numSets < c.maxSetsCap, where)
    assert(!r.feasibleAtStop, where)
    assert(r.alloc == Vector(Vector(1)), where)
  }

  test("RMA's infeasible branch: tight budgets fail R₂'s feasibility check, and RMA keeps doubling") {
    // Cheap seeds and tight budgets: the allocation's payment is mostly
    // engagement revenue, and R₂'s upper bound on it overshoots (1+ϱ)B at θ₀.
    val tightCosts = costs.map(_.map(_ * 0.3))
    val tight = Array(2.0, 2.5)
    val c = cfg.copy(seed = 10L)
    val r = RMA.run(spark, model, cpe, tight, tightCosts, c)
    val rounds = replayRounds(model, cpe, tight, tightCosts, c, r)
    assertRoundsReplay(rounds, r, c, "tight budgets")
    // Some round met β ≥ λ−ε and doubled only because an advertiser's bound
    // exceeded its budget.
    assert(rounds.init.exists { case (_, beta, feasible) => beta >= r.lambda - c.eps && feasible.contains(false) })
  }
}
