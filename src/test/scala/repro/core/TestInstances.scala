package repro.core

import java.util.SplittableRandom
import repro.graph.{ExplicitModel, SocialGraph}
import repro.rrset.{RRCollection, TestSets}

/** Shared tiny fixtures for algorithm tests: deterministic and probabilistic
  * micro-instances with exact oracles, plus a random-instance generator for
  * approximation-ratio property loops.
  */
object TestInstances {

  /** Advertiser i's payment for seed set X: `c_i(X) + π_i(X)`. */
  def payment(prob: RMProblem, i: Int, xs: Iterable[Int]): Double =
    xs.iterator.map(prob.costs(i)).sum + prob.oracle.piOf(i, xs)

  /** Path 0→1→2→3 with p=1 everywhere: σ({0}) = 4, σ({1}) = 3, … */
  def chain4(h: Int = 1): (SocialGraph, ExplicitModel) = {
    val g = SocialGraph.fromPairs(4, Seq((0, 1), (1, 2), (2, 3)))
    (g, new ExplicitModel(g, Array.fill(h)(Array(1.0, 1.0, 1.0))))
  }

  /** Star 0→{1,2,3,4} with p=1: σ({0}) = 5, σ({k}) = 1 for leaves. */
  def star5(h: Int = 1): (SocialGraph, ExplicitModel) = {
    val g = SocialGraph.fromPairs(5, Seq((0, 1), (0, 2), (0, 3), (0, 4)))
    (g, new ExplicitModel(g, Array.fill(h)(Array.fill(4)(1.0))))
  }

  /** The footnote-8 toy: three disjoint deterministic "audiences".
    * u=0 reaches 90 proxies? — scaled down: u reaches 6 extra nodes,
    * v reaches 3, w reaches 2 (revenues 7, 4, 3 at cpe=1); costs 9, 3, 2.
    * With budget big enough, CA picks u first, CS picks v,w first.
    */
  def toyFootnote8(): (SocialGraph, ExplicitModel, Array[Double]) = {
    // nodes: 0=u, 1=v, 2=w, then audiences: u→3..8 (6), v→9..11 (3), w→12..13 (2)
    val edges = (3 to 8).map(d => (0, d)) ++ (9 to 11).map(d => (1, d)) ++
      (12 to 13).map(d => (2, d))
    val g = SocialGraph.fromPairs(14, edges)
    val m = new ExplicitModel(g, Array(Array.fill(edges.size)(1.0)))
    val costs = Array.fill(14)(1000.0) // audiences unaffordable
    costs(0) = 9.0; costs(1) = 3.0; costs(2) = 2.0
    (g, m, costs)
  }

  /** Random tiny instance: n nodes, h ads, deterministic edges (p ∈ {0,1})
    * so the exact oracle enumerates a single world; random costs/budgets.
    * Returns an RMProblem over an ExactOracle.
    */
  def randomDeterministicInstance(seedVal: Long, n: Int = 7, h: Int = 2): RMProblem = {
    val rng = new SplittableRandom(seedVal)
    val pairs = (for {
      u <- 0 until n; v <- 0 until n
      if u != v && rng.nextDouble() < 0.25
    } yield (u, v)).toSeq
    val g = SocialGraph.fromPairs(n, if (pairs.isEmpty) Seq((0, 1)) else pairs)
    val probs = Array.fill(h)(Array.fill(g.m)(if (rng.nextDouble() < 0.8) 1.0 else 0.0))
    val cpe = Array.fill(h)(0.5 + rng.nextDouble())
    val oracle = new ExactOracle(new ExplicitModel(g, probs), cpe)
    val costs = Array.fill(h, n)(0.2 + 2.0 * rng.nextDouble())
    val budgets = Array.fill(h)(2.0 + 6.0 * rng.nextDouble())
    new RMProblem(oracle, budgets, costs)
  }

  /** Random tiny instance with genuinely probabilistic edges (≤ maxRandom
    * random edges so exact enumeration stays cheap).
    */
  def randomProbabilisticInstance(seedVal: Long, n: Int = 6, h: Int = 2): RMProblem = {
    val rng = new SplittableRandom(seedVal)
    val pairs = (for {
      u <- 0 until n; v <- 0 until n
      if u != v && rng.nextDouble() < 0.2
    } yield (u, v)).toSeq.take(8)
    val g = SocialGraph.fromPairs(n, if (pairs.isEmpty) Seq((0, 1)) else pairs)
    val probs = Array.fill(h)(Array.fill(g.m)(rng.nextDouble()))
    val cpe = Array.fill(h)(0.5 + rng.nextDouble())
    val oracle = new ExactOracle(new ExplicitModel(g, probs), cpe)
    val costs = Array.fill(h, n)(0.2 + 1.5 * rng.nextDouble())
    val budgets = Array.fill(h)(1.5 + 4.0 * rng.nextDouble())
    new RMProblem(oracle, budgets, costs)
  }

  /** Random RR-backed instance, no Spark: `sets` tagged sets of 1–5 distinct
    * nodes over n nodes, tags uniform over h advertisers. Costs are random;
    * budget i is `budgetScale` times the mean singleton payment
    * c_i(u)+π̃_i({u}), times a random factor in [1, 3).
    */
  def randomRRInstance(seedVal: Long, n: Int, h: Int, budgetScale: Double, sets: Int = 600): RMProblem = {
    val rng = new SplittableRandom(seedVal)
    val cpe = Array.fill(h)(0.5 + rng.nextDouble())
    val rr = new RRCollection(n, cpe)
    for (_ <- 0 until sets) {
      val members = Array.fill(1 + rng.nextInt(5))(rng.nextInt(n)).distinct
      TestSets.append(rr, rng.nextInt(h), members)
    }
    rr.rebuildIndex()
    val costs = Array.fill(h, n)(0.2 + 2.0 * rng.nextDouble())
    val budgets = Array.tabulate(h) { i =>
      val meanPay = (0 until n).map(u => costs(i)(u) + rr.piSingle(i, u)).sum / n
      budgetScale * meanPay * (1 + 2 * rng.nextDouble())
    }
    new RMProblem(rr, budgets, costs)
  }

  /** The instance families Search is checked on: `kind` 0 is RR-backed, 1 an
    * exact deterministic instance, 2 an exact probabilistic one. Budgets are
    * scaled by `budgetScale`, from tight (b ≥ 2 at small γ) to loose (b = 0).
    */
  def searchInstance(kind: Int, seedVal: Long, h: Int, budgetScale: Double): RMProblem = kind match {
    case 0 => randomRRInstance(seedVal, 30, h, budgetScale)
    case k =>
      val p = if (k == 1) randomDeterministicInstance(seedVal, n = 7, h = h)
              else randomProbabilisticInstance(seedVal, n = 6, h = h)
      new RMProblem(p.oracle, p.budgets.map(_ * budgetScale), p.costs)
  }
}
