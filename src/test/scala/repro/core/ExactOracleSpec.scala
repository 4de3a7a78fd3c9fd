package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{ExplicitModel, SocialGraph}

class ExactOracleSpec extends AnyFunSuite {

  test("deterministic chain: spreads are suffix lengths") {
    val (_, m) = TestInstances.chain4()
    val o = new ExactOracle(m, Array(1.0))
    assert(o.sigma(0, Seq(0)) == 4.0)
    assert(o.sigma(0, Seq(1)) == 3.0)
    assert(o.sigma(0, Seq(2)) == 2.0)
    assert(o.sigma(0, Seq(3)) == 1.0)
  }

  test("deterministic star: hub reaches everyone, leaves only themselves") {
    val (_, m) = TestInstances.star5()
    val o = new ExactOracle(m, Array(1.0))
    assert(o.sigma(0, Seq(0)) == 5.0)
    (1 to 4).foreach(v => assert(o.sigma(0, Seq(v)) == 1.0))
  }

  test("union of seeds counts overlap once") {
    val (_, m) = TestInstances.chain4()
    val o = new ExactOracle(m, Array(1.0))
    assert(o.sigma(0, Seq(0, 1)) == 4.0) // 1 is reached by 0 anyway
    assert(o.sigma(0, Seq(1, 3)) == 3.0) // reach({1,3}) = {1,2,3}
  }

  test("single probabilistic edge gives expected spread") {
    val g = SocialGraph.fromPairs(2, Seq((0, 1)))
    val m = new ExplicitModel(g, Array(Array(0.3)))
    val o = new ExactOracle(m, Array(1.0))
    assert(math.abs(o.sigma(0, Seq(0)) - 1.3) < 1e-12)
    assert(o.sigma(0, Seq(1)) == 1.0)
  }

  test("two independent probabilistic edges from a hub") {
    val g = SocialGraph.fromPairs(3, Seq((0, 1), (0, 2)))
    val m = new ExplicitModel(g, Array(Array(0.5, 0.25)))
    val o = new ExactOracle(m, Array(2.0))
    assert(math.abs(o.sigma(0, Seq(0)) - (1 + 0.5 + 0.25)) < 1e-12)
    assert(math.abs(o.piOf(0, Seq(0)) - 2.0 * 1.75) < 1e-12)
  }

  test("serial chain with probabilistic edges multiplies") {
    val g = SocialGraph.fromPairs(3, Seq((0, 1), (1, 2)))
    val m = new ExplicitModel(g, Array(Array(0.5, 0.5)))
    val o = new ExactOracle(m, Array(1.0))
    // σ({0}) = 1 + 0.5 + 0.25
    assert(math.abs(o.sigma(0, Seq(0)) - 1.75) < 1e-12)
  }

  test("per-advertiser probabilities are independent") {
    val g = SocialGraph.fromPairs(2, Seq((0, 1)))
    val m = new ExplicitModel(g, Array(Array(1.0), Array(0.0)))
    val o = new ExactOracle(m, Array(1.0, 1.0))
    assert(o.sigma(0, Seq(0)) == 2.0)
    assert(o.sigma(1, Seq(0)) == 1.0)
  }

  test("cpe scales revenue not spread") {
    val (_, m) = TestInstances.chain4(h = 2)
    val o = new ExactOracle(m, Array(1.0, 2.5))
    assert(o.piOf(0, Seq(0)) == 4.0)
    assert(o.piOf(1, Seq(0)) == 10.0)
  }

  test("empty seed set has zero spread") {
    val (_, m) = TestInstances.chain4()
    val o = new ExactOracle(m, Array(1.0))
    assert(o.sigma(0, Seq.empty) == 0.0)
    assert(o.piOf(0, Seq.empty) == 0.0)
  }

  test("duplicate seeds are counted once") {
    val (_, m) = TestInstances.chain4()
    val o = new ExactOracle(m, Array(1.0))
    assert(o.sigma(0, Seq(2, 2, 2)) == 2.0)
  }

  test("session gains match from-scratch differences") {
    val (_, m) = TestInstances.star5(h = 2)
    val o = new ExactOracle(m, Array(1.0, 1.0))
    val s = o.newSession()
    assert(s.gain(0, 0) == 5.0)
    s.add(1, 0)
    assert(s.pi(0) == 1.0)
    assert(s.gain(0, 0) == o.piOf(0, Seq(0, 1)) - o.piOf(0, Seq(1)))
    s.add(0, 0)
    assert(s.pi(0) == 5.0)
    assert(s.gain(2, 0) == 0.0) // already covered by the hub
  }

  test("monotonicity: adding seeds never lowers spread (random instances)") {
    for (seed <- 1 to 15) {
      val prob = TestInstances.randomProbabilisticInstance(seed)
      val o = prob.oracle
      val rng = new java.util.SplittableRandom(seed)
      val xs = (0 until prob.n).filter(_ => rng.nextBoolean())
      val extra = rng.nextInt(prob.n)
      assert(o.piOf(0, xs :+ extra) >= o.piOf(0, xs) - 1e-12)
    }
  }

  test("submodularity: marginal gains shrink with larger context (random instances)") {
    for (seed <- 1 to 15) {
      val prob = TestInstances.randomProbabilisticInstance(seed)
      val o = prob.oracle
      val rng = new java.util.SplittableRandom(seed + 1000)
      val small = (0 until prob.n).filter(_ => rng.nextDouble() < 0.3)
      val big = (small ++ (0 until prob.n).filter(_ => rng.nextDouble() < 0.3)).distinct
      val x = rng.nextInt(prob.n)
      val gSmall = o.piOf(0, (small :+ x).distinct) - o.piOf(0, small)
      val gBig = o.piOf(0, (big :+ x).distinct) - o.piOf(0, big)
      assert(gBig <= gSmall + 1e-9)
    }
  }

  test("rejects instances with too many random edges") {
    val n = 6
    val pairs = for (u <- 0 until n; v <- 0 until n if u != v) yield (u, v)
    val g = SocialGraph.fromPairs(n, pairs)
    val m = new ExplicitModel(g, Array(Array.fill(g.m)(0.5)))
    assertThrows[IllegalArgumentException](new ExactOracle(m, Array(1.0), maxRandomEdges = 8))
  }

  test("BruteForce.optimal on chain with generous budget picks the source") {
    val (_, m) = TestInstances.chain4()
    val o = new ExactOracle(m, Array(1.0))
    val prob = new RMProblem(o, Array(100.0), Array(Array.fill(4)(0.5)))
    val (opt, alloc) = BruteForce.optimal(prob)
    assert(opt == 4.0)
    assert(alloc(0).contains(0))
  }

  test("BruteForce.optimal respects tight budget") {
    val (_, m) = TestInstances.chain4()
    val o = new ExactOracle(m, Array(1.0))
    // budget 2.5: σ({0})+c = 4.5 too big; best is σ({2})=2 (pay 2.5 exactly)
    val prob = new RMProblem(o, Array(2.5), Array(Array.fill(4)(0.5)))
    val (opt, alloc) = BruteForce.optimal(prob)
    assert(opt == 2.0, s"alloc=$alloc")
    assert(TestInstances.payment(prob, 0, alloc(0)) <= 2.5 + 1e-9)
  }

  test("BruteForce.optimal with two ads keeps seed sets disjoint by construction") {
    val prob = TestInstances.randomDeterministicInstance(5, n = 5, h = 2)
    val (_, alloc) = BruteForce.optimal(prob)
    assert(Alloc.disjoint(alloc))
  }
}
