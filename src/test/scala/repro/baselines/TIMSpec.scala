package repro.baselines

import repro.SparkSpec
import repro.graph.{ExplicitModel, SocialGraph}
import java.util.SplittableRandom
import repro.rrset.{RRCollection, RRSource}

class TIMSpec extends SparkSpec {

  test("logNChooseK matches exact binomials") {
    assert(math.abs(TIM.logNChooseK(5, 2) - math.log(10)) < 1e-9)
    assert(math.abs(TIM.logNChooseK(10, 0) - 0.0) < 1e-9)
    assert(math.abs(TIM.logNChooseK(10, 10) - 0.0) < 1e-9)
    assert(math.abs(TIM.logNChooseK(52, 5) - math.log(2598960.0)) < 1e-6)
  }

  test("logNChooseK matches exact BigInt binomials at large n") {
    // ln of a BigInt from its top 60 bits: ln(b >> s) + s·ln 2.
    def logBig(b: BigInt): Double = {
      val s = math.max(0, b.bitLength - 60)
      math.log((b >> s).toDouble) + s * math.log(2.0)
    }
    for (n <- Seq(1300, 3000, 10000, 40000)) {
      val ks = Seq(1, 2, 10, 100, 1000, n / 2, n)
      // C(n, j) for j = 0..n/2, each exact from the previous one; the ones
      // at j = min(k, n − k) are kept.
      val exact = Iterator.iterate((0, BigInt(1))) { case (j, c) => (j + 1, c * (n - j) / (j + 1)) }
        .take(n / 2 + 1).filter { case (j, _) => ks.exists(k => math.min(k, n - k) == j) }.toMap
      for (k <- ks) {
        val want = logBig(exact(math.min(k, n - k)))
        val got = TIM.logNChooseK(n, k)
        if (k == n) assert(got == 0.0)
        else assert(math.abs(got - want) <= 1e-13 * want, s"n=$n k=$k got=$got want=$want")
      }
    }
  }

  test("logNChooseK clamps k above n") {
    assert(TIM.logNChooseK(5, 9) == TIM.logNChooseK(5, 5))
  }

  test("theta decreases as KPT grows") {
    val a = TIM.theta(1000, 10, kpt = 5.0, eps = 0.1, ell = 1.0)
    val b = TIM.theta(1000, 10, kpt = 50.0, eps = 0.1, ell = 1.0)
    assert(a > b)
  }

  test("theta grows as eps shrinks") {
    val a = TIM.theta(1000, 10, kpt = 10.0, eps = 0.3, ell = 1.0)
    val b = TIM.theta(1000, 10, kpt = 10.0, eps = 0.1, ell = 1.0)
    assert(b > a)
  }

  test("theta has a positive floor") {
    assert(TIM.theta(10, 1, kpt = 1e12, eps = 0.5, ell = 1.0) >= 256)
  }

  test("kptEstimate returns a positive lower bound on a simple graph") {
    val g = SocialGraph.fromPairs(6, Seq((0, 1), (0, 2), (1, 3), (2, 4), (3, 5)))
    val m = new ExplicitModel(g, Array(Array.fill(5)(0.8)))
    val src = new RRSource(spark, new SingleAdModel(m, 0), Array(1.0))
    val (kpt, sets) = TIM.kptEstimate(src, g, k = 2, ell = 1.0, seed = 1, subsim = false)
    assert(kpt > 0)
    assert(sets > 0)
  }

  test("kptEstimate scales with k") {
    val g = SocialGraph.fromPairs(6, Seq((0, 1), (1, 2), (3, 4), (4, 5)))
    val m = new ExplicitModel(g, Array(Array.fill(4)(0.9)))
    val src = new RRSource(spark, new SingleAdModel(m, 0), Array(1.0))
    val (k1, _) = TIM.kptEstimate(src, g, k = 1, ell = 1.0, seed = 2, subsim = false)
    val (k3, _) = TIM.kptEstimate(src, g, k = 3, ell = 1.0, seed = 2, subsim = false)
    assert(k3 >= k1 * 0.8) // larger seed sets can only help OPT_k
  }

  test("SingleAdModel projects one advertiser") {
    val g = SocialGraph.fromPairs(2, Seq((0, 1)))
    val m = new ExplicitModel(g, Array(Array(0.1), Array(0.9)))
    val s1 = new SingleAdModel(m, 1)
    assert(s1.h == 1 && s1.prob(0)(0) == 0.9)
  }

  test("kptEstimate over in-task widths equals the estimate over stored collections") {
    // Reference KptEstimation over stored collections: each round is appended
    // into a collection and the widths are read back from its storage.
    def storedKpt(source: RRSource, graph: SocialGraph, k: Int, ell: Double,
                  seed: Long, subsim: Boolean): (Double, Long) = {
      val n = graph.n
      val m = graph.m
      val log2n = math.max(1.0, math.log(n.toDouble) / math.log(2.0))
      var generated = 0L
      var i = 1
      while (i < log2n.toInt) {
        val ci = math.max(1L, ((6 * ell * math.log(n.toDouble) + 6 * math.log(log2n)) * (1L << i)).toLong)
        val coll = new RRCollection(n, Array(1.0))
        source.appendTo(coll, math.min(ci, 1_000_000L).toInt, seed + i, subsim)
        generated += coll.numSets
        var sumKappa = 0.0
        for (sid <- 0 until coll.numSets) {
          val w = coll.setMembers(sid).map(graph.inDegree(_).toLong).sum
          sumKappa += 1 - math.pow(1 - w.toDouble / m, k)
        }
        if (sumKappa / coll.numSets > 1.0 / (1L << i)) return (n * sumKappa / (2 * coll.numSets), generated)
        i += 1
      }
      (1.0, generated)
    }
    val rng = new SplittableRandom(3)
    val g = SocialGraph.fromPairs(300,
      Seq.fill(1500)((rng.nextInt(300), rng.nextInt(300))).filter { case (a, b) => a != b }.distinct)
    val m = new ExplicitModel(g, Array(Array.fill(g.m)(0.02 + 0.2 * rng.nextDouble())))
    val src = new RRSource(spark, new SingleAdModel(m, 0), Array(1.0))
    for (k <- Seq(1, 5); subsim <- Seq(false, true)) {
      val got = TIM.kptEstimate(src, g, k, ell = 1.0, seed = 9, subsim)
      assert(got == storedKpt(src, g, k, 1.0, 9, subsim), s"k=$k subsim=$subsim")
    }
  }
}
