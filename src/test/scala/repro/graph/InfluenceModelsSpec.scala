package repro.graph

import repro.SparkSpec

class InfluenceModelsSpec extends SparkSpec {

  private lazy val g = GraphGen.graph(spark, GraphGen.Lastfm)
  private lazy val tic = InfluenceModels.lastfmTic(g, 10)

  test("TIC mixtures sum to 1 per advertiser") {
    tic.mixtures.foreach(mix => assert(math.abs(mix.sum - 1.0) < 1e-9))
  }

  test("TIC mixtures touch exactly topicsPerAd topics") {
    tic.mixtures.foreach(mix => assert(mix.count(_ > 0) == tic.topicsPerAd))
  }

  test("TIC probabilities lie in [0, pMax]") {
    for (i <- 0 until tic.h) {
      val p = tic.prob(i)
      assert(p.forall(x => x >= 0 && x <= tic.pMax + 1e-12))
    }
  }

  test("lastfm TIC positive fraction is near the paper's 77%") {
    val f = tic.positiveFraction
    assert(f > 0.65 && f < 0.90, s"positiveFraction=$f")
  }

  test("flixster TIC positive fraction is ≥ 95% (paper)") {
    val gf = GraphGen.graph(spark, GraphGen.Flixster)
    val t = InfluenceModels.flixsterTic(gf, 10)
    assert(t.positiveFraction >= 0.95, s"positiveFraction=${t.positiveFraction}")
  }

  test("different advertisers get different probability vectors") {
    val p0 = tic.prob(0); val p1 = tic.prob(1)
    assert(!(p0 sameElements p1))
  }

  test("TIC model is deterministic in its seed") {
    val t2 = InfluenceModels.lastfmTic(g, 10)
    assert(t2.prob(3) sameElements tic.prob(3))
    assert(t2.mixtures(7) sameElements tic.mixtures(7))
  }

  test("per-ad probability is the mixture of topic probabilities") {
    val e = 123 // arbitrary edge
    for (i <- 0 until tic.h) {
      val expected = (0 until tic.L).map(z => tic.mixtures(i)(z) * tic.topicProb(z)(e)).sum
      assert(math.abs(tic.prob(i)(e) - expected) < 1e-12)
    }
  }

  test("weighted cascade: probability is 1/indeg of the destination") {
    val wc = new WeightedCascade(g, 3)
    val p = wc.prob(0)
    for (e <- 0 until math.min(g.m, 500))
      assert(math.abs(p(e) - 1.0 / g.inDegree(g.dst(e))) < 1e-12)
  }

  test("weighted cascade is identical across advertisers") {
    val wc = new WeightedCascade(g, 3)
    assert(wc.prob(0) eq wc.prob(2))
  }

  test("WC in-probabilities sum to 1 per node") {
    val wc = new WeightedCascade(g, 1)
    val p = wc.prob(0)
    val sums = new Array[Double](g.n)
    for (e <- 0 until g.m) sums(g.dst(e)) += p(e)
    for (v <- 0 until g.n if g.inDegree(v) > 0)
      assert(math.abs(sums(v) - 1.0) < 1e-9, s"v=$v sum=${sums(v)}")
  }

  test("explicit model validates dimensions") {
    val sg = SocialGraph.fromPairs(2, Seq((0, 1)))
    assertThrows[IllegalArgumentException](new ExplicitModel(sg, Array(Array(0.5, 0.5))))
  }

  test("explicit model returns its rows") {
    val sg = SocialGraph.fromPairs(2, Seq((0, 1)))
    val m = new ExplicitModel(sg, Array(Array(0.25), Array(0.75)))
    assert(m.h == 2 && m.prob(0)(0) == 0.25 && m.prob(1)(0) == 0.75)
  }
}
