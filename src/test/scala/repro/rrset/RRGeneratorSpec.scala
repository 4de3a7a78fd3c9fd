package repro.rrset

import java.util.SplittableRandom
import repro.SparkSpec
import repro.core.ExactOracle
import repro.eval.Experiments
import repro.graph.{ExplicitModel, GraphGen, InfluenceModel, InfluenceModels, SocialGraph, WeightedCascade}

class RRGeneratorSpec extends SparkSpec {

  // Small probabilistic graph: 0→1 (.5), 1→2 (.5), 0→3 (.25), 3→2 (1.0)
  private lazy val g = SocialGraph.fromPairs(4, Seq((0, 1), (1, 2), (0, 3), (3, 2)))
  private def probOf(i: Int): Array[Double] = {
    // edge-id order is sorted (src,dst): (0,1),(0,3),(1,2),(3,2)
    Array(0.5, 0.25, 0.5, 1.0)
  }
  private lazy val model = new ExplicitModel(g, Array(probOf(0), probOf(1)))
  private lazy val cpe = Array(1.0, 3.0)
  private lazy val source = new RRSource(spark, model, cpe)

  test("deterministic: same seed gives identical collections") {
    val c1 = source.collection(2000, seed = 5)
    val c2 = source.collection(2000, seed = 5)
    assert(c1.numSets == c2.numSets && c1.totalNodes == c2.totalNodes)
    assert((0 until c1.numSets).forall(s => c1.tagOf(s) == c2.tagOf(s)))
    assert((0 until c1.numSets).forall(s => c1.setMembers(s).toSeq == c2.setMembers(s).toSeq))
  }

  test("different seeds give different collections") {
    val c1 = source.collection(2000, seed = 5)
    val c2 = source.collection(2000, seed = 6)
    assert(c1.totalNodes != c2.totalNodes ||
      (0 until c1.numSets).exists(s => c1.setMembers(s).toSeq != c2.setMembers(s).toSeq))
  }

  test("advertiser tags are cpe-proportional (uniform sampling, §4.2)") {
    val c = source.collection(40000, seed = 1)
    val tag1 = (0 until c.numSets).count(c.tagOf(_) == 1)
    val frac = tag1.toDouble / c.numSets
    assert(math.abs(frac - 0.75) < 0.02, s"tag-1 fraction=$frac, expected 0.75") // cpe 3 of Γ=4
  }

  test("every RR set contains its root and only valid nodes") {
    val c = source.collection(5000, seed = 2)
    for (s <- 0 until c.numSets) {
      val ms = c.setMembers(s)
      assert(ms.nonEmpty)
      assert(ms.forall(u => u >= 0 && u < g.n))
      assert(ms.distinct.length == ms.length, "no duplicates within a set")
    }
  }

  test("deterministic edges always traversed: RR set from node 2 contains 3") {
    // 3→2 has p=1, so any RR set rooted at 2 must include 3.
    val c = source.collection(5000, seed = 3)
    for (s <- 0 until c.numSets) {
      val ms = c.setMembers(s).toSet
      if (ms.contains(2)) assert(ms.contains(3), s"set $s: $ms")
    }
  }

  test("estimator is unbiased: π̃ matches the exact oracle within 3 sigma") {
    val oracle = new ExactOracle(model, cpe)
    val c = source.collection(200000, seed = 4)
    for (i <- 0 until 2; seedSet <- Seq(Seq(0), Seq(2), Seq(0, 2), Seq(1, 3))) {
      val exact = oracle.piOf(i, seedSet)
      val est = c.piOf(i, seedSet)
      // Var of the per-set Bernoulli ≤ p(1-p); revenue units nΓ
      val se = c.scalePerSet * math.sqrt(c.numSets * 0.25)
      assert(math.abs(est - exact) < 3 * se + 0.05 * exact + 1e-6,
        s"ad=$i seeds=$seedSet est=$est exact=$exact")
    }
  }

  test("RR estimator matches the exact oracle on a small TIC-style model") {
    // Five nodes, one advertiser: 0→1 (.4), 0→2 (.6), 1→3 (.3), 2→3 (.5), 3→4 (.7).
    val tic = new ExplicitModel(
      SocialGraph.fromPairs(5, Seq((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))),
      Array(Array(0.4, 0.6, 0.3, 0.5, 0.7)))
    val oracle = new ExactOracle(tic, Array(1.0))
    val c = new RRSource(spark, tic, Array(1.0)).collection(200000, seed = 4)
    for (seedSet <- Seq(Seq(0), Seq(3), Seq(1, 2))) {
      val exact = oracle.piOf(0, seedSet)
      val est = c.piOf(0, seedSet)
      val se = c.scalePerSet * math.sqrt(c.numSets * 0.25)
      assert(math.abs(est - exact) < 3 * se + 0.05 * exact + 1e-6,
        s"seeds=$seedSet est=$est exact=$exact")
    }
  }

  test("estimator total matches summed per-ad estimates") {
    val c = source.collection(50000, seed = 8)
    val alloc = Vector(Vector(0), Vector(2))
    val total = (0 until 2).map(i => c.piOf(i, alloc(i))).sum
    assert(total > 0)
  }

  test("SUBSIM generation agrees with naive generation in distribution") {
    val cNaive = source.collection(150000, seed = 10, subsim = false)
    val cSub = source.collection(150000, seed = 11, subsim = true)
    for (i <- 0 until 2; u <- 0 until g.n) {
      val a = cNaive.sigmaSingleton(u, i)
      val b = cSub.sigmaSingleton(u, i)
      assert(math.abs(a - b) < 0.08 * math.max(1.0, math.max(a, b)) + 0.05,
        s"ad=$i node=$u naive=$a subsim=$b")
    }
  }

  test("appendTo grows an existing collection and re-indexes") {
    val c = source.collection(1000, seed = 20)
    val before = c.numSets
    source.appendTo(c, 1000, seed = 21)
    assert(c.numSets == before + 1000)
    assert(c.piOf(0, Seq(0)) >= 0)
  }

  test("appendTo with zero sets is a no-op") {
    val c = source.collection(500, seed = 22)
    source.appendTo(c, 0, seed = 23)
    assert(c.numSets == 500)
  }

  test("single-node graph yields singleton RR sets") {
    val g1 = SocialGraph.fromPairs(2, Seq((0, 1)))
    val m1 = new ExplicitModel(g1, Array(Array(0.0)))
    val s1 = new RRSource(spark, m1, Array(1.0))
    val c = s1.collection(1000, seed = 1)
    assert((0 until c.numSets).forall(s => c.setMembers(s).length == 1))
  }

  test("p=1 chain: RR sets contain all ancestors of the root") {
    val gc = SocialGraph.fromPairs(4, Seq((0, 1), (1, 2), (2, 3)))
    val mc = new ExplicitModel(gc, Array(Array(1.0, 1.0, 1.0)))
    val sc = new RRSource(spark, mc, Array(1.0))
    val c = sc.collection(2000, seed = 2)
    for (s <- 0 until c.numSets) {
      val ms = c.setMembers(s).toSet
      val root = c.setMembers(s)(0)
      assert(ms == (0 to root).toSet, s"root=$root ms=$ms")
    }
  }

  test("coverage cuts each set at its first seed and counts the members it generated") {
    // p=1 chain: the set rooted at r is {r, r−1, …, 0} in BFS order, so with
    // seed 1 the sets rooted at 2 and 3 stop before reaching 0.
    val gc = SocialGraph.fromPairs(4, Seq((0, 1), (1, 2), (2, 3)))
    val sc = new RRSource(spark, new ExplicitModel(gc, Array(Array(1.0, 1.0, 1.0))), Array(1.0))
    val batches = Seq((2000, 6L), (1000, 7L))
    val stored = sc.collection(2000, seed = 6)
    sc.appendTo(stored, 1000, seed = 7)
    val none = sc.coverage(Vector(Vector.empty), batches, subsim = false)
    assert(none.members == stored.totalNodes && none.covered.sameElements(Array(0L)))
    val one = sc.coverage(Vector(Vector(1)), batches, subsim = false)
    assert(one.members < stored.totalNodes)
    val roots = (0 until stored.numSets).map(stored.setMembers(_)(0))
    assert(one.covered(0) == roots.count(_ >= 1))
    assert(one.members == roots.map(r => if (r >= 1) r else 1).sum)
    val all = sc.coverage(Vector(0 until 4), batches, subsim = false)
    assert(all.members == stored.numSets && all.covered(0) == stored.numSets)
  }

  test("SUBSIM on p=1 graph still reaches all ancestors (maxP≈1 fallback)") {
    val gc = SocialGraph.fromPairs(3, Seq((0, 1), (1, 2)))
    val mc = new ExplicitModel(gc, Array(Array(1.0, 1.0)))
    val sc = new RRSource(spark, mc, Array(1.0))
    val c = sc.collection(1000, seed = 3, subsim = true)
    for (s <- 0 until c.numSets) {
      val root = c.setMembers(s)(0)
      assert(c.setMembers(s).toSet == (0 to root).toSet)
    }
  }

  test("SUBSIM with a 1e-12 in-edge draws at most indeg in-edges, at their positions") {
    // Node 2's in-edge sits at reverse-CSR position 1, so its binomial CDF
    // starts at offset 1 + 2: a CDF read at the wrong offset, or a scan
    // that ran past its +inf entry (K > indeg), would show here.
    val gt = SocialGraph.fromPairs(3, Seq((0, 1), (1, 2)))
    val mt = new ExplicitModel(gt, Array(Array(0.5, 1e-12)))
    val c = new RRSource(spark, mt, Array(1.0)).collection(3000, seed = 4, subsim = true)
    assert(c.numSets == 3000)
    // Only sets rooted at 1 (a root is listed first) contain it.
    assert((0 until c.numSets).forall(s => c.setMembers(s)(0) == 1 || !c.setMembers(s).contains(1)))
  }

  test("Weighted Cascade advertisers share sampler tables; sets equal unshared copies") {
    val rng = new SplittableRandom(12)
    val gw = SocialGraph.fromPairs(40,
      Seq.fill(160)((rng.nextInt(40), rng.nextInt(40))).filter { case (a, b) => a != b }.distinct)
    val wc = new WeightedCascade(gw, 4)
    val cpe4 = Array(1.0, 1.5, 2.0, 0.5)
    val shared = RRSamplerState(wc, cpe4)
    assert((1 until 4).forall(i => (shared.probRev(i) eq shared.probRev(0)) && (shared.maxP(i) eq shared.maxP(0))))
    val copies = RRSamplerState(new ExplicitModel(gw, Array.fill(4)(wc.prob(0).clone())), cpe4)
    assert(copies.probRev(1) ne copies.probRev(0))
    for (subsim <- Seq(false, true)) {
      def sets(st: RRSamplerState): Seq[Seq[Int]] = {
        val r = new SplittableRandom(77)
        val queue = new Array[Int](gw.n)
        val stamp = new Array[Int](gw.n)
        val picks = st.newPicks()
        (1 to 3000).map { t =>
          val ad = st.sampleAd(r)
          val sz = st.generate(ad, r.nextInt(gw.n), r, queue, stamp, t, subsim, stop = null, picks = picks)
          ad +: queue.take(sz).toSeq
        }
      }
      assert(sets(shared) == sets(copies), s"subsim=$subsim")
    }
  }

  /** Reference naive sampler: one Bernoulli flip per in-edge, in
    * reverse-CSR order.
    */
  private def inlineNaiveGenerate(st: RRSamplerState, ad: Int, root: Int, rng: SplittableRandom,
                                  queue: Array[Int], stamp: Array[Int], cur: Int): Int = {
    val probs = st.probRev(ad)
    var head = 0
    var tail = 0
    queue(tail) = root; tail += 1
    stamp(root) = cur
    while (head < tail) {
      val v = queue(head); head += 1
      var p = st.revHead(v)
      while (p < st.revHead(v + 1)) {
        val pe = probs(p)
        if (pe > 0 && rng.nextDouble() < pe) {
          val u = st.revSrc(p)
          if (stamp(u) != cur) { stamp(u) = cur; queue(tail) = u; tail += 1 }
        }
        p += 1
      }
    }
    tail
  }

  test("naive sets equal the inline per-edge reference sampler") {
    val rng = new SplittableRandom(31)
    val gm = SocialGraph.fromPairs(200,
      Seq.fill(1600)((rng.nextInt(200), rng.nextInt(200))).filter { case (a, b) => a != b }.distinct)
    // TIC-like: per-advertiser arrays mixing tiny, moderate and near-1 probabilities.
    def mixed(): Array[Double] = Array.fill(gm.m) {
      val x = rng.nextDouble()
      if (x < 0.1) 1e-9 else if (x < 0.2) 0.995 else if (x < 0.3) 0.0 else 0.3 * rng.nextDouble()
    }
    val tic = RRSamplerState(new ExplicitModel(gm, Array.fill(3)(mixed())), Array(1.0, 2.0, 0.5))
    val wc = RRSamplerState(new WeightedCascade(gm, 3), Array(1.0, 2.0, 0.5))
    for (st <- Seq(tic, wc)) {
      val rngA = new SplittableRandom(5)
      val rngB = new SplittableRandom(5)
      val (qa, sa, qb, sb) = (new Array[Int](gm.n), new Array[Int](gm.n), new Array[Int](gm.n), new Array[Int](gm.n))
      for (t <- 1 to 12000) {
        val ad = st.sampleAd(rngA)
        assert(st.sampleAd(rngB) == ad)
        val root = rngA.nextInt(gm.n)
        assert(rngB.nextInt(gm.n) == root)
        val za = st.generate(ad, root, rngA, qa, sa, t, subsim = false, stop = null, picks = null)
        val zb = inlineNaiveGenerate(st, ad, root, rngB, qb, sb, t)
        assert(za == zb && java.util.Arrays.equals(qa, 0, za, qb, 0, zb), s"set $t")
      }
    }
  }

  test("binomial CDF tables: shared under WC, Binomial(indeg, pmax) per node, +inf at K = indeg") {
    val rng = new SplittableRandom(41)
    val gm = SocialGraph.fromPairs(300,
      Seq.fill(3000)((rng.nextInt(300), rng.nextInt(300))).filter { case (a, b) => a != b }.distinct)
    val wc = RRSamplerState(new WeightedCascade(gm, 3), Array(1.0, 2.0, 0.5))
    val tic = RRSamplerState(new ExplicitModel(gm, Array.fill(2)(Array.fill(gm.m)(0.5 * rng.nextDouble()))),
      Array(1.0, 1.0))
    assert((1 until 3).forall(i => wc.binomCdf(i) eq wc.binomCdf(0)))
    assert(tic.binomCdf(1) ne tic.binomCdf(0))
    for (st <- Seq(wc, tic); i <- 0 until st.h; v <- 0 until gm.n) {
      val d = st.revHead(v + 1) - st.revHead(v)
      val p = st.maxP(i)(v)
      val cdf = st.binomCdf(i).slice(st.revHead(v) + v, st.revHead(v + 1) + v + 1)
      assert(cdf.last == Double.PositiveInfinity)
      if (p > 0 && p < 0.99) {
        assert(cdf(0) == math.exp(d * math.log1p(-p)))
        // The exact CDF (pmf by the product formula, summed): finite entries
        // agree with it, and +inf starts only once the rest is negligible.
        var exact = 0.0
        for (k <- 0 until d) {
          if (cdf(k).isInfinite) assert(1 - exact < 1e-12, s"ad=$i v=$v k=$k")
          val binom = (0 until k).map(j => (d - j).toDouble / (j + 1)).product
          exact += binom * math.pow(p, k) * math.pow(1 - p, d - k)
          if (!cdf(k).isInfinite) assert(math.abs(cdf(k) - exact) < 1e-12, s"ad=$i v=$v k=$k")
        }
      }
    }
  }

  test("naive sets are pinned: flixster-lite TIC and dblp-lite WC") {
    // Checksums of every tag, size and member of two naive collections,
    // computed with the geometric-jump SUBSIM sampler still in place: the
    // naive path must stay bit-identical whatever the SUBSIM path does.
    def checksum(model: InfluenceModel, seed: Long): Long = {
      val c = new RRSource(spark, model, Experiments.cpes).collection(40000, seed)
      var x = c.numSets.toLong
      for (s <- 0 until c.numSets) {
        val ms = c.setMembers(s)
        x = (x * 1000003L + c.tagOf(s)) * 1000003L + ms.length
        for (u <- ms) x = x * 31L + u
      }
      x
    }
    val fx = GraphGen.graph(spark, GraphGen.Flixster)
    val db = GraphGen.graph(spark, GraphGen.Dblp)
    assert(checksum(InfluenceModels.flixsterTic(fx, Experiments.H), 5L) == 3233637343908522831L)
    assert(checksum(new WeightedCascade(db, Experiments.H), 6L) == 7656795516708417009L)
  }
}
