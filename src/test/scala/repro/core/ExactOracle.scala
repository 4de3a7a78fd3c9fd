package repro.core

import repro.graph.InfluenceModel

/** Exact influence oracle by live-edge-world enumeration (tests only).
  *
  * For each advertiser, edges with probability in (0,1) are "random"; edges
  * with p = 1 are always live; p = 0 never. σ_i(S) is computed exactly as
  * `Σ_worlds Pr[world]·|reach(S, world)|` over all 2^{#random} worlds —
  * the number of random edges per advertiser must stay ≤ `maxRandomEdges`.
  *
  * This is the "influence spread oracle" assumed in §3 of the paper, made
  * real on tiny instances so the approximation theorems can be checked
  * against brute-force optima.
  */
final class ExactOracle(
    val model: InfluenceModel,
    cpeArr: Array[Double],
    maxRandomEdges: Int = 16,
) extends RevenueOracle {

  private val g = model.graph
  val n: Int = g.n
  val h: Int = cpeArr.length
  def cpe(i: Int): Double = cpeArr(i)

  // Per advertiser: deterministic live edges + (randomEdgeIds, their probs).
  private case class AdWorlds(
      detAdj: Array[Array[Int]], // forward adjacency from p=1 edges
      randomEdges: Array[Int],   // edge ids with 0<p<1
      probs: Array[Double],
  )

  private val ads: Array[AdWorlds] = Array.tabulate(h) { i =>
    val p = model.prob(i)
    val rnd = (0 until g.m).filter(e => p(e) > 0 && p(e) < 1).toArray
    require(rnd.length <= maxRandomEdges,
      s"ExactOracle: ${rnd.length} random edges for ad $i exceeds $maxRandomEdges")
    val det = Array.fill(n)(List.empty[Int])
    for (e <- 0 until g.m if p(e) >= 1) det(g.src(e)) ::= g.dst(e)
    AdWorlds(det.map(_.toArray), rnd, rnd.map(p))
  }

  /** Exact σ_i(X). */
  def sigma(i: Int, xs: Iterable[Int]): Double = {
    val seeds = xs.toArray.distinct
    if (seeds.isEmpty) return 0.0
    val aw = ads(i)
    val k = aw.randomEdges.length
    var total = 0.0
    var mask = 0
    val nWorlds = 1 << k
    while (mask < nWorlds) {
      var w = 1.0
      var b = 0
      while (b < k) {
        w *= (if ((mask & (1 << b)) != 0) aw.probs(b) else 1 - aw.probs(b))
        b += 1
      }
      // BFS over det edges + selected random edges
      val extra = Array.fill(n)(List.empty[Int])
      b = 0
      while (b < k) {
        if ((mask & (1 << b)) != 0) {
          val e = aw.randomEdges(b)
          extra(g.src(e)) ::= g.dst(e)
        }
        b += 1
      }
      val seen = new Array[Boolean](n)
      var stack = seeds.toList
      seeds.foreach(s => seen(s) = true)
      var cnt = 0
      while (stack.nonEmpty) {
        val v = stack.head; stack = stack.tail
        cnt += 1
        for (w2 <- aw.detAdj(v)) if (!seen(w2)) { seen(w2) = true; stack ::= w2 }
        for (w2 <- extra(v)) if (!seen(w2)) { seen(w2) = true; stack ::= w2 }
      }
      total += w * cnt
      mask += 1
    }
    total
  }

  def piOf(i: Int, xs: Iterable[Int]): Double = cpeArr(i) * sigma(i, xs)

  def newSession(): RevenueSession = new RevenueSession {
    private val cur = Array.fill(h)(List.empty[Int])
    private val curPi = new Array[Double](h)
    def gain(u: Int, i: Int): Double = piOf(i, u :: cur(i)) - curPi(i)
    def add(u: Int, i: Int): Unit = { cur(i) ::= u; curPi(i) = piOf(i, cur(i)) }
    def pi(i: Int): Double = curPi(i)
  }
}

/** Brute-force optimal RM solution on tiny instances (tests): enumerate every
  * assignment of each node to one of the h advertisers or to none, keep the
  * budget-feasible assignment with maximum total revenue.
  */
object BruteForce {
  import Alloc.Alloc

  def optimal(prob: RMProblem): (Double, Alloc) = {
    val n = prob.n; val h = prob.h
    require(math.pow(h + 1, n) <= 4e6, s"brute force too large: (h+1)^n with n=$n h=$h")
    var bestV = 0.0
    var best: Alloc = Alloc.empty(h)
    val assign = new Array[Int](n) // 0 = none, 1..h = advertiser+1
    def rec(u: Int): Unit = {
      if (u == n) {
        val alloc: Alloc = Vector.tabulate(h)(i => (0 until n).filter(assign(_) == i + 1).toVector)
        var ok = true
        var i = 0
        while (i < h && ok) {
          if (TestInstances.payment(prob, i, alloc(i)) > prob.budgets(i) + 1e-9) ok = false
          i += 1
        }
        if (ok) {
          val v = Alloc.piTotal(prob.oracle, alloc)
          if (v > bestV) { bestV = v; best = alloc }
        }
      } else {
        var a = 0
        while (a <= h) { assign(u) = a; rec(u + 1); a += 1 }
      }
    }
    rec(0)
    (bestV, best)
  }
}
