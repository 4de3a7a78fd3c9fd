package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{DoubleIntHeap, RevenueSession}
import repro.core.Alloc.Alloc
import repro.graph.InfluenceModel
import repro.rrset.{RRCollection, RRSource}

/** TI-CARM and TI-CSRM — the practical baselines of Aslay et al. [5],
  * re-implemented from the descriptions in the paper's §2.2/§5 and TIM [67]
  * (the original source is not available; see DESIGN.md).
  *
  * Structure (as described in Appendix C of the paper):
  *   - one RR-set collection per advertiser, sized by TIM's θ(k, KPT) for the
  *     advertiser's current *latent seed-set size* s_i;
  *   - s_i starts at 1 and is re-estimated (and the sample re-generated,
  *     KPT re-estimated) whenever |S_i| reaches s_i;
  *   - greedy selection across advertisers by marginal gain (TI-CARM) or
  *     marginal rate (TI-CSRM);
  *   - budget feasibility is *conservative*: the spread estimate is inflated
  *     to an upper bound (factor 1+ε) before testing against B_i, so the
  *     returned allocation never overshoots but typically under-utilises the
  *     budget — limitation (iv) in §2.2.1;
  *   - an advertiser whose best element violates its budget terminates.
  */
object TICARM {

  final case class Config(
      eps: Double = 0.1,
      ell: Double = 1.0, // failure prob n^-ell (δ=1/n)
      seed: Long = 7L,
      subsim: Boolean = false,
      // Memory/time guard on TIM's θ (the paper's TI-* hit memory overflow in
      // exactly this regime, Fig 4); still ~an order of magnitude above RMA's
      // per-run sample budget at our scales, so the comparison shape holds.
      maxSetsPerAd: Int = 3_000_000,
  )

  final case class Result(
      alloc: Alloc,
      millis: Long,
      totalSetsGenerated: Long, // time proxy
      peakSets: Long,           // memory proxy (Fig 4)
      regenerations: Int,
  )

  def run(spark: SparkSession, model: InfluenceModel, cpe: Array[Double],
          budgets: Array[Double], costs: Array[Array[Double]],
          costSensitive: Boolean, cfg: Config): Result = {
    val t0 = System.nanoTime()
    val n = model.graph.n
    val h = cpe.length
    var totalGenerated = 0L
    var peakSets = 0L
    var regens = 0

    val sources = Array.tabulate(h)(i =>
      new RRSource(spark, new SingleAdModel(model, i), Array(cpe(i))))

    // Latent seed-size upper bound given a remaining budget: cheapest-first
    // packing of unassigned nodes, each paying its cost plus one engagement.
    val assigned = new Array[Boolean](n)
    def sizeUpper(i: Int, already: Int, remaining: Double): Int = {
      val cs = (0 until n).filter(!assigned(_)).map(u => costs(i)(u) + cpe(i)).sorted
      var k = 0
      var acc = 0.0
      while (k < cs.length && acc + cs(k) <= remaining) { acc += cs(k); k += 1 }
      already + k
    }

    val sVec = new Array[Int](h)
    val colls = new Array[RRCollection](h)
    val sessions = new Array[RevenueSession](h)
    val sLists = Array.fill(h)(Vector.newBuilder[Int])
    val sSizes = new Array[Int](h)
    val costS = new Array[Double](h)
    val terminated = new Array[Boolean](h)
    val heaps = new Array[DoubleIntHeap](h)

    def currentSets: Long = colls.filter(_ != null).map(_.numSets.toLong).sum

    def regenerate(i: Int): Unit = {
      regens += 1
      val k = math.max(1, sVec(i))
      val (kpt, kptSets) =
        TIM.kptEstimate(sources(i), model.graph, k, cfg.ell, cfg.seed * 31 + i * 7 + regens, cfg.subsim)
      totalGenerated += kptSets
      val th = math.min(cfg.maxSetsPerAd.toLong, TIM.theta(n, k, kpt, cfg.eps, cfg.ell)).toInt
      colls(i) = sources(i).collection(th, cfg.seed * 101 + i * 13 + regens, cfg.subsim)
      totalGenerated += th
      peakSets = math.max(peakSets, currentSets)
      // Rebuild the session (replay S_i) and this advertiser's heap.
      val sess = colls(i).newSession()
      sLists(i).result().foreach(u => sess.add(u, 0))
      sessions(i) = sess
      val hp = new DoubleIntHeap(n)
      var u = 0
      while (u < n) {
        if (!assigned(u)) {
          val g = sess.gain(u, 0)
          val key = if (costSensitive) RevenueSession.rate(g, costs(i)(u)) else g
          if (g > 0 || !costSensitive) hp.push(key, u)
        }
        u += 1
      }
      heaps(i) = hp
    }

    var i = 0
    while (i < h) {
      sVec(i) = 1
      regenerate(i)
      i += 1
    }

    def keyOf(i: Int, u: Int): Double = {
      val g = sessions(i).gain(u, 0)
      if (costSensitive) RevenueSession.rate(g, costs(i)(u)) else g
    }

    // Freshen ad i's heap top; returns true if a valid fresh top exists. Not
    // `LazyGreedy`: the stale test compares the fresh key with the element's
    // own cached key, not the next top, and the fresh top stays in the heap
    // so the tops of all advertisers can be compared.
    def freshen(i: Int): Boolean = {
      val hp = heaps(i)
      var ok = false
      var done = false
      while (!done && hp.nonEmpty) {
        val u = hp.topElem
        if (assigned(u)) hp.removeTop()
        else {
          val k = hp.topKey
          val cur = keyOf(i, u)
          if (cur < k - 1e-12) { hp.removeTop(); hp.push(cur, u) }
          else { ok = true; done = true }
        }
      }
      ok
    }

    var active = (0 until h).count(!terminated(_))
    while (active > 0) {
      // pick the best fresh top across non-terminated advertisers
      var bestAd = -1
      var bestKey = -1.0
      var j = 0
      while (j < h) {
        if (!terminated(j)) {
          if (!freshen(j)) { terminated(j) = true; active -= 1 }
          else if (heaps(j).topKey > bestKey) { bestKey = heaps(j).topKey; bestAd = j }
        }
        j += 1
      }
      if (bestAd >= 0) {
        val u = heaps(bestAd).topElem
        heaps(bestAd).removeTop()
        val g = sessions(bestAd).gain(u, 0)
        val c = costs(bestAd)(u)
        // conservative feasibility: spread estimate inflated to an upper bound
        val piUb = (sessions(bestAd).pi(0) + g) * (1 + cfg.eps)
        if (costS(bestAd) + c + piUb <= budgets(bestAd) + 1e-9) {
          sessions(bestAd).add(u, 0)
          costS(bestAd) += c
          sLists(bestAd) += u
          sSizes(bestAd) += 1
          assigned(u) = true
          if (sSizes(bestAd) >= sVec(bestAd)) {
            val remaining = budgets(bestAd) - costS(bestAd) - sessions(bestAd).pi(0) * (1 + cfg.eps)
            val newS = sizeUpper(bestAd, sSizes(bestAd), math.max(0.0, remaining))
            if (newS <= sSizes(bestAd)) { terminated(bestAd) = true; active -= 1 }
            else { sVec(bestAd) = newS; regenerate(bestAd) }
          }
        } else {
          terminated(bestAd) = true
          active -= 1
        }
      }
    }

    Result(Vector.tabulate(h)(j => sLists(j).result()),
      (System.nanoTime() - t0) / 1000000L, totalGenerated, peakSets, regens)
  }

  def tiCarm(spark: SparkSession, model: InfluenceModel, cpe: Array[Double],
             budgets: Array[Double], costs: Array[Array[Double]], cfg: Config): Result =
    run(spark, model, cpe, budgets, costs, costSensitive = false, cfg)

  def tiCsrm(spark: SparkSession, model: InfluenceModel, cpe: Array[Double],
             budgets: Array[Double], costs: Array[Array[Double]], cfg: Config): Result =
    run(spark, model, cpe, budgets, costs, costSensitive = true, cfg)
}
