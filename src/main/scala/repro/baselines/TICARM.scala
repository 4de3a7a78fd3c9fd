package repro.baselines

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession
import repro.core.{DoubleIntHeap, LazyGreedy, RevenueSession}
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
  *     marginal rate (TI-CSRM), on one [[LazyGreedy]] heap of every element
  *     (i, u) that is rebuilt after each regeneration;
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

    val sVec = Array.fill(h)(1)
    val colls = new Array[RRCollection](h)
    val sessions = new Array[RevenueSession](h)
    val sLists = Array.fill(h)(ArrayBuffer.empty[Int])
    val costS = new Array[Double](h)
    val terminated = new Array[Boolean](h)

    def currentSets: Long = colls.filter(_ != null).map(_.numSets.toLong).sum

    def regenerate(i: Int): Unit = {
      // Free the old collection (the session references it too) before its
      // replacement is sampled, so at most h collections are held at once.
      colls(i) = null
      sessions(i) = null
      regens += 1
      val k = sVec(i)
      val (kpt, kptSets) =
        TIM.kptEstimate(sources(i), model.graph, k, cfg.ell, cfg.seed * 31 + i * 7 + regens, cfg.subsim)
      totalGenerated += kptSets
      val th = math.min(cfg.maxSetsPerAd.toLong, TIM.theta(n, k, kpt, cfg.eps, cfg.ell)).toInt
      colls(i) = sources(i).collection(th, cfg.seed * 101 + i * 13 + regens, cfg.subsim)
      totalGenerated += th
      peakSets = math.max(peakSets, currentSets)
      // Rebuild the session by replaying S_i.
      val sess = colls(i).newSession()
      sLists(i).foreach(sess.add(_, 0))
      sessions(i) = sess
    }

    (0 until h).foreach(regenerate)

    def dead(e: Int): Boolean = terminated(e / n) || assigned(e % n)
    def keyOf(e: Int): Double = {
      val ad = e / n; val u = e % n
      val g = sessions(ad).gain(u, 0)
      if (costSensitive) RevenueSession.rate(g, costs(ad)(u)) else g
    }
    // Every live element i·n + u, pushed in (i, u) order; under TI-CSRM a
    // zero-gain element is left out.
    def liveHeap(): DoubleIntHeap =
      DoubleIntHeap.of(0 until n * h)(
        e => !dead(e) && (!costSensitive || sessions(e / n).gain(e % n, 0) > 0), keyOf)

    // A regeneration moves that advertiser's keys both ways, so the lazy run
    // stops after one and the heap is rebuilt with fresh keys.
    var regenerated = true
    while (regenerated) {
      regenerated = false
      // A dead element is dropped before its key is recomputed: its key is
      // +∞, which is never stale, and `take` skips it.
      LazyGreedy.run(liveHeap(), LazyGreedy.NeverCancelled,
                     e => if (dead(e)) Double.PositiveInfinity else keyOf(e)) { (e, _) =>
        if (!dead(e)) {
          val ad = e / n; val u = e % n
          val g = sessions(ad).gain(u, 0)
          val c = costs(ad)(u)
          // conservative feasibility: spread estimate inflated to an upper bound
          val piUb = (sessions(ad).pi(0) + g) * (1 + cfg.eps)
          if (costS(ad) + c + piUb <= budgets(ad) + 1e-9) {
            sessions(ad).add(u, 0)
            costS(ad) += c
            sLists(ad) += u
            assigned(u) = true
            if (sLists(ad).size >= sVec(ad)) {
              val remaining = budgets(ad) - costS(ad) - sessions(ad).pi(0) * (1 + cfg.eps)
              val newS = sizeUpper(ad, sLists(ad).size, math.max(0.0, remaining))
              if (newS <= sLists(ad).size) terminated(ad) = true
              else { sVec(ad) = newS; regenerate(ad); regenerated = true }
            }
          } else terminated(ad) = true
        }
        !regenerated && !terminated.forall(identity)
      }
    }

    Result(Vector.tabulate(h)(sLists(_).toVector),
      (System.nanoTime() - t0) / 1000000L, totalGenerated, peakSets, regens)
  }

  def tiCarm(spark: SparkSession, model: InfluenceModel, cpe: Array[Double],
             budgets: Array[Double], costs: Array[Array[Double]], cfg: Config): Result =
    run(spark, model, cpe, budgets, costs, costSensitive = false, cfg)

  def tiCsrm(spark: SparkSession, model: InfluenceModel, cpe: Array[Double],
             budgets: Array[Double], costs: Array[Array[Double]], cfg: Config): Result =
    run(spark, model, cpe, budgets, costs, costSensitive = true, cfg)
}
