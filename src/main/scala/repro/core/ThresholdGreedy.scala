package repro.core

import java.util.concurrent.atomic.AtomicBoolean
import Alloc.Alloc

/** Algorithms 2 & 3 — ThresholdGreedy(γ) and Fill.
  *
  * ThresholdGreedy selects by maximum marginal *gain* but only accepts
  * elements whose marginal *rate* clears `γ/B_i`; the first over-budget node
  * per advertiser is the stopple `D_i` and depletes that advertiser
  * (`I`/`b` count the depleted ones). If exactly one advertiser depleted,
  * a fallback `Greedy` run provides `A_i`; each advertiser keeps the best of
  * `{S_i, D_i, A_i}` and `Fill` then greedily (by rate) tops up every
  * advertiser whose budget is not yet depleted.
  *
  * A call reads the problem and its oracle but writes only its own heaps
  * and seedings, so calls for different γ may run concurrently (Search does).
  */
object ThresholdGreedy {

  /** Result: the allocation after Fill, `b` = number of advertisers whose
    * budget was depleted during the threshold phase, and `pi` = π(S⃗) of the
    * allocation, summed over advertisers in index order (the same double as
    * `Alloc.piTotal(prob.oracle, alloc)`).
    */
  final case class TGResult(alloc: Alloc, b: Int, pi: Double)

  def run(prob: RMProblem, gamma: Double): TGResult = run(prob, gamma, LazyGreedy.NeverCancelled)

  /** [[run]] that stops with a `CancellationException` at its start or at
    * the first heap pop after `cancelled` is set.
    */
  private[core] def run(prob: RMProblem, gamma: Double, cancelled: AtomicBoolean): TGResult = {
    LazyGreedy.checkCancelled(cancelled)
    val n = prob.n; val h = prob.h
    val sd = Seeding.empty(prob)
    val dOf = Array.fill(h)(-1)            // stopple node per advertiser
    val stopple = new Array[Boolean](n)    // in ∪_j D_j; never a seed, so Fill sees it free
    var depleted = 0

    // M: all individually feasible elements, keyed by marginal gain.
    LazyGreedy.run(prob.feasibleHeap(prob.singletonPi(_)(_)), cancelled, e => sd.sess.gain(e % n, e / n)) { (e, g) =>
      // (u, ad) is the max-marginal-gain element of M; it is now removed.
      val ad = e / n; val u = e % n
      val thresholdOk = RevenueSession.rate(g, prob.costs(ad)(u)) >= gamma / prob.budgets(ad) - 1e-12
      if (thresholdOk && dOf(ad) < 0 && !sd.has(u) && !stopple(u)) {
        if (sd.fits(ad, u, g)) sd.add(ad, u)
        else {
          dOf(ad) = u
          stopple(u) = true
          depleted += 1
        }
      }
      depleted != h
    }

    val s = sd.alloc
    val b = depleted

    // Line 9–10: single-depleted fallback Greedy over V minus all S_j.
    val aFallback: Array[(IndexedSeq[Int], Double)] = Array.fill(h)((Vector.empty, 0.0))
    if (b == 1) {
      val ad = dOf.indexWhere(_ >= 0)
      aFallback(ad) = Greedy.scored(prob, (0 until n).filter(!sd.has(_)), ad, cancelled)
    }

    // Line 11: per advertiser keep the first best of {S_j, D_j, A_j}. S_j is
    // scored by the seeding's session, which holds exactly the S_j.
    var keptS = true
    val sPrime: Alloc = Vector.tabulate(h) { j =>
      val d = dOf(j)
      val (a, piA) = aFallback(j)
      var best = s(j); var piBest = sd.sess.pi(j)
      val piD = if (d >= 0) prob.singletonPi(j)(d) else 0.0
      if (piD > piBest) { best = Vector(d); piBest = piD; keptS = false }
      if (piA > piBest) { best = a; keptS = false }
      best
    }

    // When every advertiser kept S_j, the seeding is S⃗′, so Fill continues it.
    val filled = fillFrom(prob, if (keptS) sd else Seeding.of(prob, sPrime), cancelled)
    TGResult(filled.alloc, b, filled.pi)
  }

  /** Algorithm 3 — Fill(S⃗): greedy top-up by marginal rate until all budgets
    * are depleted or no feasible element remains.
    */
  def fill(prob: RMProblem, start: Alloc): Alloc =
    fillFrom(prob, Seeding.of(prob, start), LazyGreedy.NeverCancelled).alloc

  /** Fill continuing `sd`; returns it grown. */
  private def fillFrom(prob: RMProblem, sd: Seeding, cancelled: AtomicBoolean): Seeding = {
    val n = prob.n
    LazyGreedy.run(prob.feasibleHeap(sd.rate), cancelled, e => sd.rate(e / n, e % n)) { (e, _) =>
      val ad = e / n; val u = e % n
      if (!sd.has(u) && sd.fits(ad, u, sd.sess.gain(u, ad))) sd.add(ad, u)
      true // element removed from M either way
    }
    sd
  }
}
