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
  * and sessions, so calls for different γ may run concurrently (Search does).
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
    val sess = prob.oracle.newSession()

    val assigned = new Array[Boolean](n) // in ∪_j (S_j ∪ D_j)
    val dOf = Array.fill(h)(-1)          // stopple node per advertiser
    val sLists = Array.fill(h)(Vector.newBuilder[Int])
    val costS = new Array[Double](h)
    var depleted = 0

    // M: all individually feasible elements, keyed by marginal gain.
    LazyGreedy.run(prob.feasibleHeap(prob.singletonPi(_)(_)), cancelled, e => sess.gain(e % n, e / n)) { (e, g) =>
      // (u, ad) is the max-marginal-gain element of M; it is now removed.
      val ad = e / n; val u = e % n
      val c = prob.costs(ad)(u)
      val thresholdOk = RevenueSession.rate(g, c) >= gamma / prob.budgets(ad) - 1e-12
      if (thresholdOk && dOf(ad) < 0 && !assigned(u)) {
        if (costS(ad) + c + sess.pi(ad) + g <= prob.budgets(ad) + 1e-9) {
          sess.add(u, ad)
          costS(ad) += c
          sLists(ad) += u
          assigned(u) = true
        } else {
          dOf(ad) = u
          assigned(u) = true
          depleted += 1
        }
      }
      depleted != h
    }

    val s: Array[IndexedSeq[Int]] = sLists.map(_.result())
    val b = depleted

    // Line 9–10: single-depleted fallback Greedy over V minus all S_j.
    val aFallback: Array[(IndexedSeq[Int], Double)] = Array.fill(h)((Vector.empty, 0.0))
    if (b == 1) {
      val ad = dOf.indexWhere(_ >= 0)
      val inS = new Array[Boolean](n)
      s.foreach(_.foreach(inS(_) = true))
      val candidates = (0 until n).filter(!inS(_)).toVector
      aFallback(ad) = Greedy.scored(prob, candidates, ad, cancelled)
    }

    // Line 11: per advertiser keep the first best of {S_j, D_j, A_j}. S_j is
    // scored by the session, which holds exactly the S_j (never a D_j).
    var keptS = true
    val sPrime: Alloc = Vector.tabulate(h) { j =>
      val d = dOf(j)
      val (a, piA) = aFallback(j)
      var best = s(j); var piBest = sess.pi(j)
      val piD = if (d >= 0) prob.singletonPi(j)(d) else 0.0
      if (piD > piBest) { best = Vector(d); piBest = piD; keptS = false }
      if (piA > piBest) { best = a; keptS = false }
      best
    }

    // When every advertiser kept S_j, the session is the one a fresh session
    // reaches by adding S⃗′, so Fill continues it.
    val (alloc, pi) = fillFrom(prob, sPrime, if (keptS) sess else sessionOf(prob, sPrime), cancelled)
    TGResult(alloc, b, pi)
  }

  /** Algorithm 3 — Fill(S⃗): greedy top-up by marginal rate until all budgets
    * are depleted or no feasible element remains.
    */
  def fill(prob: RMProblem, start: Alloc): Alloc =
    fillFrom(prob, start, sessionOf(prob, start), LazyGreedy.NeverCancelled)._1

  /** A fresh session holding `alloc`. */
  private def sessionOf(prob: RMProblem, alloc: Alloc): RevenueSession = {
    val sess = prob.oracle.newSession()
    var i = 0
    while (i < prob.h) { alloc(i).foreach(sess.add(_, i)); i += 1 }
    sess
  }

  /** Fill from `start`, continuing `sess`, which must hold exactly `start`.
    * Returns the allocation and its π(S⃗) read off the session.
    */
  private def fillFrom(prob: RMProblem, start: Alloc, sess: RevenueSession,
                       cancelled: AtomicBoolean): (Alloc, Double) = {
    val n = prob.n; val h = prob.h
    val assigned = new Array[Boolean](n)
    val costS = new Array[Double](h)
    val out = Array.tabulate(h)(i => Vector.newBuilder[Int] ++= start(i))
    var i = 0
    while (i < h) {
      for (u <- start(i)) {
        costS(i) += prob.costs(i)(u)
        assigned(u) = true
      }
      i += 1
    }
    def rate(ad: Int, u: Int): Double = sess.rate(u, ad, prob.costs(ad)(u))
    LazyGreedy.run(prob.feasibleHeap(rate), cancelled, e => rate(e / n, e % n)) { (e, _) =>
      val ad = e / n; val u = e % n
      val g = sess.gain(u, ad)
      val c = prob.costs(ad)(u)
      if (!assigned(u) && costS(ad) + c + sess.pi(ad) + g <= prob.budgets(ad) + 1e-9) {
        sess.add(u, ad)
        costS(ad) += c
        out(ad) += u
        assigned(u) = true
      }
      true // element removed from M either way
    }
    var pi = 0.0
    i = 0
    while (i < h) { pi += sess.pi(i); i += 1 }
    (Vector.tabulate(h)(j => out(j).result()), pi)
  }
}
