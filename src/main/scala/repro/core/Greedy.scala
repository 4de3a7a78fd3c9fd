package repro.core

import java.util.concurrent.atomic.AtomicBoolean

/** Algorithm 1 — Greedy(U, i): single-advertiser 1/3-approximation.
  *
  * Repeatedly picks the candidate with maximum marginal *rate*
  * `ζ_i(v|S_i) = π_i(v|S_i)/(c_i(v)+π_i(v|S_i))`; the first node whose
  * addition would exceed the budget becomes the "stopple" set `D_i` and the
  * better of `S_i` and `D_i` is returned.
  */
object Greedy {

  /** Run over candidate set `candidates` for advertiser `i`; returns the
    * selected seed set.
    */
  def run(prob: RMProblem, candidates: IndexedSeq[Int], i: Int): IndexedSeq[Int] =
    scored(prob, candidates, i)._1

  /** [[run]], also returning `π_i` of the selected set: the session's π for
    * `S_i`, the singleton π for the stopple. Stops with a
    * `CancellationException` at the first heap pop after `cancelled` is set.
    */
  private[core] def scored(prob: RMProblem, candidates: IndexedSeq[Int], i: Int,
                           cancelled: AtomicBoolean = LazyGreedy.NeverCancelled): (IndexedSeq[Int], Double) = {
    val sd = Seeding.empty(prob)
    def rate(u: Int): Double = sd.rate(i, u)
    // Line 1: drop individually infeasible candidates.
    val heap = DoubleIntHeap.of(candidates)(prob.elementFeasible(i, _), rate)

    var d = -1
    LazyGreedy.run(heap, cancelled, rate) { (u, _) =>
      // u is the true argmax of ζ_i(·|S_i)
      val fits = sd.fits(i, u, sd.sess.gain(u, i))
      if (fits) sd.add(i, u)
      else d = u // D_i nonempty stops the loop
      fits
    }
    val piS = sd.sess.pi(i)
    val piD = if (d >= 0) prob.singletonPi(i)(d) else -1.0
    if (piD > piS) (Vector(d), piD) else (sd.alloc(i), piS)
  }
}
