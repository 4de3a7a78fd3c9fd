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
    val sess = prob.oracle.newSession()
    val b = prob.budgets(i)
    val costs = prob.costs(i)
    def rate(u: Int): Double = sess.rate(u, i, costs(u))
    val heap = new DoubleIntHeap(candidates.size)
    // Line 1: drop individually infeasible candidates.
    for (u <- candidates if prob.elementFeasible(i, u)) heap.push(rate(u), u)

    val s = Vector.newBuilder[Int]
    var costS = 0.0
    var d = -1
    LazyGreedy.run(heap, cancelled, rate) { (u, _) =>
      // u is the true argmax of ζ_i(·|S_i)
      val g = sess.gain(u, i)
      val fits = costS + costs(u) + sess.pi(i) + g <= b + 1e-9
      if (fits) {
        sess.add(u, i)
        costS += costs(u)
        s += u
      } else d = u // D_i nonempty stops the loop
      fits
    }
    val sSet = s.result()
    val piS = sess.pi(i)
    val piD = if (d >= 0) prob.singletonPi(i)(d) else -1.0
    if (piD > piS) (Vector(d), piD) else (sSet, piS)
  }
}
