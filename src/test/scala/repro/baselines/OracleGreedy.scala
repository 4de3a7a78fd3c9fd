package repro.baselines

import repro.core.{LazyGreedy, RMProblem, Seeding}
import repro.core.Alloc.Alloc

/** Aslay et al.'s oracle-mode baselines (§2.2):
  *
  *   - CA-Greedy (cost-agnostic): at each step select the element (u,i) with
  *     maximum marginal gain `π_i(u|S_i)`.
  *   - CS-Greedy (cost-sensitive): select by maximum marginal rate
  *     `ζ_i(u|S_i)`.
  *
  * Both respect the partition matroid (a node endorses one ad) and the
  * per-advertiser submodular knapsack `c_i(S_i)+π_i(S_i) ≤ B_i`. When the
  * chosen best element for advertiser i violates the budget, advertiser i's
  * selection terminates (the behaviour the paper's §5.2 analysis of
  * TI-CARM's superlinear-cost collapse describes).
  */
object OracleGreedy {

  def run(prob: RMProblem, costSensitive: Boolean): Alloc = {
    val n = prob.n; val h = prob.h
    val sd = Seeding.empty(prob)
    val terminated = new Array[Boolean](h)
    var active = h

    def key(i: Int, u: Int): Double = if (costSensitive) sd.rate(i, u) else sd.sess.gain(u, i)
    def dead(e: Int): Boolean = terminated(e / n) || sd.has(e % n)
    // A dead element is dropped before its key is recomputed: its key is +∞,
    // which is never stale, and `take` skips it.
    LazyGreedy.run(prob.feasibleHeap(key), LazyGreedy.NeverCancelled,
                   e => if (dead(e)) Double.PositiveInfinity else key(e / n, e % n)) { (e, _) =>
      if (!dead(e)) {
        val ad = e / n; val u = e % n
        if (sd.fits(ad, u, sd.sess.gain(u, ad))) sd.add(ad, u)
        else {
          terminated(ad) = true
          active -= 1
        }
      }
      active > 0
    }
    sd.alloc
  }

  def caGreedy(prob: RMProblem): Alloc = run(prob, costSensitive = false)
  def csGreedy(prob: RMProblem): Alloc = run(prob, costSensitive = true)
}
