package repro.baselines

import repro.core.{LazyGreedy, RMProblem}
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
    val sess = prob.oracle.newSession()
    val assigned = new Array[Boolean](n)
    val terminated = new Array[Boolean](h)
    val costS = new Array[Double](h)
    val out = Array.fill(h)(Vector.newBuilder[Int])
    var active = h

    def key(i: Int, u: Int): Double =
      if (costSensitive) sess.rate(u, i, prob.costs(i)(u)) else sess.gain(u, i)
    def dead(e: Int): Boolean = terminated(e / n) || assigned(e % n)
    // A dead element is dropped before its key is recomputed: its key is +∞,
    // which is never stale, and `take` skips it.
    LazyGreedy.run(prob.feasibleHeap(key), LazyGreedy.NeverCancelled,
                   e => if (dead(e)) Double.PositiveInfinity else key(e / n, e % n)) { (e, _) =>
      if (!dead(e)) {
        val ad = e / n; val u = e % n
        val g = sess.gain(u, ad)
        val c = prob.costs(ad)(u)
        if (costS(ad) + c + sess.pi(ad) + g <= prob.budgets(ad) + 1e-9) {
          sess.add(u, ad)
          costS(ad) += c
          out(ad) += u
          assigned(u) = true
        } else {
          terminated(ad) = true
          active -= 1
        }
      }
      active > 0
    }
    Vector.tabulate(h)(j => out(j).result())
  }

  def caGreedy(prob: RMProblem): Alloc = run(prob, costSensitive = false)
  def csGreedy(prob: RMProblem): Alloc = run(prob, costSensitive = true)
}
