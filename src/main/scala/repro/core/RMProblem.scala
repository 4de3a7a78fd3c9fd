package repro.core

/** An instance of the Revenue Maximization problem (Definition 2.1) as seen
  * by the algorithms: a revenue oracle (exact or sampled), advertiser budgets
  * and per-(advertiser, node) seed costs.
  *
  * @param oracle  π_i(·) provider
  * @param budgets B_i, length h
  * @param costs   c_i(u) = costs(i)(u), h × n
  */
final class RMProblem(
    val oracle: RevenueOracle,
    val budgets: Array[Double],
    val costs: Array[Array[Double]],
) {
  require(budgets.length == oracle.h, "one budget per advertiser")
  require(costs.length == oracle.h && costs.forall(_.length == oracle.n), "cost table must be h x n")

  def n: Int = oracle.n
  def h: Int = oracle.h

  /** Seed-incentive cost of a set: `c_i(X) = Σ_{u∈X} c_i(u)`. */
  def costOf(i: Int, xs: Iterable[Int]): Double = {
    var s = 0.0
    for (u <- xs) s += costs(i)(u)
    s
  }

  /** Total payment `c_i(X) + π_i(X)` of advertiser i for seed set X. */
  def paymentOf(i: Int, xs: Iterable[Int]): Double = costOf(i, xs) + oracle.piOf(i, xs)

  /** π_i({u}) for every element, used by feasibility filters and γ_max.
    * Computed once per problem; O(h·n) for the RR oracle.
    */
  lazy val singletonPi: Array[Array[Double]] =
    Array.tabulate(h)(i => Array.tabulate(n)(u => oracle.piSingle(i, u)))

  /** A heap of every individually feasible element (i, u), stored as
    * `i·n + u`, keyed by `key(i, u)` and pushed in (i, u) order. The push
    * order fixes the heap layout, and so which of two equal keys pops first.
    */
  def feasibleHeap(key: (Int, Int) => Double): DoubleIntHeap = {
    val heap = new DoubleIntHeap(n * h)
    var i = 0
    while (i < h) {
      var u = 0
      while (u < n) {
        if (elementFeasible(i, u)) heap.push(key(i, u), i * n + u)
        u += 1
      }
      i += 1
    }
    heap
  }

  /** ThresholdGreedy's initial heap M, keyed by π_i({u}). It does not depend
    * on γ, so each call takes a [[DoubleIntHeap.copy]] of it.
    */
  private[core] lazy val thresholdHeap: DoubleIntHeap = feasibleHeap(singletonPi(_)(_))

  /** Is element (u,i) individually budget-feasible: `c_i(u)+π_i({u}) ≤ B_i`? */
  def elementFeasible(i: Int, u: Int): Boolean =
    costs(i)(u) + singletonPi(i)(u) <= budgets(i) + 1e-9

  /** γ_max = max{ B_j·ζ_j(v|∅) } (Eqn. 6). */
  lazy val gammaMax: Double = {
    var mx = 0.0
    var i = 0
    while (i < h) {
      var u = 0
      while (u < n) {
        val g = singletonPi(i)(u)
        val c = costs(i)(u)
        if (c + g > 0) {
          val v = budgets(i) * g / (c + g)
          if (v > mx) mx = v
        }
        u += 1
      }
      i += 1
    }
    mx
  }
}

/** An allocation S⃗ = (S_1, …, S_h): one (possibly empty) seed list per
  * advertiser, disjoint across advertisers.
  */
object Alloc {
  type Alloc = IndexedSeq[IndexedSeq[Int]]

  def empty(h: Int): Alloc = Vector.fill(h)(Vector.empty)

  def piTotal(oracle: RevenueOracle, a: Alloc): Double = {
    var s = 0.0
    var i = 0
    while (i < oracle.h) { s += oracle.piOf(i, a(i)); i += 1 }
    s
  }

  def seedCount(a: Alloc): Int = a.map(_.size).sum

  def disjoint(a: Alloc): Boolean = {
    val all = a.flatten
    all.size == all.toSet.size
  }
}
