package repro.eval

import repro.core.Alloc
import repro.core.Alloc.Alloc
import repro.rrset.RRCollection

/** Scores an allocation with an RR collection that is *independent* of every
  * algorithm under test (paper §5.1: "we measure the revenue ... using 10⁷
  * RR-sets, generated independently of the considered algorithms").
  */
final class Evaluator(coll: RRCollection, costs: Array[Array[Double]],
                      budgets: Array[Double]) {

  def h: Int = coll.h

  /** Measured total revenue π(S⃗). */
  def revenue(a: Alloc): Double = Alloc.piTotal(coll, a)

  /** Per-advertiser revenue. */
  def revenuePerAd(a: Alloc): Array[Double] =
    Array.tabulate(h)(i => coll.piOf(i, a(i)))

  /** Total seeding cost Σ_i c_i(S_i) (Fig 2's metric). */
  def seedCost(a: Alloc): Double = {
    var s = 0.0
    var i = 0
    while (i < h) { for (u <- a(i)) s += costs(i)(u); i += 1 }
    s
  }

  /** Budget-usage rate (π + cost)/ΣB (Fig 6 left). */
  def budgetUsage(a: Alloc): Double =
    (revenue(a) + seedCost(a)) / budgets.sum

  /** Rate of return π/(π + cost) (Fig 6 right). */
  def rateOfReturn(a: Alloc): Double = {
    val r = revenue(a)
    val t = r + seedCost(a)
    if (t <= 0) 0.0 else r / t
  }
}
