package repro.baselines

import repro.graph.{InfluenceModel, SocialGraph}
import repro.rrset.{RRSamplerState, RRSink, RRSource}

/** Single-advertiser view of a multi-advertiser influence model — the
  * TIM-based baselines keep one RR-set collection per advertiser.
  */
final class SingleAdModel(base: InfluenceModel, ad: Int) extends InfluenceModel {
  def h: Int = 1
  def graph: SocialGraph = base.graph
  def prob(i: Int): Array[Double] = base.prob(ad)
}

/** TIM (Tang et al. [67]) sample-size machinery, used by TI-CARM / TI-CSRM
  * exactly as Aslay et al. [5] used it: a KPT lower-bound estimation for
  * OPT_k followed by θ = (8+2ε)·n·(ℓ·ln n + ln C(n,k) + ln 2)/(ε²·KPT).
  */
object TIM {

  /** ln C(n, k) as Σ_{j=1..m} ln((n−m+j)/j), m = min(k, n−k). */
  def logNChooseK(n: Int, k: Int): Double = {
    val kk = math.min(k, n)
    val m = math.min(kk, n - kk)
    var s = 0.0
    var j = 1
    while (j <= m) { s += math.log((n - m + j).toDouble / j); j += 1 }
    s
  }

  /** TIM's KptEstimation (Algorithm 2 of [67]): returns a lower bound on
    * OPT_k = max spread of k seeds, estimated from RR-set widths. Also
    * returns the number of RR sets it generated (they count toward the
    * baseline's running time, as in [5]). The sets are never stored: each
    * sampling task returns their widths, summed here in set order.
    */
  def kptEstimate(source: RRSource, graph: SocialGraph, k: Int, ell: Double,
                  seed: Long, subsim: Boolean): (Double, Long) = {
    val n = graph.n
    val m = graph.m
    val log2n = math.max(1.0, math.log(n.toDouble) / math.log(2.0))
    var generated = 0L
    var i = 1
    while (i < log2n.toInt) {
      val ci = math.max(1L, ((6 * ell * math.log(n.toDouble) + 6 * math.log(log2n)) * (1L << i)).toLong)
      val num = math.min(ci, 1_000_000L).toInt
      val widths = source.sample(Seq((num, seed + i)), subsim)((st, count) => new Widths(st, count))
      generated += num
      var sumKappa = 0.0
      for (ws <- widths) {
        var s = 0
        while (s < ws.length) { sumKappa += 1 - math.pow(1 - ws(s).toDouble / m, k); s += 1 }
      }
      if (sumKappa / num > 1.0 / (1L << i)) {
        return (n * sumKappa / (2 * num), generated)
      }
      i += 1
    }
    (1.0, generated)
  }

  /** Each set's width: the summed in-degree of its members (at most m, as
    * members are distinct), in set order.
    */
  private final class Widths(st: RRSamplerState, count: Int) extends RRSink[Array[Int]] {
    private val widths = new Array[Int](count)
    private var k = 0

    def add(tag: Int, members: Array[Int], size: Int): Unit = {
      var w = 0
      var p = 0
      while (p < size) { val v = members(p); w += st.revHead(v + 1) - st.revHead(v); p += 1 }
      widths(k) = w
      k += 1
    }

    def result(): Array[Int] = widths
  }

  /** TIM's RR-sample size for an ε-approximate size-k selection. */
  def theta(n: Int, k: Int, kpt: Double, eps: Double, ell: Double): Long = {
    val lam = (8 + 2 * eps) * n *
      (ell * math.log(n.toDouble) + logNChooseK(n, k) + math.log(2.0))
    math.max(256L, (lam / (eps * eps * math.max(1.0, kpt))).toLong)
  }
}
