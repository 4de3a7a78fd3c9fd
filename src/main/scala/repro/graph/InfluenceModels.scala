package repro.graph

import java.util.SplittableRandom

/** Per-advertiser edge-probability model over a [[SocialGraph]].
  *
  * `prob(i)` returns the activation probability of every edge for
  * advertiser `i`, indexed by *edge id* (the order of `graph.src`/`graph.dst`).
  */
trait InfluenceModel extends Serializable {
  def h: Int
  def graph: SocialGraph
  def prob(i: Int): Array[Double]
}

/** Topic-aware Independent Cascade model (Barbieri et al. [9], as used by the
  * paper): `L` latent topics, per-topic edge probabilities `p̂^z_(u,v)` and a
  * per-advertiser topic mixture `φ_i`, giving
  * `p^i_(u,v) = Σ_z φ_i(z)·p̂^z_(u,v)`.
  *
  * The paper learns `p̂` and `φ` from Flixster/LastFM action logs; offline we
  * synthesise them (see DESIGN.md §3): each (edge, topic) probability is zero
  * with probability `sparsity`, else drawn from `pMin + u²·(pMax-pMin)`
  * (right-skewed, like learned IC probabilities); mixtures are pseudo-Dirichlet
  * with `mixConcentration` controlling how many topics an ad touches. All
  * draws come from `seed` so the model is deterministic.
  */
final class TICModel(
    val graph: SocialGraph,
    val h: Int,
    val L: Int,
    val sparsity: Double,
    val pMin: Double,
    val pMax: Double,
    val topicsPerAd: Int,
    val seed: Long,
) extends InfluenceModel {

  /** `φ_i(z)` — rows sum to 1; each ad touches exactly `topicsPerAd` topics
    * (zeros elsewhere), which is what bounds the per-ad positive-probability
    * fraction at `1 - sparsity^topicsPerAd`.
    */
  val mixtures: Array[Array[Double]] = {
    val rng = new SplittableRandom(seed)
    Array.tabulate(h) { _ =>
      val raw = Array.fill(L)(rng.nextDouble())
      val keep = raw.zipWithIndex.sortBy(-_._1).take(topicsPerAd).map(_._2).toSet
      val masked = raw.zipWithIndex.map { case (w, z) => if (keep(z)) w else 0.0 }
      val s = masked.sum
      masked.map(_ / s)
    }
  }

  /** `p̂^z(e)` for topic z, edge id e. */
  val topicProb: Array[Array[Double]] = {
    val rng = new SplittableRandom(seed + 1)
    Array.tabulate(L) { _ =>
      Array.tabulate(graph.m) { _ =>
        if (rng.nextDouble() < sparsity) 0.0
        else {
          val u = rng.nextDouble()
          pMin + u * u * (pMax - pMin)
        }
      }
    }
  }

  private val perAd: Array[Array[Double]] = Array.tabulate(h) { i =>
    val out = new Array[Double](graph.m)
    val mix = mixtures(i)
    var z = 0
    while (z < L) {
      val tz = topicProb(z); val w = mix(z)
      var e = 0
      while (e < graph.m) { out(e) += w * tz(e); e += 1 }
      z += 1
    }
    out
  }

  def prob(i: Int): Array[Double] = perAd(i)

  /** Fraction of (edge, advertiser) probabilities that are strictly positive —
    * the paper reports >95% for Flixster and ~77% for LastFM.
    */
  def positiveFraction: Double = {
    var pos = 0L
    var i = 0
    while (i < h) {
      val p = perAd(i); var e = 0
      while (e < graph.m) { if (p(e) > 0) pos += 1; e += 1 }
      i += 1
    }
    pos.toDouble / (h.toLong * graph.m)
  }
}

/** Weighted-Cascade model: `p^i_(u,v) = 1/indeg(v)` for every advertiser —
  * the paper's setting for the DBLP / LiveJournal scalability experiments
  * (no action logs to learn TIC probabilities from).
  */
final class WeightedCascade(val graph: SocialGraph, val h: Int) extends InfluenceModel {
  private val p: Array[Double] = {
    val out = new Array[Double](graph.m)
    var e = 0
    while (e < graph.m) { out(e) = 1.0 / graph.inDegree(graph.dst(e)); e += 1 }
    out
  }
  def prob(i: Int): Array[Double] = p
}

object InfluenceModels {
  /** The TIC configuration used for lastfm-lite: 2 topics/ad, per-topic
    * sparsity 0.48 => ~1-0.48² ≈ 77% positive per-ad probabilities (paper §5.1).
    */
  def lastfmTic(g: SocialGraph, h: Int): TICModel =
    new TICModel(g, h, L = 10, sparsity = 0.48, pMin = 0.01, pMax = 0.35,
      topicsPerAd = 2, seed = 101L)

  /** The TIC configuration used for flixster-lite: 4 topics/ad, sparsity 0.25
    * => ~1-0.25⁴ ≈ 99.6% ≥ 95% positive (paper §5.1).
    */
  def flixsterTic(g: SocialGraph, h: Int): TICModel =
    new TICModel(g, h, L = 10, sparsity = 0.25, pMin = 0.01, pMax = 0.25,
      topicsPerAd = 4, seed = 102L)
}
