package repro.rrset

import java.util.SplittableRandom
import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.graph.{ExplicitModel, SocialGraph}

/** Per-edge inclusion frequency of both samplers, and the joint law of
  * SUBSIM's subset step. On a star whose leaves point into the root, an RR
  * set rooted at the root contains leaf j exactly when edge j is live, so
  * leaf j's frequency over T sets must match p_j, the number of leaves in a
  * set must follow the Poisson-binomial law of the p_j, and two leaves must
  * be in a set together with frequency p_i·p_j. Probabilities mix tiny values
  * (down to 1e-12, where K = 0 is all but certain) with moderate ones. A
  * separate edge 0 → 1 comes first in the reverse CSR, so the root's
  * in-edges start at position 1 and a position or CDF offset off by one
  * would show.
  */
object SamplerProperties extends Properties("RRSamplerState") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(30).withInitialSeed(20210620L)

  private val T = 20000

  private val tiny = Gen.oneOf(1e-12, 1e-10, 1e-9, 1e-7)
  private val genProbs: Gen[List[Double]] = Gen.chooseNum(1, 8).flatMap { k =>
    Gen.oneOf(
      Gen.listOfN(k, tiny),
      Gen.listOfN(k, Gen.frequency(1 -> tiny, 2 -> Gen.chooseNum(0.005, 0.95))))
  }

  /** How many of `T` RR sets rooted at node 2 contain each leaf 3, 4, …. */
  private def leafCounts(probs: List[Double], subsim: Boolean, seed: Long): Array[Int] = {
    val k = probs.length
    val g = SocialGraph.fromPairs(k + 3, (0, 1) +: (3 until k + 3).map(j => (j, 2)))
    val st = RRSamplerState(new ExplicitModel(g, Array((0.5 +: probs).toArray)), Array(1.0))
    val rng = new SplittableRandom(seed)
    val queue = new Array[Int](g.n)
    val stamp = new Array[Int](g.n)
    val counts = new Array[Int](g.n)
    for (t <- 1 to T) {
      val sz = st.generate(0, 2, rng, queue, stamp, t, subsim)
      for (q <- 1 until sz) counts(queue(q)) += 1
    }
    counts.drop(3)
  }

  property("each edge is included with frequency p (naive and SUBSIM)") =
    Prop.forAll(genProbs, Gen.chooseNum(1L, 1000000L)) { (probs, seed) =>
      Seq(false, true).forall { subsim =>
        leafCounts(probs, subsim, seed).zip(probs).forall { case (cnt, p) =>
          math.abs(cnt - T * p) <= 5 * math.sqrt(T * p * (1 - p)) + 3
        }
      }
    }

  /** Stars of d leaves for the SUBSIM subset step: all leaves at one
    * probability (Weighted Cascade-like, where no thinning draw is made) or
    * at mixed ones (down to 1e-12), all below 0.99 so every set uses the step.
    */
  private val genStar: Gen[List[Double]] = Gen.chooseNum(2, 10).flatMap { d =>
    Gen.oneOf(
      Gen.oneOf(Gen.const(1.0 / d), Gen.chooseNum(0.01, 0.9)).map(List.fill(d)(_)),
      Gen.listOfN(d, Gen.frequency(1 -> tiny, 3 -> Gen.chooseNum(0.005, 0.95))))
  }

  /** P(L = k) for L the number of successes of independent Bernoulli(p_j). */
  private def poissonBinomial(probs: List[Double]): Array[Double] =
    probs.foldLeft(Array(1.0)) { (f, p) =>
      Array.tabulate(f.length + 1)(k => (if (k < f.length) f(k) * (1 - p) else 0.0) + (if (k > 0) f(k - 1) * p else 0.0))
    }

  property("SUBSIM live leaves per set are Poisson-binomial(p), pairs co-included at p_i·p_j") =
    Prop.forAll(genStar, Gen.chooseNum(1L, 1000000L)) { (probs, seed) =>
      val d = probs.length
      val g = SocialGraph.fromPairs(d + 3, (0, 1) +: (3 until d + 3).map(j => (j, 2)))
      val st = RRSamplerState(new ExplicitModel(g, Array((0.5 +: probs).toArray)), Array(1.0))
      val rng = new SplittableRandom(seed)
      val (queue, stamp, picks) = (new Array[Int](g.n), new Array[Int](g.n), st.newPicks())
      val live = new Array[Int](d + 1)
      val pairs = Array.ofDim[Int](d, d)
      for (t <- 1 to T) {
        val sz = st.generate(0, 2, rng, queue, stamp, t, subsim = true, picks = picks)
        live(sz - 1) += 1
        for (a <- 1 until sz; b <- 1 until sz if queue(a) < queue(b)) pairs(queue(a) - 3)(queue(b) - 3) += 1
      }
      // Chi-square over the live counts, pooling bins expected below 5.
      val expected = poissonBinomial(probs).map(_ * T)
      val (big, small) = (0 to d).partition(expected(_) >= 5)
      val cells = big.map(k => (live(k).toDouble, expected(k))) :+
        ((small.map(live(_)).sum.toDouble, small.map(expected(_)).sum))
      val chi2 = cells.collect { case (o, e) if e > 0 => (o - e) * (o - e) / e }.sum
      val df = math.max(1, cells.count(_._2 > 0) - 1)
      val pooledOk = cells.forall { case (o, e) => e > 0 || o == 0 }
      val pairsOk = (for (a <- 0 until d; b <- a + 1 until d) yield {
        val q = probs(a) * probs(b)
        math.abs(pairs(a)(b) - T * q) <= 5 * math.sqrt(T * q * (1 - q)) + 3
      }).forall(identity)
      (chi2 <= df + 8 * math.sqrt(2.0 * df) + 8) && pooledOk && pairsOk
    }
}
