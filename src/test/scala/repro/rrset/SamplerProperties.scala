package repro.rrset

import java.util.SplittableRandom
import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.graph.{ExplicitModel, SocialGraph}

/** Per-edge inclusion frequency of both samplers. On a star whose leaves
  * point into the root, an RR set rooted at the root contains leaf j exactly
  * when edge j is live, so leaf j's frequency over T sets must match p_j.
  * Probabilities mix tiny values (down to 1e-12, where the geometric skip
  * exceeds `Int.MaxValue`) with moderate ones. A separate edge 0 → 1 comes
  * first in the reverse CSR, so the root's in-edges start at position 1 and a
  * wrapped skip would show.
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
}
