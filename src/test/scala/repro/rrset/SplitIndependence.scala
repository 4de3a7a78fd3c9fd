package repro.rrset

import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.SparkSpec
import repro.graph.WeightedCascade

/** Set k of a batch `(num, seed)` depends only on `(seed, k)`: generating
  * the batch as two index ranges gives the sets of one range, and
  * `RRSource.collection`, which cuts the batch into one range per core,
  * stores exactly those sets. So results depend on the seed, never on the
  * core count.
  */
object SplitIndependence extends Properties("RRSamplerState") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(24).withInitialSeed(20210622L)

  private lazy val spark = SparkSpec.shared

  /** Every set of a range, as (tag, members in BFS order). */
  private final class Collect extends RRSink[Vector[(Int, Seq[Int])]] {
    private val sets = Vector.newBuilder[(Int, Seq[Int])]
    def add(tag: Int, members: Array[Int], size: Int): Unit = sets += ((tag, members.take(size).toSeq))
    def result(): Vector[(Int, Seq[Int])] = sets.result()
  }

  private val genCase = for {
    h <- Gen.chooseNum(1, 3)
    wc <- Gen.oneOf(false, true)
    subsim <- Gen.oneOf(false, true)
    graphSeed <- Gen.chooseNum(1L, 1000L)
    seed <- Gen.chooseNum(Long.MinValue, Long.MaxValue)
    num <- Gen.chooseNum(1, 3000)
    a <- Gen.chooseNum(0, num)
  } yield (h, wc, subsim, graphSeed, seed, num, a)

  property("two ranges concatenate to one; collection stores the one range's sets") =
    Prop.forAll(genCase) { case (h, wc, subsim, graphSeed, seed, num, a) =>
      val g = CoverageEquivalence.graph(graphSeed)
      val model = if (wc) new WeightedCascade(g, h) else CoverageEquivalence.explicit(g, h, graphSeed + 1)
      val cpe = Array.tabulate(h)(i => 1.0 + 0.5 * i)
      val st = RRSamplerState(model, cpe)
      def range(first: Int, count: Int) = {
        val sink = new Collect
        st.sample(first, count, seed, subsim, sink)
        sink.result()
      }
      val whole = range(0, num)
      val stored = new RRSource(spark, model, cpe).collection(num, seed, subsim)
      whole.length == num &&
        range(0, a) ++ range(a, num - a) == whole &&
        (0 until num).map(s => (stored.tagOf(s), stored.setMembers(s).toSeq)) == whole
    }
}
