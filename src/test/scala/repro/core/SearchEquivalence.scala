package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}

/** `Search.run` and `Search.rmWithOracle` give exactly the outputs of the
  * one-call-at-a-time [[SequentialSearch]]: the same `best` allocation and
  * the same `SearchInfo`, doubles compared with `==`, on RR-backed and exact
  * oracles with h ∈ {2, 3, 5} and budgets from tight to loose.
  */
object SearchEquivalence extends Properties("Search") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(60).withInitialSeed(20210621L)

  private val genCase = for {
    kind <- Gen.chooseNum(0, 2)
    seed <- Gen.chooseNum(1L, 100000L)
    h <- Gen.oneOf(2, 3, 5)
    scale <- Gen.oneOf(0.25, 0.5, 1.0, 2.0, 4.0)
    tau <- Gen.oneOf(0.05, 0.1, 0.5)
    bMin <- Gen.oneOf(1, 2)
  } yield (TestInstances.searchInstance(kind, seed, h, scale), tau, bMin)

  property("Search.run equals the sequential loop") = Prop.forAll(genCase) { case (prob, tau, bMin) =>
    val got = Search.run(prob, tau, bMin)
    val want = SequentialSearch.run(prob, tau, bMin)
    Prop.classify(want.info.b1 >= 2 || want.info.b2 >= 2, "b ≥ 2 seen") {
      Prop.classify(want.info.t2.exists(_ => want.info.b2 == 0), "b = 0 seen") {
        got.best == want.best && got.info == want.info
      }
    }
  }

  property("rmWithOracle equals the sequential loop") = Prop.forAll(genCase) { case (prob, tau, _) =>
    Search.rmWithOracle(prob, tau) == SequentialSearch.rmWithOracle(prob, tau)
  }
}
