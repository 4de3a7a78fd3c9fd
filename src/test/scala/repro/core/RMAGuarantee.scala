package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.SparkSpec

/** RMA's bicriteria guarantee (Thm 4.2) on random tiny instances, with both
  * samplers: with probability at least 1−δ it returns S⃗ with
  * π(S⃗) ≥ (λ−ε)·OPT, OPT the brute-force optimum under B, and every
  * advertiser's spend c_i(S_i) + π_i(S_i) ≤ (1+ϱ)B_i, both measured by the
  * exact oracle. δ = 1e-3, so a failing case is a finding, not noise.
  */
object RMAGuarantee extends Properties("RMA") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(16).withInitialSeed(20210623L)

  private lazy val spark = SparkSpec.shared

  // (h+1)^n allocations for BruteForce, each scored over 2^8 worlds: n ≤ 7 at h = 3.
  private val genCase = for {
    h <- Gen.chooseNum(1, 3)
    n <- Gen.chooseNum(3, if (h == 3) 7 else 8)
    instSeed <- Gen.chooseNum(1L, 100000L)
    rmaSeed <- Gen.chooseNum(0L, 100000L)
  } yield (TestInstances.randomProbabilisticInstance(instSeed, n, h), rmaSeed)

  property("π ≥ (λ−ε)·OPT and spend ≤ (1+ϱ)B, naive and SUBSIM") = Prop.forAll(genCase) { case (prob, rmaSeed) =>
    val exact = prob.oracle.asInstanceOf[ExactOracle]
    val cpe = Array.tabulate(prob.h)(exact.cpe)
    val (opt, _) = BruteForce.optimal(prob)
    Prop.all(Seq(false, true).map { subsim =>
      val cfg = RMA.Config(eps = 0.05, delta = 1e-3, tau = 0.1, rho = 0.2, subsim = subsim, seed = rmaSeed)
      val r = RMA.run(spark, exact.model, cpe, prob.budgets, prob.costs, cfg)
      val pi = Alloc.piTotal(exact, r.alloc)
      val where = s"subsim=$subsim π=$pi OPT=$opt λ=${r.lambda} rounds=${r.iterations}"
      Prop.collect(r.iterations) {
        (pi >= (r.lambda - cfg.eps) * opt - 1e-9) :| where &&
          (0 until prob.h).forall(i => TestInstances.payment(prob, i, r.alloc(i)) <= (1 + cfg.rho) * prob.budgets(i) + 1e-9) :| where
      }
    }: _*)
  }
}
