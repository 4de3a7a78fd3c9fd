package repro.rrset

import java.util.SplittableRandom
import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.SparkSpec
import repro.graph.{ExplicitModel, InfluenceModel, SocialGraph, WeightedCascade}

/** `RRSource.coverage` scores an allocation on sets it never stores. Over
  * the batches of RMA's R₂ seed scheme (θ₀ sets seeded `2s+2`, then doubling
  * batches seeded `1000s+2k+2`), each advertiser's covered count times
  * `nΓ/|R|` must equal, as a double, `piOf(i, S_i)` on a collection built
  * from the same batches by `collection` and `appendTo`. Each scored set
  * ends at its first seed in BFS order, so the members `coverage` generates
  * are, per stored set, the prefix up to its first seed or the whole set:
  * the stored incidence count for an empty allocation, one per set when
  * every node is a seed.
  */
object CoverageEquivalence extends Properties("RRSource") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(24).withInitialSeed(20210621L)

  private lazy val spark = SparkSpec.shared

  private[rrset] def graph(seed: Long): SocialGraph = {
    val rng = new SplittableRandom(seed)
    SocialGraph.fromPairs(40,
      Seq.fill(180)((rng.nextInt(40), rng.nextInt(40))).filter { case (a, b) => a != b }.distinct)
  }

  /** Explicit per-advertiser probabilities mixing zero, tiny, moderate and near-1 values. */
  private[rrset] def explicit(g: SocialGraph, h: Int, seed: Long): InfluenceModel = {
    val rng = new SplittableRandom(seed)
    new ExplicitModel(g, Array.fill(h)(Array.fill(g.m) {
      val x = rng.nextDouble()
      if (x < 0.1) 0.0 else if (x < 0.2) 1e-6 else if (x < 0.3) 0.995 else 0.6 * rng.nextDouble()
    }))
  }

  private val genCase = for {
    h <- Gen.chooseNum(1, 3)
    wc <- Gen.oneOf(false, true)
    subsim <- Gen.oneOf(false, true)
    graphSeed <- Gen.chooseNum(1L, 1000L)
    rmaSeed <- Gen.chooseNum(0L, 100000L)
    th0 <- Gen.chooseNum(1, 1500)
    rounds <- Gen.chooseNum(1, 3)
    // node u goes to advertiser owner(u), or to none when owner(u) ≥ h
    owner <- Gen.listOfN(40, Gen.chooseNum(0, 2 * h))
  } yield (h, wc, subsim, graphSeed, rmaSeed, th0, rounds, owner)

  property("coverage times nΓ/|R| equals piOf on the stored collection") =
    Prop.forAll(genCase) { case (h, wc, subsim, graphSeed, rmaSeed, th0, rounds, owner) =>
      val g = graph(graphSeed)
      val model = if (wc) new WeightedCascade(g, h) else explicit(g, h, graphSeed + 1)
      val cpe = Array.tabulate(h)(i => 1.0 + 0.5 * i)
      val source = new RRSource(spark, model, cpe)
      val batches = (th0, rmaSeed * 2 + 2) +:
        (1 until rounds).map(k => (th0 << (k - 1), rmaSeed * 1000 + k * 2 + 2))
      val stored = source.collection(batches.head._1, batches.head._2, subsim)
      batches.tail.foreach { case (num, seed) => source.appendTo(stored, num, seed, subsim) }
      val alloc = Vector.tabulate(h)(i => owner.indices.filter(owner(_) == i).toVector)
      val cov = source.coverage(alloc, batches, subsim)
      val sets = batches.map(_._1).sum
      val scale = g.n.toDouble * cpe.sum / sets
      val prefixes = (0 until sets).map { s =>
        val ms = stored.setMembers(s)
        ms.indexWhere(owner(_) == stored.tagOf(s)) + 1 match { case 0 => ms.length; case j => j }
      }.sum
      val none = source.coverage(Vector.fill(h)(Vector.empty[Int]), batches, subsim)
      val all = source.coverage(Vector.fill(h)(0 until g.n), batches, subsim)
      stored.numSets == sets &&
        (0 until h).forall(i => cov.covered(i) * scale == stored.piOf(i, alloc(i))) &&
        cov.members == prefixes && cov.members <= stored.totalNodes &&
        none.members == stored.totalNodes && none.covered.forall(_ == 0) &&
        all.members == sets && all.covered.sum == sets
    }
}
