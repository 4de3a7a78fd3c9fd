package repro.graph

/** Fixed explicit probabilities: `probs(i)(e)` per advertiser/edge. */
final class ExplicitModel(val graph: SocialGraph, val probs: Array[Array[Double]])
    extends InfluenceModel {
  require(probs.nonEmpty && probs.forall(_.length == graph.m))
  def h: Int = probs.length
  def prob(i: Int): Array[Double] = probs(i)
}
