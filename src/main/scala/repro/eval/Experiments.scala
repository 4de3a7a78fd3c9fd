package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.CostModel
import repro.graph.{GraphGen, InfluenceModel, InfluenceModels, SocialGraph, WeightedCascade}
import repro.rrset.{RRCollection, RRSource}

/** Experiment configuration mirroring §5.1 of the paper.
  *
  * Advertiser budgets and CPE values reproduce Table 2's mean/max/min exactly
  * for lastfm-lite (same node count as the original LastFM) and at 1/10 scale
  * for flixster-lite (whose graph is 10x smaller than Flixster) — see
  * DESIGN.md §3.
  */
object Experiments {

  /** h = 10 advertisers throughout (paper default). */
  val H = 10

  /** lastfm-lite budgets: mean 320, max 1200, min 100 (Table 2). */
  val lastfmBudgets: Array[Double] =
    Array(100, 120, 150, 160, 200, 220, 250, 300, 500, 1200).map(_.toDouble)

  /** flixster-lite budgets: Table 2 / 10 — mean 1.01K, max 2K, min 600. */
  val flixsterBudgets: Array[Double] =
    Array(600, 700, 800, 850, 900, 950, 1000, 1100, 1200, 2000).map(_.toDouble)

  /** CPEs: mean 1.5, max 2, min 1 (Table 2, both datasets). */
  val cpes: Array[Double] =
    Array(1.0, 1.1, 1.2, 1.35, 1.5, 1.5, 1.65, 1.8, 1.9, 2.0)

  /** A fully materialised experiment environment for one dataset:
    * graph, influence model, advertiser setup, a calibration singleton-spread
    * table (shared by every algorithm's cost model) and an *independent*
    * evaluation RR collection for measuring achieved revenue.
    */
  final case class Env(
      name: String,
      graph: SocialGraph,
      model: InfluenceModel,
      cpe: Array[Double],
      budgets: Array[Double],
      sigmaSingle: Array[Array[Double]], // h × n
      evalColl: RRCollection,
  ) {
    def n: Int = graph.n

    /** Cost table for a given incentive model and α. */
    def costs(cm: CostModel, alpha: Double): Array[Array[Double]] =
      CostModel.table(cm, alpha, sigmaSingle)
  }

  /** Number of RR sets used to measure revenue (paper: 10⁷; scaled to our
    * graph sizes — sampling error ≪ the effects measured).
    */
  def evalSets(n: Int): Int = math.min(2_000_000, math.max(200_000, n * 200))

  /** Calibration sets for the σ_i({u}) cost table. */
  def calibSets(n: Int): Int = math.min(1_000_000, math.max(200_000, n * 150))

  private val cache = scala.collection.concurrent.TrieMap.empty[String, Env]

  /** Build (and cache) the environment for a dataset spec. TIC model for
    * lastfm/flixster (the paper learns probabilities from their action logs),
    * Weighted-Cascade for dblp/livejournal (as in §5.2.3). Only lastfm and
    * flixster have Table 2 budgets; any other dataset needs `budgetOverride`,
    * and fails before its graph is built without one.
    */
  def env(spark: SparkSession, spec: GraphGen.DatasetSpec,
          budgetOverride: Option[Array[Double]] = None): Env =
    cache.getOrElseUpdate(spec.name + budgetOverride.map(_.mkString(",")).getOrElse(""), {
      val budgets = budgetOverride.getOrElse(spec.name match {
        case "lastfm-lite"   => lastfmBudgets
        case "flixster-lite" => flixsterBudgets
        case other => throw new IllegalArgumentException(
          s"$other has no Table 2 budgets: pass budgetOverride to Experiments.env")
      })
      val g = GraphGen.graph(spark, spec)
      val model: InfluenceModel = spec.name match {
        case "lastfm-lite"   => InfluenceModels.lastfmTic(g, H)
        case "flixster-lite" => InfluenceModels.flixsterTic(g, H)
        case _               => new WeightedCascade(g, H)
      }
      val source = new RRSource(spark, model, cpes)
      val calib = source.collection(calibSets(g.n), seed = 90001L)
      val sigma = Array.tabulate(H)(i => Array.tabulate(g.n)(u => calib.sigmaSingleton(u, i)))
      val evalColl = source.collection(evalSets(g.n), seed = 99001L)
      Env(spec.name, g, model, cpes, budgets, sigma, evalColl)
    })
}
