package repro.perfbench

import repro.eval.Experiments
import repro.graph.{GraphGen, InfluenceModel, InfluenceModels, SocialGraph, WeightedCascade}

/** One benchmark workload. All use h = 10 advertisers, the linear cost model
  * and the paper's §5.1 parameters; the dataset specs are the fixed ones
  * whose Table 1 counts the tests assert. The workload seed only drives the
  * algorithm seeds.
  *
  * @param model           the influence model `Experiments.env` builds for the
  *                        dataset; the traced run times its constructor
  * @param budgetOverride  uniform budgets in place of the dataset's Table 2 ones
  * @param ticarm          solve with TI-CARM instead of RMA
  */
final case class Workload(
    name: String,
    spec: GraphGen.DatasetSpec,
    model: SocialGraph => InfluenceModel,
    budgetOverride: Option[Array[Double]],
    alpha: Double,
    subsim: Boolean,
    ticarm: Boolean,
)

object Workloads {

  /** TI-CARM's per-advertiser collection cap on `lastfm-ticarm`. The
    * library default (3M) makes one solve take about 30 s on 4 cores, and
    * every run needs a cold and two warm solves; 300K keeps the same 20
    * regenerations and ~135 Spark jobs per solve at a tenth of the sets.
    */
  val TiMaxSetsPerAd = 300_000

  val all: Seq[Workload] = Seq(
    // The headline (Table 3): heterogeneous TIC probabilities, large RR sets,
    // the largest share of time in repro.core.
    Workload("flixster-rma", GraphGen.Flixster, InfluenceModels.flixsterTic(_, Experiments.H),
      None, alpha = 0.1, subsim = false, ticarm = false),
    // §5.2.3 / App. D.2: Weighted Cascade, small RR sets but millions of
    // them, dominated by the geometric-jump sampler and result transfer.
    Workload("dblp-wc-subsim", GraphGen.Dblp, new WeightedCascade(_, Experiments.H),
      Some(Array.fill(Experiments.H)(315.0)), alpha = 0.2, subsim = true, ticarm = false),
    // TI-CARM: many small Spark jobs, regenerations and driver-side rebuilds;
    // never calls Search. Not in BENCHMARK.json: its warm solves keep getting
    // faster up to the 7th call in a JVM (8.7 s cold, 6.4 s, ..., 5.0 s), so
    // the median of the two warm calls a run can afford spread 18% over ten
    // seeds. `--record` still runs it for the baseline table.
    Workload("lastfm-ticarm", GraphGen.Lastfm, InfluenceModels.lastfmTic(_, Experiments.H),
      None, alpha = 0.1, subsim = false, ticarm = true),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
