package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.TICARM
import repro.core.{Alloc, CostModel, RMA}
import repro.core.Alloc.Alloc
import repro.graph.GraphGen

/** Reproduction harnesses for the paper's tables. Each `tableN` function
  * runs the experiment and returns the formatted rows (paper numbers are
  * recorded alongside in EXPERIMENTS.md).
  *
  * Fair-comparison budget rule of §5.1: the Table 2 budgets are the inputs of
  * TI-CARM/TI-CSRM; RMA runs with budgets divided by (1+ϱ) so its bicriteria
  * overshoot can never exceed the baselines' budget.
  */
object Tables {

  val Rho = 0.1
  val TauDefault = 0.1
  val EpsRma = 0.02
  val EpsTi = 0.1

  final case class RunStats(alloc: Alloc, millis: Long, revenue: Double, seedCost: Double, seeds: Int)

  /** Cache of algorithm runs keyed by (dataset, algo, costModel, α, τ, subsim)
    * — Table 5 reuses Table 3's baseline runs (they do not depend on τ), as
    * the paper's Table 5 shows constant baseline rows.
    */
  private val runCache = scala.collection.concurrent.TrieMap.empty[String, RunStats]

  def runAlgo(spark: SparkSession, env: Experiments.Env, algo: String,
              cm: CostModel, alpha: Double, tau: Double, subsim: Boolean): RunStats = {
    val tauKey = if (algo == "RMA") tau.toString else "-"
    val key = s"${env.name}|$algo|${cm.name}|$alpha|$tauKey|$subsim"
    runCache.getOrElseUpdate(key, {
      val costs = env.costs(cm, alpha)
      val evaluator = new Evaluator(env.evalColl, costs, env.budgets)
      val rmaBudgets = env.budgets.map(_ / (1 + Rho))
      val (alloc, ms) = algo match {
        case "RMA" =>
          val r = RMA.run(spark, env.model, env.cpe, rmaBudgets, costs,
            RMA.Config(eps = EpsRma, delta = 1.0 / env.n, tau = tau, rho = Rho,
              subsim = subsim, seed = 42L))
          (r.alloc, r.millis)
        case "TI-CARM" =>
          val r = TICARM.tiCarm(spark, env.model, env.cpe, env.budgets, costs,
            TICARM.Config(eps = EpsTi, seed = 7L, subsim = subsim))
          (r.alloc, r.millis)
        case "TI-CSRM" =>
          val r = TICARM.tiCsrm(spark, env.model, env.cpe, env.budgets, costs,
            TICARM.Config(eps = EpsTi, seed = 7L, subsim = subsim))
          (r.alloc, r.millis)
      }
      RunStats(alloc, ms, evaluator.revenue(alloc), evaluator.seedCost(alloc), Alloc.seedCount(alloc))
    })
  }

  val Algos = Seq("RMA", "TI-CARM", "TI-CSRM")
  val Alphas = Seq(0.1, 0.2, 0.3, 0.4, 0.5)
  val Taus = Seq(0.05, 0.10, 0.15, 0.25, 0.35, 0.45)

  private def fmtRow(cells: Seq[String]): String =
    cells.map(c => f"$c%12s").mkString(" | ")

  /** One row per algorithm, each of its runs formatted by `cell`. */
  private def algoRows(runs: Seq[(String, Seq[RunStats])])(cell: RunStats => String): String =
    runs.map { case (algo, rs) => fmtRow(algo +: rs.map(cell)) + "\n" }.mkString

  private def seconds(r: RunStats): String = f"${r.millis / 1000.0}%.1f"

  /** Table 1 — dataset statistics, ours vs paper. */
  def table1(spark: SparkSession): String = {
    val sb = new StringBuilder
    sb ++= "Table 1: Datasets (ours vs paper)\n"
    sb ++= fmtRow(Seq("dataset", "|V|", "|E|", "type", "paper|V|", "paper|E|")) + "\n"
    for (spec <- GraphGen.AllDatasets) {
      val g = GraphGen.graph(spark, spec)
      sb ++= fmtRow(Seq(spec.name, g.n.toString, g.m.toString, spec.paperType,
        spec.paperNodes, spec.paperEdges)) + "\n"
    }
    sb.result()
  }

  /** Table 2 — advertiser budgets and CPE values actually used. */
  def table2(): String = {
    def stats(a: Array[Double]) = f"mean=${a.sum / a.length}%.1f max=${a.max}%.0f min=${a.min}%.0f"
    s"""Table 2: Advertiser budgets and CPE values (TI-CARM/TI-CSRM inputs; RMA uses budget/(1+ϱ))
       |  lastfm-lite   budgets: ${stats(Experiments.lastfmBudgets)}   (paper: mean=320 max=1200 min=100)
       |  flixster-lite budgets: ${stats(Experiments.flixsterBudgets)} (paper/10: mean=1010 max=2000 min=600)
       |  CPEs (both):           ${stats(Experiments.cpes)}   (paper: mean=1.5 max=2 min=1)
       |""".stripMargin
  }

  /** Tables 3 (subsim=false) and 6 (subsim=true) — running time (seconds)
    * under the linear cost model, α ∈ {0.1..0.5}; revenue/seed cost printed
    * too (Fig 1/2 shape).
    */
  def runningTimeTable(spark: SparkSession, subsim: Boolean): String = {
    val label = if (subsim) "Table 6 (with SUBSIM)" else "Table 3"
    val sb = new StringBuilder
    sb ++= s"$label: Running time (seconds), linear cost model\n"
    for (spec <- Seq(GraphGen.Flixster, GraphGen.Lastfm)) {
      val env = Experiments.env(spark, spec)
      sb ++= s"-- ${env.name}\n"
      val runs = Algos.map(algo => algo -> Alphas.map(a =>
        runAlgo(spark, env, algo, CostModel.Linear, a, TauDefault, subsim)))
      sb ++= fmtRow(Seq("algorithm") ++ Alphas.map(a => s"a=$a")) + "\n"
      sb ++= algoRows(runs)(seconds)
      sb ++= fmtRow(Seq("[revenue]") ++ Seq.fill(Alphas.size)("")) + "\n"
      sb ++= algoRows(runs)(r => f"${r.revenue}%.0f")
      sb ++= fmtRow(Seq("[seedcost]") ++ Seq.fill(Alphas.size)("")) + "\n"
      sb ++= algoRows(runs)(r => f"${r.seedCost}%.0f")
    }
    sb.result()
  }

  /** Table 5 — running time as τ varies (linear cost, α = 0.1). Baselines do
    * not depend on τ and repeat their α=0.1 numbers, as in the paper.
    */
  def table5(spark: SparkSession): String = {
    val sb = new StringBuilder
    sb ++= "Table 5: Running time (seconds) when tau changes (linear, a=0.1)\n"
    for (spec <- Seq(GraphGen.Lastfm, GraphGen.Flixster)) {
      val env = Experiments.env(spark, spec)
      sb ++= s"-- ${env.name}\n"
      def at(algo: String, tau: Double) =
        runAlgo(spark, env, algo, CostModel.Linear, 0.1, tau, subsim = false)
      val rma = Taus.map(at("RMA", _))
      val runs = Algos.map { algo =>
        if (algo == "RMA") algo -> rma
        else { val r = at(algo, TauDefault); algo -> Taus.map(_ => r) }
      }
      sb ++= fmtRow(Seq("algorithm") ++ Taus.map(t => s"t=$t")) + "\n"
      sb ++= algoRows(runs)(seconds)
      sb ++= "   [RMA revenue across tau] " + rma.map(r => f"${r.revenue}%.0f").mkString(" ") + "\n"
    }
    sb.result()
  }
}
