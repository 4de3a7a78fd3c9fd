package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession
import repro.baselines.{SingleAdModel, TICARM, TIM}
import repro.core.{Alloc, CostModel, RMA, RMProblem, Search, ThresholdGreedy}
import repro.core.Alloc.Alloc
import repro.eval.{Evaluator, Experiments, Tables}
import repro.graph.GraphGen
import repro.rrset.{RRCollection, RRSource}

final case class Metric(name: String, value: Double, unit: String)

/** Everything one run measured: the printed metrics plus the detail the
  * report file keeps (set-up and solve samples, per-collection breakdown,
  * span self times).
  */
final case class Outcome(
    attempted: Int,
    failed: Int,
    failures: Seq[String],
    endToEnd: Seq[Metric],
    perLayer: Seq[Metric],
    detail: Map[String, Any],
)

/** Runs one workload: set-up, repeated allocation calls scored on the
  * independent evaluation collection and gated for correctness, and, when
  * traced, the per-layer replay.
  *
  * Memoisation the program does is avoided on purpose: `Experiments.env` is
  * called once (its cache would make a second call free), and
  * `RMA.run`/`TICARM.tiCarm` are called directly, never `Tables.runAlgo`,
  * which caches by key.
  */
final class Bench(spark: SparkSession, wl: Workload, seed: Long, seconds: Double,
                  trace: Trace, cores: Int) {
  import Bench._

  private val counters = new SparkCounters
  if (trace.enabled) spark.sparkContext.addSparkListener(counters)

  private val sparkReadyS = (System.currentTimeMillis() - jvmStartMs) / 1e3

  // ---- set-up ---------------------------------------------------------------

  // Traced only: the set-up's public calls, each in a span, before
  // `Experiments.env`, so they run cold as they do inside it. The graph is
  // cached per JVM, so env reuses it; the rest env builds again.
  if (trace.enabled) trace("setup") {
    val g = trace("graph.gen")(GraphGen.graph(spark, wl.spec))
    val model = trace("graph.model")(wl.model(g))
    val source = trace("setup.source_init")(new RRSource(spark, model, Experiments.cpes))
    trace("eval.calib") {
      val calib = source.collection(Experiments.calibSets(g.n), seed = 90001L)
      Array.tabulate(Experiments.H)(i => Array.tabulate(g.n)(u => calib.sigmaSingleton(u, i)))
    }
    trace("eval.evalcoll")(source.collection(Experiments.evalSets(g.n), seed = 99001L))
  }

  // `setup_s`: process start to the return of the one `Experiments.env` call.
  private val env = Experiments.env(spark, wl.spec, wl.budgetOverride)
  private val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3

  // ---- solves ---------------------------------------------------------------

  private val costs = env.costs(CostModel.Linear, wl.alpha)
  private val evaluator = new Evaluator(env.evalColl, costs, env.budgets)
  private val h = env.cpe.length

  /** §5.1 fair-comparison rule: RMA receives B/(1+ϱ). */
  private val rmaBudgets = env.budgets.map(_ / (1 + Tables.Rho))
  private val rmaCfg = RMA.Config(eps = Tables.EpsRma, delta = 1.0 / env.n,
    tau = Tables.TauDefault, rho = Tables.Rho, subsim = wl.subsim, seed = seed)
  private val tiCfg = TICARM.Config(eps = Tables.EpsTi, seed = seed, subsim = wl.subsim,
    maxSetsPerAd = Workloads.TiMaxSetsPerAd)

  /** Spend bound per advertiser: (1+ϱ)·(RMA's budget) for RMA, B_i for TI-CARM. */
  private val spendBound: Array[Double] =
    if (wl.ticarm) env.budgets else rmaBudgets.map(_ * (1 + Tables.Rho))

  private final case class Solve(alloc: Alloc, sets: Long, peakSets: Long,
                                 rma: Option[RMA.Result], ti: Option[TICARM.Result])

  private def solve(): Solve =
    if (wl.ticarm) {
      val r = TICARM.tiCarm(spark, env.model, env.cpe, env.budgets, costs, tiCfg)
      Solve(r.alloc, r.totalSetsGenerated, r.peakSets, None, Some(r))
    } else {
      val r = RMA.run(spark, env.model, env.cpe, rmaBudgets, costs, rmaCfg)
      Solve(r.alloc, 2L * r.numSets, 2L * r.numSets, Some(r), None)
    }

  /** The correctness gate: why the allocation fails, if it does. */
  private def violation(a: Alloc, perAd: Array[Double]): Option[String] =
    if (!Alloc.disjoint(a)) Some("allocation is not disjoint")
    else if (!(perAd.sum > 0)) Some(s"revenue ${perAd.sum} is not positive")
    else (0 until h).collectFirst {
      case i if a(i).map(costs(i)).sum + perAd(i) > spendBound(i) =>
        s"advertiser $i spends ${a(i).map(costs(i)).sum + perAd(i)} > bound ${spendBound(i)}"
    }

  def run(): Outcome = {
    val solveS = ArrayBuffer.empty[Double]
    val scoreS = ArrayBuffer.empty[Double]
    val revenues = ArrayBuffer.empty[Double]
    val failures = ArrayBuffer.empty[String]
    var first: Option[Solve] = None

    var gcMs = 0L
    val window = System.nanoTime()
    while (solveS.size <= MinWarmSolves || (System.nanoTime() - window) / 1e9 < seconds) {
      if (solveS.isEmpty) heapPools.foreach(_.resetPeakUsage())
      val gcBefore = gcMillis()
      val (outcome, secs) = timed {
        try Right(solve()) catch { case NonFatal(e) => Left(e.toString) }
      }
      gcMs += gcMillis() - gcBefore
      solveS += secs
      val problem = outcome match {
        case Left(err) => Some(s"solve threw $err")
        case Right(s) =>
          val (perAd, score) = timed(evaluator.revenuePerAd(s.alloc))
          scoreS += score
          val problem = violation(s.alloc, perAd).orElse(
            first.filter(_.alloc != s.alloc).map(_ => "allocation differs from the first solve with the same seed"))
          if (problem.isEmpty) {
            revenues += perAd.sum
            if (first.isEmpty) first = Some(s)
          }
          problem
      }
      problem.foreach(p => failures += s"solve ${solveS.size}: $p")
    }
    val attempted = solveS.size
    val gcPerSolveS = gcMs / 1e3 / attempted
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
    val ok = first.getOrElse(throw new IllegalStateException(
      s"every solve failed: ${failures.mkString("; ")}"))

    val warm = median(solveS.tail.toSeq)
    val endToEnd = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("solve_s", warm, "s"),
      Metric("revenue", revenues.sum / revenues.size, "revenue"),
      Metric("rr_sets", ok.sets.toDouble, "count"),
      Metric("rr_sets_peak", ok.peakSets.toDouble, "count"),
    )
    val base = Map[String, Any](
      "setup_s" -> setupS,
      "solve_s" -> solveS.toSeq,
      "failures" -> failures.toSeq,
    )
    val (perLayer, detail) =
      if (!trace.enabled) (Nil, base)
      else layers(ok, solveS.head, warm, median(scoreS.toSeq), gcPerSolveS, heapPeakMb,
        attempted, failures.size, base)
    Outcome(attempted, failures.size, failures.toSeq, endToEnd, perLayer, detail)
  }

  // ---- traced run -----------------------------------------------------------

  private final case class Replay(root: Trace.Span, colls: Seq[Sampled])

  /** One sampled collection: its `RRSource` call, and a second, timed
    * `rebuildIndex` of it (the call itself builds the index once inside).
    */
  private final case class Sampled(span: Trace.Span, coll: RRCollection, indexS: Double) {
    def jobS: Double = SparkCounters.totals(counters.jobsIn(span)).wallS
    def appendS: Double = span.seconds - jobS - indexS
    def detail: Map[String, Any] = Map("sets" -> coll.numSets, "incidences" -> coll.totalNodes,
      "sample_s" -> span.seconds, "job_s" -> jobS, "append_s" -> appendS, "index_s" -> indexS)
  }

  private def sampled(span: Trace.Span, c: RRCollection): Sampled =
    Sampled(span, c, timedSpan("rrset.rebuild_index")(c.rebuildIndex()))

  /** RMA's first iteration through public calls, with RMA's own seeds.
    * Fails if the result is not the reference run's: the breakdown must be of
    * the program `RMA.run` executes.
    */
  private def replayRma(ref: RMA.Result): Replay = {
    check(ref.iterations == 1, s"RMA stopped at iteration ${ref.iterations}; the replay covers iteration 1 only")
    val cfg = rmaCfg
    val budgets = rmaBudgets
    val n = env.n
    val gamma = env.cpe.sum
    val lam = Search.lambda(h, cfg.tau)
    val deltaP = cfg.delta / 4
    val bMin = budgets.min
    val mus = Array.tabulate(h)(i => RMA.muOf(costs(i), env.cpe(i), (1 + cfg.rho) * budgets(i)))
    val thMax = RMA.thetaMax(n, gamma, lam, cfg.eps, deltaP, cfg.rho, bMin, mus)
    val theta0 = 4.0 * n * gamma * (2 + cfg.rho / 3) / (cfg.rho * cfg.rho * bMin) * math.log(h / deltaP)
    val tMax = math.max(1, math.ceil(math.log(thMax / theta0) / math.log(2)).toInt)
    val q = math.log((h + 2) * tMax / deltaP)
    val th0 = math.min(cfg.maxSetsCap.toLong, math.max(256L, theta0.toLong)).toInt
    check(th0.toLong == ref.theta0, s"replay θ₀ $th0 differs from RMA.run's ${ref.theta0}")

    val (r1, r2, inner, alloc, beta, feasible) = trace("rma.replay") {
      val source = trace("rrset.source_init")(new RRSource(spark, env.model, env.cpe))
      val r1 = trace("rrset.collection")(source.collection(th0, cfg.seed * 2 + 1, cfg.subsim))
      val r2 = trace("rrset.collection")(source.collection(th0, cfg.seed * 2 + 2, cfg.subsim))
      val inner = trace("core.problem")(new RMProblem(r1, budgets.map(_ * (1 + cfg.rho / 2)), costs))
      trace("core.singleton_pi")(inner.singletonPi)
      val or = trace("core.search")(Search.rmWithOracle(inner, cfg.tau))
      val (beta, feasible) = trace("core.bounds") {
        val z = RMA.seekUB(r1, or.alloc, or.info, lam, h)
        val feasible = (0 until h).forall { i =>
          RMA.ub(r2.piOf(i, or.alloc(i)), r2.scalePerSet, q) <=
            (1 + cfg.rho) * budgets(i) - or.alloc(i).map(costs(i)).sum + 1e-9
        }
        val lbS = RMA.lb(Alloc.piTotal(r2, or.alloc), r2.scalePerSet, q)
        val ubO = RMA.ub(z, r1.scalePerSet, q)
        (if (ubO <= 0) 1.0 else lbS / ubO, feasible)
      }
      (r1, r2, inner, or.alloc, beta, feasible)
    }
    val root = trace.last("rma.replay")
    check(alloc == ref.alloc, "replayed allocation differs from RMA.run's")
    check(r1.numSets == ref.numSets && beta == ref.beta && feasible == ref.feasibleAtStop,
      s"replay (|R1|=${r1.numSets}, β=$beta, feasible=$feasible) differs from RMA.run's " +
        s"(${ref.numSets}, ${ref.beta}, ${ref.feasibleAtStop})")
    trace("core.tg_call")(ThresholdGreedy.run(inner, 0.0))
    Replay(root, trace.under(root, "rrset.collection").zip(Seq(r1, r2)).map((sampled _).tupled))
  }

  private def timedSpan(name: String)(body: => Unit): Double = { trace(name)(body); trace.last(name).seconds }

  private def layers(ok: Solve, coldS: Double, untracedSolveS: Double, scoreS: Double, gcS: Double,
                     heapPeakMb: Double, attempted: Int, failed: Int,
                     base: Map[String, Any]): (Seq[Metric], Map[String, Any]) = {
    // RMA's iteration: the workload's own solve, or (TI-CARM) one extra run
    // with the same seed so every workload reports repro.core.
    val (rmaRef, rmaRunS) = ok.rma.map(r => (r, untracedSolveS)).getOrElse(
      timed(RMA.run(spark, env.model, env.cpe, rmaBudgets, costs, rmaCfg)))
    val replay = replayRma(rmaRef)

    val tiSolve = ok.ti.map { ref =>
      val r = trace("ticarm.solve")(TICARM.tiCarm(spark, env.model, env.cpe, env.budgets, costs, tiCfg))
      check(r.alloc == ref.alloc, "traced TI-CARM allocation differs from the untraced one")
      r
    }

    // One isolated TIM.kptEstimate (every workload) and, for TI-CARM, one
    // maxSetsPerAd collection with its index rebuild.
    val isolated = trace("baselines.isolated") {
      val src = trace("rrset.source_init")(
        new RRSource(spark, new SingleAdModel(env.model, 0), Array(env.cpe(0))))
      trace("baselines.kpt")(TIM.kptEstimate(src, env.graph, 1, tiCfg.ell, seed, wl.subsim))
      if (wl.ticarm) {
        val c = trace("rrset.collection")(src.collection(tiCfg.maxSetsPerAd, seed * 101 + 1, wl.subsim))
        Some(sampled(trace.last("rrset.collection"), c))
      } else None
    }
    val isoRoot = trace.last("baselines.isolated")
    PerfbenchBus.drain(spark.sparkContext)

    // The sampling the workload's solve does: RMA's R₁/R₂, or TI-CARM's
    // isolated maxSetsPerAd collection.
    val solveRoot = if (wl.ticarm) trace.last("ticarm.solve") else replay.root
    val (sampleRoot, colls) = isolated.fold((replay.root, replay.colls))(c => (isoRoot, Seq(c)))
    val sampleS = colls.map(_.span.seconds).sum
    val jobS = colls.map(_.jobS).sum
    val indexS = colls.map(_.indexS).sum
    val sets = colls.map(_.coll.numSets.toLong).sum
    val incidences = colls.map(_.coll.totalNodes).sum
    // idxHead (h·n+1), idxSets (one per incidence) and the per-set stamps, as Ints.
    val indexMb = colls.map(s => (s.coll.h.toLong * s.coll.n + 1 + s.coll.totalNodes + s.coll.numSets) * 4)
      .sum / 1048576.0
    val solveJobs = SparkCounters.totals(counters.jobsIn(solveRoot))

    def spanS(root: Trace.Span, name: String) = trace.under(root, name).map(_.seconds).sum
    def lastS(name: String) = trace.last(name).seconds
    val core = replay.root

    val perLayer = Seq(
      Metric("setup.spark_s", sparkReadyS, "s"),
      Metric("graph.gen_s", lastS("graph.gen"), "s"),
      Metric("graph.model_s", lastS("graph.model"), "s"),
      Metric("rrset.source_init_s", spanS(sampleRoot, "rrset.source_init"), "s"),
      Metric("rrset.sample_s", sampleS, "s"),
      Metric("rrset.index_s", indexS, "s"),
      Metric("rrset.append_s", sampleS - jobS - indexS, "s"),
      Metric("rrset.sets", sets.toDouble, "count"),
      Metric("rrset.incidences", incidences.toDouble, "count"),
      Metric("rrset.avg_set_size", incidences.toDouble / sets, "count"),
      Metric("rrset.sets_per_s", sets / jobS, "1/s"),
      Metric("rrset.index_mb", indexMb, "MB"),
      Metric("rrset.spark_jobs", solveJobs.jobs.toDouble, "count"),
      Metric("rrset.spark_tasks", solveJobs.tasks.toDouble, "count"),
      Metric("rrset.task_cpu_s", solveJobs.taskS, "s"),
      Metric("rrset.result_mb", solveJobs.resultMb, "MB"),
      Metric("rrset.core_busy", solveJobs.taskS / (solveJobs.wallS * cores), "ratio"),
      Metric("core.singleton_pi_s", spanS(core, "core.singleton_pi"), "s"),
      Metric("core.search_s", spanS(core, "core.search"), "s"),
      Metric("core.tg_call_s", trace.last("core.tg_call").seconds, "s"),
      Metric("core.bounds_s", spanS(core, "core.bounds"), "s"),
      Metric("core.iterations", rmaRef.iterations.toDouble, "count"),
      Metric("core.theta0", rmaRef.theta0.toDouble, "count"),
      Metric("core.beta", rmaRef.beta, "ratio"),
      Metric("baselines.kpt_s", spanS(isoRoot, "baselines.kpt"), "s"),
      Metric("baselines.regenerations", tiSolve.map(_.regenerations.toDouble).getOrElse(0.0), "count"),
      Metric("baselines.sets_generated", tiSolve.map(_.totalSetsGenerated.toDouble).getOrElse(0.0), "count"),
      Metric("baselines.peak_sets", tiSolve.map(_.peakSets.toDouble).getOrElse(0.0), "count"),
      Metric("eval.calib_s", lastS("eval.calib"), "s"),
      Metric("eval.evalcoll_s", lastS("eval.evalcoll"), "s"),
      Metric("eval.score_s", scoreS, "s"),
      Metric("jvm.gc_s", gcS, "s"),
      Metric("jvm.heap_peak_mb", heapPeakMb, "MB"),
      Metric("solve_cold_s", coldS, "s"),
      Metric("solve.samples", (attempted - 1).toDouble, "count"),
      Metric("solve.traced_s", solveRoot.seconds, "s"),
      Metric("solve.other_s", trace.selfSeconds(solveRoot), "s"),
      Metric("trace.overhead_s", solveRoot.seconds - untracedSolveS, "s"),
      Metric("failed_frac", failed.toDouble / attempted, "ratio"),
    )
    val spans = trace.all.groupBy(_.name).map { case (name, ss) =>
      name -> Map("count" -> ss.size, "total_s" -> ss.map(_.seconds).sum,
        "self_s" -> ss.map(trace.selfSeconds).sum)
    }
    val detail = base ++ Map(
      "rma" -> Map("run_s" -> rmaRunS, "iterations" -> rmaRef.iterations, "num_sets" -> rmaRef.numSets,
        "theta0" -> rmaRef.theta0, "theta_max" -> rmaRef.thetaMax, "beta" -> rmaRef.beta,
        "lambda" -> rmaRef.lambda, "eps" -> rmaCfg.eps, "search_s" -> spanS(core, "core.search"),
        "collections" -> replay.colls.map(_.detail)),
      "collections" -> colls.map(_.detail),
      "spans" -> spans,
      "span_list" -> trace.all.map(s => Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
        "start_ms" -> s.startMs, "seconds" -> s.seconds)),
    )
    (perLayer, detail)
  }
}

object Bench {
  /** Warm allocation calls per run at the least, however long they take:
    * `solve_s` is their median.
    */
  val MinWarmSolves = 2

  val jvmStartMs: Long = ManagementFactory.getRuntimeMXBean.getStartTime

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def check(cond: Boolean, msg: => String): Unit =
    if (!cond) throw new IllegalStateException(msg)

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum

  private def heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == java.lang.management.MemoryType.HEAP).toSeq
}
