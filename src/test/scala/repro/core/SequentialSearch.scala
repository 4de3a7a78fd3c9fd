package repro.core

import Alloc.Alloc

/** Algorithms 2–5 as they ran before Search overlapped its calls: one
  * ThresholdGreedy call at a time, each with its own heap and sessions, the
  * `{S_j, D_j, A_j}` options scored by `piOf`, Fill from a fresh session, and
  * the answer picked by `maxBy(Alloc.piTotal)` over every call. Tests hold
  * `Search` and `ThresholdGreedy` to these outputs exactly.
  */
object SequentialSearch {

  /** ThresholdGreedy(γ): the allocation, `b`, and whether every advertiser
    * kept its threshold-phase set `S_j` (so Fill could continue that session).
    */
  final case class TG(alloc: Alloc, b: Int, keptS: Boolean)

  def thresholdGreedy(prob: RMProblem, gamma: Double): TG = {
    val n = prob.n; val h = prob.h
    val oracle = prob.oracle
    val sess = oracle.newSession()
    val assigned = new Array[Boolean](n)
    val dOf = Array.fill(h)(-1)
    val sLists = Array.fill(h)(Vector.newBuilder[Int])
    val costS = new Array[Double](h)
    var depleted = 0
    val heap = new DoubleIntHeap(n * h)
    for (i <- 0 until h; u <- 0 until n if prob.elementFeasible(i, u))
      heap.push(prob.singletonPi(i)(u), i * n + u)
    while (heap.nonEmpty && depleted != h) {
      val e = heap.topElem
      heap.removeTop()
      val ad = e / n; val u = e % n
      val g = sess.gain(u, ad)
      if (heap.nonEmpty && g < heap.topKey - 1e-12) heap.push(g, e)
      else {
        val c = prob.costs(ad)(u)
        val rate = if (c + g <= 0) 0.0 else g / (c + g)
        if (rate >= gamma / prob.budgets(ad) - 1e-12 && dOf(ad) < 0 && !assigned(u)) {
          if (costS(ad) + c + sess.pi(ad) + g <= prob.budgets(ad) + 1e-9) {
            sess.add(u, ad); costS(ad) += c; sLists(ad) += u; assigned(u) = true
          } else {
            dOf(ad) = u; assigned(u) = true; depleted += 1
          }
        }
      }
    }
    val s = sLists.map(_.result())
    val aFallback: Array[IndexedSeq[Int]] = Array.fill(h)(Vector.empty)
    if (depleted == 1) {
      val ad = dOf.indexWhere(_ >= 0)
      val inS = s.flatten.toSet
      aFallback(ad) = Greedy.run(prob, (0 until n).filterNot(inS).toVector, ad)
    }
    val sPrime: Alloc = Vector.tabulate(h) { j =>
      Seq(s(j), if (dOf(j) >= 0) Vector(dOf(j)) else Vector.empty[Int], aFallback(j))
        .maxBy(x => oracle.piOf(j, x))
    }
    TG(ThresholdGreedy.fill(prob, sPrime), depleted, (0 until h).forall(j => sPrime(j) == s(j)))
  }

  private val MaxIters = 200

  /** Algorithm 4, one call after another. `calls` is the number of calls;
    * `discarded` counts the thresholds a speculative search launches and
    * never reaches: at each step, the two possible next thresholds whose
    * branch the stop rule would not end.
    */
  def run(prob: RMProblem, tau: Double, bMin: Int): Search.SearchResult = {
    val h = prob.h
    val minCpe = (0 until h).map(prob.oracle.cpe).min
    def stops(g1: Double, g2: Double, iters: Int): Boolean =
      ((1 + tau) * g1 >= g2) || (g2 <= minCpe / (h + 6)) || iters >= MaxIters
    var g2 = (1 + tau) * prob.gammaMax
    var g1 = 0.0
    var gamma = g1
    var t1: Option[Alloc] = None; var b1 = 0
    var t2: Option[Alloc] = None; var b2 = 0
    val q = Vector.newBuilder[Alloc]
    val launched = scala.collection.mutable.LinkedHashSet.empty[Double]
    val path = scala.collection.mutable.Set.empty[Double]
    var iters = 0
    var stop = false
    while (!stop) {
      launched += gamma
      if (!stops(gamma, g2, iters + 1)) launched += (gamma + g2) / 2
      if (!stops(g1, gamma, iters + 1)) launched += (g1 + gamma) / 2
      path += gamma
      val r = thresholdGreedy(prob, gamma)
      q += r.alloc
      if (r.b >= bMin) { t1 = Some(r.alloc); b1 = r.b; g1 = gamma }
      else { t2 = Some(r.alloc); b2 = r.b; g2 = gamma }
      gamma = (g1 + g2) / 2
      iters += 1
      stop = stops(g1, g2, iters)
    }
    val best = q.result().maxBy(a => Alloc.piTotal(prob.oracle, a))
    Search.SearchResult(best, Search.SearchInfo(t1, b1, g1, t2, b2, g2, bMin,
      iters, launched.count(!path.contains(_))))
  }

  /** Algorithm 5 over [[run]]. */
  def rmWithOracle(prob: RMProblem, tau: Double): Search.OracleResult =
    if (prob.h == 1) Search.OracleResult(Vector(Greedy.run(prob, (0 until prob.n).toVector, 0)), None)
    else {
      val r = run(prob, tau, if (prob.h <= 3) 1 else 2)
      Search.OracleResult(r.best, Some(r.info))
    }
}
