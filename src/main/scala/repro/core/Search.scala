package repro.core

import java.util.concurrent.{CancellationException, CompletableFuture, CompletionException}
import java.util.concurrent.atomic.AtomicBoolean
import scala.collection.mutable
import Alloc.Alloc

/** Algorithm 4 — Search(τ, b_min): binary search over the ThresholdGreedy
  * threshold γ ∈ [0, (1+τ)γ_max], plus Algorithm 5 — RM_with_Oracle(τ).
  */
object Search {

  /** The two boundary solutions Search maintains, used by RMA's SeekUB:
    * `(T⃗₁*, b₁, γ₁)` with `b₁ ≥ b_min` and `(T⃗₂*, b₂, γ₂)` with `b₂ < b_min`.
    * `t1`/`t2` are `None` when never assigned (paper's `T⃗* = ∅`).
    *
    * `calls` counts the binary search's steps, one ThresholdGreedy call each;
    * `discarded` counts the speculative calls launched for thresholds the
    * search never reached. Both depend on the instance only, never on
    * timing: `calls` of `calls + discarded` calls were useful.
    */
  final case class SearchInfo(
      t1: Option[Alloc], b1: Int, g1: Double,
      t2: Option[Alloc], b2: Int, g2: Double,
      bMin: Int,
      calls: Int, discarded: Int,
  )

  final case class SearchResult(best: Alloc, info: SearchInfo)

  /** Maximum binary-search iterations (safety net; the paper's stop rule
    * always fires well before this at any realistic precision).
    */
  private val MaxIters = 200

  /** One ThresholdGreedy(γ) call on the common fork-join pool. */
  private final class Call(prob: RMProblem, gamma: Double) {
    val cancelled = new AtomicBoolean(false)
    val result: CompletableFuture[ThresholdGreedy.TGResult] =
      CompletableFuture.supplyAsync(() => ThresholdGreedy.run(prob, gamma, cancelled))

    def join(): ThresholdGreedy.TGResult =
      try result.join()
      catch { case e: CompletionException if e.getCause != null => throw e.getCause }

    /** Stop the call and wait until it no longer runs; a call that has not
      * started returns as soon as it does.
      */
    def cancelAndWait(): Unit = {
      cancelled.set(true)
      try result.join() catch { case _: CompletionException | _: CancellationException => () }
    }
  }

  /** Algorithm 4. γ_{k+1} is (γ_k+γ₂)/2 if call k reaches `bMin`, and
    * (γ₁+γ_k)/2 otherwise; both are known before call k returns. So while
    * call k runs, the calls for both candidates run too, except where the
    * stop rule would end the search first. Then call k's result advances
    * the search exactly as a one-call-at-a-time loop would, and the losing
    * candidate is cancelled. γ, the boundary solutions and `best` are the
    * sequential loop's for any number of threads, and every call has ended
    * when `run` returns.
    */
  def run(prob: RMProblem, tau: Double, bMin: Int): SearchResult = {
    val h = prob.h
    val minCpe = (0 until h).map(prob.oracle.cpe).min
    def stops(g1: Double, g2: Double, iters: Int): Boolean =
      ((1 + tau) * g1 >= g2) || (g2 <= minCpe / (h + 6)) || iters >= MaxIters

    val calls = mutable.HashMap.empty[Double, Call]
    val path = mutable.Set.empty[Double]
    def launch(g: Double): Unit = if (!calls.contains(g)) calls(g) = new Call(prob, g)
    def discard(g: Double): Unit = calls.get(g).foreach(_.cancelled.set(true))

    var g2 = (1 + tau) * prob.gammaMax
    var g1 = 0.0
    var gamma = g1
    var t1: Option[Alloc] = None; var b1 = 0
    var t2: Option[Alloc] = None; var b2 = 0
    var best: Alloc = null
    var bestPi = 0.0
    var iters = 0
    var stop = false
    try {
      while (!stop) {
        launch(gamma)
        val up = (gamma + g2) / 2   // γ_{k+1} when this call reaches bMin
        val down = (g1 + gamma) / 2 // γ_{k+1} when it does not
        if (!stops(gamma, g2, iters + 1)) launch(up)
        if (!stops(g1, gamma, iters + 1)) launch(down)
        val r = calls(gamma).join()
        path += gamma
        // The first maximum in call order, as `maxBy` picks it.
        if (best == null || java.lang.Double.compare(r.pi, bestPi) > 0) { best = r.alloc; bestPi = r.pi }
        if (r.b >= bMin) { t1 = Some(r.alloc); b1 = r.b; g1 = gamma; discard(down) }
        else { t2 = Some(r.alloc); b2 = r.b; g2 = gamma; discard(up) }
        gamma = (g1 + g2) / 2
        iters += 1
        stop = stops(g1, g2, iters)
      }
    } finally calls.valuesIterator.foreach(_.cancelAndWait())
    SearchResult(best, SearchInfo(t1, b1, g1, t2, b2, g2, bMin, iters, calls.size - path.size))
  }

  /** The h-dependent approximation ratio λ of Theorem 3.5. */
  def lambda(h: Int, tau: Double): Double =
    if (h == 1) 1.0 / 3
    else if (h <= 3) 1.0 / (2 * (h + 1) * (1 + tau))
    else 1.0 / ((h + 6) * (1 + tau))

  /** Algorithm 5 — RM_with_Oracle(τ): dispatch on the number of advertisers.
    * For h = 1 the result carries no SearchInfo (SeekUB's h = 1 branch).
    */
  final case class OracleResult(alloc: Alloc, info: Option[SearchInfo])

  def rmWithOracle(prob: RMProblem, tau: Double): OracleResult = {
    if (prob.h == 1) {
      val s = Greedy.run(prob, (0 until prob.n).toVector, 0)
      OracleResult(Vector(s), None)
    } else {
      val bMin = if (prob.h <= 3) 1 else 2
      val r = run(prob, tau, bMin)
      OracleResult(r.best, Some(r.info))
    }
  }
}
