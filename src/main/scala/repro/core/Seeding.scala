package repro.core

import scala.collection.mutable.ArrayBuffer
import Alloc.Alloc

/** A growing allocation S⃗ and the coverage session that holds exactly its
  * seeds, with each advertiser's seed cost c_i(S_i) and the nodes taken.
  * Greedy, ThresholdGreedy's threshold phase and Fill grow one, and the one
  * budget rule of Algorithms 1–3 is [[fits]].
  */
final class Seeding private (prob: RMProblem) {
  val sess: RevenueSession = prob.oracle.newSession()
  private val cost = new Array[Double](prob.h) // c_i(S_i), summed in add order
  private val seeds = Array.fill(prob.h)(ArrayBuffer.empty[Int])
  private val taken = new Array[Boolean](prob.n)

  /** Does adding `u`, of marginal gain `gain`, keep `c_i(S_i) + π_i(S_i) ≤ B_i`? */
  def fits(i: Int, u: Int, gain: Double): Boolean =
    cost(i) + prob.costs(i)(u) + sess.pi(i) + gain <= prob.budgets(i) + 1e-9

  /** Commit `u` to `S_i`. */
  def add(i: Int, u: Int): Unit = {
    sess.add(u, i)
    cost(i) += prob.costs(i)(u)
    seeds(i) += u
    taken(u) = true
  }

  /** Is `u` a seed of some advertiser? */
  def has(u: Int): Boolean = taken(u)

  /** Marginal rate `ζ_i(u | S_i)`. */
  def rate(i: Int, u: Int): Double = RevenueSession.rate(sess.gain(u, i), prob.costs(i)(u))

  /** S⃗, each S_i in add order. */
  def alloc: Alloc = Vector.tabulate(prob.h)(seeds(_).toVector)

  /** π(S⃗), summed over advertisers in index order. */
  def pi: Double = (0 until prob.h).foldLeft(0.0)(_ + sess.pi(_))
}

object Seeding {
  def empty(prob: RMProblem): Seeding = new Seeding(prob)

  /** A seeding holding `start`, added advertiser by advertiser in list order. */
  def of(prob: RMProblem, start: Alloc): Seeding = {
    val sd = new Seeding(prob)
    for (i <- 0 until prob.h; u <- start(i)) sd.add(i, u)
    sd
  }
}
