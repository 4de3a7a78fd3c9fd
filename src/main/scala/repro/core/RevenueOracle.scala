package repro.core

/** Abstraction the paper's algorithms run against: a revenue function
  * `π_i(·) = cpe(i)·σ_i(·)` per advertiser, with an incremental-session API
  * for greedy selection.
  *
  * Two implementations exist:
  *   - [[repro.rrset.RRCollection]] — the sampled estimator `π̃(·, R)` of §4
  *     (also used as the "oracle" of §3 with a very large fixed `R`);
  *   - [[ExactOracle]] — brute-force exact spread on tiny graphs, used by
  *     tests to validate the §3 approximation guarantees.
  */
trait RevenueOracle {
  /** Number of nodes in the network. */
  def n: Int

  /** Number of advertisers. */
  def h: Int

  /** Cost-per-engagement of advertiser `i`. */
  def cpe(i: Int): Double

  /** `π_i(X)` evaluated from scratch for an arbitrary seed set `X`. */
  def piOf(i: Int, xs: Iterable[Int]): Double

  /** `π_i({u})`, the singleton revenue; implementations may answer it faster. */
  def piSingle(i: Int, u: Int): Double = piOf(i, Seq(u))

  /** Fresh incremental session starting from the empty allocation. */
  def newSession(): RevenueSession
}

/** Incremental marginal-gain engine over a growing allocation `S⃗`.
  *
  * Guarantee required by [[LazyGreedy]] (and `TICARM`'s own lazy heaps):
  * `gain(u, i)` is non-increasing over the lifetime of the session
  * (submodularity of `π_i`, which holds exactly for coverage estimators and
  * for the exact TIC spread).
  */
trait RevenueSession {
  /** `π_i(u | S_i)` under the current allocation. */
  def gain(u: Int, i: Int): Double

  /** Commit `u` to `S_i`. */
  def add(u: Int, i: Int): Unit

  /** `π_i(S_i)` under the current allocation. */
  def pi(i: Int): Double

  /** Marginal rate `ζ_i(u | S_i)` for seed cost `cost = c_i(u)`. */
  final def rate(u: Int, i: Int, cost: Double): Double = RevenueSession.rate(gain(u, i), cost)
}

object RevenueSession {
  /** Marginal rate `g/(c + g)` of gain `g` at seed cost `c`, or 0 when
    * `c + g ≤ 0`.
    */
  def rate(gain: Double, cost: Double): Double =
    if (cost + gain <= 0) 0.0 else gain / (cost + gain)
}
