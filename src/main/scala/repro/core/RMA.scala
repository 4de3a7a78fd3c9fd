package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.InfluenceModel
import repro.rrset.{RRCollection, RRSource}
import Alloc.Alloc

/** Algorithms 6 & 7 — RM_without_Oracle (RMA) with progressive sampling, and
  * SeekUB.
  *
  * Two RR-set collections `R₁`/`R₂` of size θ₀ are grown by doubling; each
  * round solves the inner RM problem on `R₁` with budgets relaxed to
  * (1+ϱ/2)B, validates budget feasibility and the empirical approximation
  * ratio with martingale bounds on `R₂`/`R₁` (Lemma B.7), and stops when
  * `β ≥ λ−ε` with feasibility, or when |R₁| ≥ θ_max.
  */
object RMA {

  /** @param eps    ε ∈ (0, λ) — approximation slack
    * @param delta  failure probability (paper default 1/n)
    * @param tau    Search's binary-search precision
    * @param rho    ϱ ∈ (0,1) — budget overshoot control
    * @param subsim use SUBSIM's subset sampling (a binomial count of live
    *               in-edges plus a uniform subset) for RR generation
    * @param maxSetsCap hard memory guard on each collection's size
    */
  final case class Config(
      eps: Double = 0.02,
      delta: Double = 0.01,
      tau: Double = 0.1,
      rho: Double = 0.1,
      subsim: Boolean = false,
      seed: Long = 42L,
      maxSetsCap: Int = 64_000_000,
  )

  /** Run diagnostics alongside the solution. `r2Sets` is |R₂| at the stop
    * and `r2Members` the set members its last check generated: each R₂ set
    * ends at its first seed, so this is at most R₂'s incidence count.
    */
  final case class Result(
      alloc: Alloc,
      iterations: Int,
      numSets: Int,
      beta: Double,
      feasibleAtStop: Boolean,
      lambda: Double,
      theta0: Long,
      thetaMax: Long,
      millis: Long,
      r2Sets: Int,
      r2Members: Long,
  )

  /** θ̂_max, θ̄_max and θ_max of Theorem 4.2 (with δ already halved etc. by
    * the caller as Alg 6 line 2 prescribes).
    */
  def thetaMax(n: Int, gamma: Double, lambda: Double, eps: Double, delta: Double,
               rho: Double, bMin: Double, mus: Array[Int]): Double = {
    val muSum = mus.map(mu => mu * math.log(math.E * n / math.max(1, mu))).sum
    val mu = math.max(1, mus.max)
    val hatTheta = 2.0 * n / (eps * eps) *
      math.pow(lambda * math.sqrt(math.log(4 / delta)) +
        math.sqrt(lambda * (math.log(4 / delta) + muSum)), 2)
    val barTheta = 8.0 * n * gamma * (1 + rho) / (rho * rho * bMin) *
      (math.log(4.0 * mus.length / delta) + mu * math.log(math.E * n / mu))
    math.max(hatTheta, barTheta)
  }

  /** μ_i: max nodes advertiser i can hold within the relaxed budget
    * (1+ϱ)B_i, counting each seed's cost plus its own guaranteed engagement.
    */
  def muOf(costs: Array[Double], cpe: Double, relaxedBudget: Double): Int = {
    val sorted = costs.clone().sorted
    var k = 0
    var acc = 0.0
    while (k < sorted.length && acc + sorted(k) + cpe <= relaxedBudget) {
      acc += sorted(k) + cpe
      k += 1
    }
    math.max(1, k)
  }

  /** Upper confidence bound of Lemma B.7 for an estimate `piTilde` over a
    * collection with per-set revenue `scale = nΓ/|R|`.
    */
  def ub(piTilde: Double, scale: Double, q: Double): Double = {
    val t = piTilde / scale // covered-count units
    math.pow(math.sqrt(t + q / 2) + math.sqrt(q / 2), 2) * scale
  }

  /** Lower confidence bound of Lemma B.7 (clamped at 0). */
  def lb(piTilde: Double, scale: Double, q: Double): Double = {
    val t = piTilde / scale
    val root = math.sqrt(t + 2 * q / 9) - math.sqrt(q / 2)
    math.max(0.0, (root * root - q / 18) * scale)
  }

  /** Algorithm 7 — SeekUB: an upper bound on π̃(O⃗, R₁) from the Search
    * boundary solutions, no worse than the trivial π̃(S⃗*, R₁)/λ.
    */
  def seekUB(r1: RRCollection, alloc: Alloc, info: Option[Search.SearchInfo],
             lambda: Double, h: Int): Double = {
    val trivial = Alloc.piTotal(r1, alloc) / lambda
    if (h == 1) return trivial
    val si = info.get
    val z: Double =
      if (si.b1 < si.bMin) {
        si.t2.map(t => 6 * Alloc.piTotal(r1, t)).getOrElse(trivial)
      } else if (si.t2.isDefined) {
        val pt2 = Alloc.piTotal(r1, si.t2.get)
        if (si.b2 == 0) 2 * pt2 + h * si.g2
        else 6 * pt2 + h * si.g2
      } else {
        si.t1.map(t => Alloc.piTotal(r1, t) / lambda).getOrElse(trivial)
      }
    math.min(z, trivial)
  }

  /** Full RMA run on `model` with `cpe`, `budgets`, `costs`. */
  def run(spark: SparkSession, model: InfluenceModel, cpe: Array[Double],
          budgets: Array[Double], costs: Array[Array[Double]],
          cfg: Config): Result = {
    val t0 = System.nanoTime()
    val n = model.graph.n
    val h = cpe.length
    val gamma = cpe.sum
    val lam = Search.lambda(h, cfg.tau)
    val deltaP = cfg.delta / 4
    val bMin = budgets.min
    val mus = Array.tabulate(h)(i => muOf(costs(i), cpe(i), (1 + cfg.rho) * budgets(i)))
    val thMax = thetaMax(n, gamma, lam, cfg.eps, deltaP, cfg.rho, bMin, mus)
    val theta0 = 4.0 * n * gamma * (2 + cfg.rho / 3) / (cfg.rho * cfg.rho * bMin) *
      math.log(h / deltaP)
    val tMax = math.max(1, math.ceil(math.log(thMax / theta0) / math.log(2)).toInt)
    val q = math.log((h + 2) * tMax / deltaP)

    val source = new RRSource(spark, model, cpe)
    val th0 = math.min(cfg.maxSetsCap.toLong, math.max(256L, theta0.toLong)).toInt
    val r1 = source.collection(th0, cfg.seed * 2 + 1, cfg.subsim)
    // R₂ only scores the allocation Search returns, so it is kept as its
    // (num, seed) batches and regenerated against each round's allocation,
    // each set stopping at its first seed.
    var r2 = Vector((th0, cfg.seed * 2 + 2))

    var iter = 0
    var result: Result = null
    while (result == null) {
      iter += 1
      val innerProb = new RMProblem(r1, budgets.map(_ * (1 + cfg.rho / 2)), costs)
      val or = Search.rmWithOracle(innerProb, cfg.tau)
      val allocA = or.alloc
      val z = seekUB(r1, allocA, or.info, lam, h)
      // Feasibility (lines 8–11) and π̃(S⃗*, R₂) on R₂.
      val r2Sets = r2.map(_._1).sum
      val scale2 = n.toDouble * gamma / r2Sets
      val cov = source.coverage(allocA, r2, cfg.subsim)
      var feasible = true
      var piS = 0.0
      var i = 0
      while (i < h) {
        val pi = cov.covered(i) * scale2
        piS += pi
        val ci = allocA(i).map(costs(i)).sum
        if (ub(pi, scale2, q) > (1 + cfg.rho) * budgets(i) - ci + 1e-9) feasible = false
        i += 1
      }
      val lbS = lb(piS, scale2, q)
      val ubO = ub(z, r1.scalePerSet, q)
      val beta = if (ubO <= 0) 1.0 else lbS / ubO
      val reachedThetaMax = r1.numSets >= thMax || r1.numSets >= cfg.maxSetsCap
      if ((beta >= lam - cfg.eps && feasible) || reachedThetaMax) {
        result = Result(allocA, iter, r1.numSets, beta, feasible, lam,
          th0.toLong, thMax.toLong, (System.nanoTime() - t0) / 1000000L, r2Sets, cov.members)
      } else {
        // R₁ and R₂ have the same size and grow by the same count.
        val grow = math.min(r1.numSets.toLong, cfg.maxSetsCap.toLong - r1.numSets).toInt
        source.appendTo(r1, grow, cfg.seed * 1000 + iter * 2 + 1, cfg.subsim)
        r2 :+= ((grow, cfg.seed * 1000 + iter * 2 + 2))
      }
    }
    result
  }
}
