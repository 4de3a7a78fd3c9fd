package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import java.util.concurrent.locks.LockSupport
import org.scalatest.funsuite.AnyFunSuite

class SearchSpec extends AnyFunSuite {

  test("lambda matches Theorem 3.5's cases") {
    assert(Search.lambda(1, 0.1) == 1.0 / 3)
    assert(math.abs(Search.lambda(2, 0.1) - 1.0 / (2 * 3 * 1.1)) < 1e-12)
    assert(math.abs(Search.lambda(3, 0.1) - 1.0 / (2 * 4 * 1.1)) < 1e-12)
    assert(math.abs(Search.lambda(4, 0.1) - 1.0 / (10 * 1.1)) < 1e-12)
    assert(math.abs(Search.lambda(10, 0.2) - 1.0 / (16 * 1.2)) < 1e-12)
  }

  test("lambda is monotone non-increasing in h") {
    val taus = Seq(0.05, 0.1, 0.5)
    for (tau <- taus) {
      val l = (1 to 12).map(Search.lambda(_, tau))
      assert(l == l.sorted.reverse)
    }
  }

  test("gammaMax equals the best singleton budget-weighted rate") {
    val prob = TestInstances.randomDeterministicInstance(2, n = 6, h = 2)
    var expected = 0.0
    for (i <- 0 until prob.h; u <- 0 until prob.n) {
      val g = prob.oracle.piOf(i, Seq(u))
      val c = prob.costs(i)(u)
      expected = math.max(expected, prob.budgets(i) * g / (c + g))
    }
    assert(math.abs(prob.gammaMax - expected) < 1e-9)
  }

  test("search result is feasible and disjoint") {
    for (seed <- 1 to 8) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = 2)
      val r = Search.run(prob, tau = 0.1, bMin = 1)
      assert(Alloc.disjoint(r.best))
      for (i <- 0 until prob.h)
        assert(TestInstances.payment(prob, i, r.best(i)) <= prob.budgets(i) + 1e-6)
    }
  }

  test("search returns the max-revenue allocation among those it tested") {
    val prob = TestInstances.randomDeterministicInstance(3, n = 6, h = 2)
    val r = Search.run(prob, tau = 0.1, bMin = 1)
    // the boundary solutions are in Q, so best must beat both
    val bestPi = Alloc.piTotal(prob.oracle, r.best)
    r.info.t1.foreach(t => assert(bestPi >= Alloc.piTotal(prob.oracle, t) - 1e-9))
    r.info.t2.foreach(t => assert(bestPi >= Alloc.piTotal(prob.oracle, t) - 1e-9))
  }

  test("search boundary invariant: b1 ≥ bMin > b2 when both sides were seen") {
    for (seed <- 1 to 8) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = 2)
      val r = Search.run(prob, tau = 0.1, bMin = 1)
      if (r.info.t1.isDefined) assert(r.info.b1 >= 1)
      if (r.info.t2.isDefined) assert(r.info.b2 < 1)
      assert(r.info.g1 <= r.info.g2 + 1e-12)
    }
  }

  test("theorem 3.4: Search(tau,1) is a 1/(2(h+1)(1+tau)) approximation (h=2)") {
    for (seed <- 1 to 20) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = 2)
      val (opt, _) = BruteForce.optimal(prob)
      val r = Search.run(prob, tau = 0.1, bMin = 1)
      val got = Alloc.piTotal(prob.oracle, r.best)
      val ratio = 1.0 / (2 * (prob.h + 1) * 1.1)
      assert(got >= ratio * opt - 1e-6, s"seed=$seed got=$got opt=$opt")
    }
  }

  test("theorem 3.4 also on probabilistic instances") {
    for (seed <- 1 to 10) {
      val prob = TestInstances.randomProbabilisticInstance(seed, n = 5, h = 2)
      val (opt, _) = BruteForce.optimal(prob)
      val r = Search.run(prob, tau = 0.1, bMin = 1)
      val got = Alloc.piTotal(prob.oracle, r.best)
      assert(got >= Search.lambda(2, 0.1) * opt - 1e-6, s"seed=$seed")
    }
  }

  test("rmWithOracle dispatches to Greedy for h=1 (no search info)") {
    val prob = TestInstances.randomDeterministicInstance(1, n = 6, h = 1)
    val r = Search.rmWithOracle(prob, 0.1)
    assert(r.info.isEmpty)
    assert(r.alloc.size == 1)
  }

  test("rmWithOracle achieves lambda·OPT on random instances (h=1 and h=2)") {
    for (seed <- 1 to 12; h <- Seq(1, 2)) {
      val prob = TestInstances.randomDeterministicInstance(seed, n = 6, h = h)
      val (opt, _) = BruteForce.optimal(prob)
      val r = Search.rmWithOracle(prob, 0.1)
      val got = Alloc.piTotal(prob.oracle, r.alloc)
      assert(got >= Search.lambda(h, 0.1) * opt - 1e-6, s"seed=$seed h=$h got=$got opt=$opt")
    }
  }

  test("smaller tau never hurts the guarantee (sanity run)") {
    val prob = TestInstances.randomDeterministicInstance(9, n = 6, h = 2)
    val r1 = Search.run(prob, tau = 0.5, bMin = 1)
    val r2 = Search.run(prob, tau = 0.05, bMin = 1)
    // not a theorem about realised revenue, but both must be feasible
    for (r <- Seq(r1, r2); i <- 0 until prob.h)
      assert(TestInstances.payment(prob, i, r.best(i)) <= prob.budgets(i) + 1e-6)
  }

  test("search terminates within its iteration cap on adversarial budgets") {
    val prob = TestInstances.randomDeterministicInstance(11, n = 6, h = 2)
    val r = Search.run(prob, tau = 0.01, bMin = 2)
    assert(r.best != null)
  }

  test("Search reports its work: path calls equal the sequential loop's, b = 0, 1, ≥ 2 all seen") {
    val seen = scala.collection.mutable.Set.empty[Int]
    for (kind <- 0 to 2; seed <- 1 to 5; h <- Seq(2, 3, 5); scale <- Seq(0.25, 1.0, 4.0); bMin <- Seq(1, 2)) {
      val prob = TestInstances.searchInstance(kind, seed, h, scale)
      val got = Search.run(prob, tau = 0.1, bMin = bMin).info
      val want = SequentialSearch.run(prob, tau = 0.1, bMin = bMin).info
      assert(got.calls == want.calls && got.calls >= 1, s"kind=$kind seed=$seed h=$h")
      assert(got.discarded == want.discarded && got.discarded <= got.calls + 1)
      if (got.t1.isDefined) seen += math.min(got.b1, 2)
      if (got.t2.isDefined) seen += math.min(got.b2, 2)
    }
    assert(seen == Set(0, 1, 2), s"boundary b classes seen: $seen")
  }

  test("no speculative call outlives Search.run, and calls run on several threads") {
    // Sessions whose gain takes ~0.2 ms and records when it returned and on
    // which thread: a call still running after `run` returns would record a
    // later time. With b_min = h+1 every call falls short, γ only moves
    // down, and the call for the next γ up is still running when the search
    // stops.
    val lastGain = new AtomicLong(0L)
    val threads = ConcurrentHashMap.newKeySet[String]()
    for (seed <- 1 to 3; bMin <- Seq(2, 6)) {
      val inner = TestInstances.searchInstance(0, seed, 5, 1.0)
      val slow = new RevenueOracle {
        def n: Int = inner.n
        def h: Int = inner.h
        def cpe(i: Int): Double = inner.oracle.cpe(i)
        def piOf(i: Int, xs: Iterable[Int]): Double = inner.oracle.piOf(i, xs)
        override def piSingle(i: Int, u: Int): Double = inner.oracle.piSingle(i, u)
        def newSession(): RevenueSession = new RevenueSession {
          private val s = inner.oracle.newSession()
          def gain(u: Int, i: Int): Double = {
            LockSupport.parkNanos(200000L)
            threads.add(Thread.currentThread.getName)
            lastGain.set(System.nanoTime())
            s.gain(u, i)
          }
          def add(u: Int, i: Int): Unit = s.add(u, i)
          def pi(i: Int): Double = s.pi(i)
        }
      }
      val prob = new RMProblem(slow, inner.budgets, inner.costs)
      val r = Search.run(prob, tau = 0.05, bMin = bMin)
      val returned = System.nanoTime()
      Thread.sleep(20)
      assert(lastGain.get() < returned, s"seed=$seed bMin=$bMin: a ThresholdGreedy call ran after Search.run returned")
      assert(r == SequentialSearch.run(inner, tau = 0.05, bMin = bMin))
    }
    assert(threads.size > 1, s"gains ran on $threads")
  }
}
