package repro.rrset

import org.scalatest.funsuite.AnyFunSuite

class RRCollectionSpec extends AnyFunSuite {

  private def mk(n: Int, cpe: Array[Double], sets: Seq[(Int, Seq[Int])]): RRCollection = {
    val c = new RRCollection(n, cpe)
    sets.foreach { case (tag, ms) => TestSets.append(c, tag, ms.toArray) }
    c.rebuildIndex()
    c
  }

  test("stores sets, tags and sizes") {
    val c = mk(5, Array(1.0, 2.0), Seq((0, Seq(0, 1)), (1, Seq(2)), (0, Seq(3, 4, 0))))
    assert(c.numSets == 3 && c.totalNodes == 6)
    assert(c.tagOf(0) == 0 && c.tagOf(1) == 1 && c.tagOf(2) == 0)
    assert(c.setMembers(2).toSeq == Seq(3, 4, 0))
  }

  test("gamma and scalePerSet") {
    val c = mk(10, Array(1.0, 3.0), Seq((0, Seq(1)), (1, Seq(2))))
    assert(c.gamma == 4.0)
    assert(c.scalePerSet == 10.0 * 4.0 / 2)
  }

  test("piOf counts only sets with the matching tag") {
    val c = mk(4, Array(1.0, 1.0), Seq((0, Seq(0)), (1, Seq(0)), (0, Seq(1))))
    val scale = c.scalePerSet
    assert(c.piOf(0, Seq(0)) == scale)       // only the tag-0 set {0}
    assert(c.piOf(1, Seq(0)) == scale)       // only the tag-1 set {0}
    assert(c.piOf(0, Seq(0, 1)) == 2 * scale)
    assert(c.piOf(1, Seq(1)) == 0.0)
  }

  test("piOf counts each covered set once (union semantics)") {
    val c = mk(4, Array(1.0), Seq((0, Seq(0, 1, 2))))
    assert(c.piOf(0, Seq(0, 1, 2)) == c.scalePerSet)
  }

  test("singletonCount and sigmaSingleton") {
    val c = mk(4, Array(2.0), Seq((0, Seq(0)), (0, Seq(0, 1)), (0, Seq(2))))
    assert(c.singletonCount(0, 0) == 2)
    assert(c.singletonCount(1, 0) == 1)
    assert(c.singletonCount(3, 0) == 0)
    // σ̂(0) = scale·cnt/cpe = (4·2/3)·2/2
    assert(math.abs(c.sigmaSingleton(0, 0) - (4.0 * 2 / 3) * 2 / 2.0) < 1e-12)
  }

  test("session gain equals uncovered count times scale") {
    val c = mk(4, Array(1.0), Seq((0, Seq(0, 1)), (0, Seq(1)), (0, Seq(2))))
    val s = c.newSession()
    assert(s.gain(1, 0) == 2 * c.scalePerSet)
    s.add(0, 0) // covers set 0
    assert(s.gain(1, 0) == 1 * c.scalePerSet) // set 0 now covered
    assert(s.pi(0) == c.scalePerSet)
    s.add(1, 0)
    assert(s.pi(0) == 2 * c.scalePerSet)
    assert(s.gain(2, 0) == c.scalePerSet)
  }

  test("session matches from-scratch piOf on random adds") {
    val rng = new java.util.SplittableRandom(5)
    val sets = Seq.fill(50)((rng.nextInt(2), Seq.fill(1 + rng.nextInt(4))(rng.nextInt(8))))
    val c = mk(8, Array(1.5, 0.5), sets)
    val s = c.newSession()
    val chosen = Array.fill(2)(List.empty[Int])
    for (_ <- 0 until 10) {
      val i = rng.nextInt(2); val u = rng.nextInt(8)
      s.add(u, i)
      chosen(i) ::= u
      assert(math.abs(s.pi(i) - c.piOf(i, chosen(i))) < 1e-9)
    }
  }

  test("session gain is non-increasing (lazy-heap precondition)") {
    val rng = new java.util.SplittableRandom(9)
    val sets = Seq.fill(80)((0, Seq.fill(1 + rng.nextInt(5))(rng.nextInt(10))))
    val c = mk(10, Array(1.0), sets)
    val s = c.newSession()
    val before = Array.tabulate(10)(u => s.gain(u, 0))
    s.add(rng.nextInt(10), 0)
    val after = Array.tabulate(10)(u => s.gain(u, 0))
    assert((0 until 10).forall(u => after(u) <= before(u) + 1e-12))
  }

  test("addPacked equals repeated add") {
    val c1 = new RRCollection(4, Array(1.0))
    c1.addPacked(Array[Byte](0, 0), Array(2, 1), Array(0, 1, 2))
    c1.rebuildIndex()
    val c2 = mk(4, Array(1.0), Seq((0, Seq(0, 1)), (0, Seq(2))))
    assert(c1.numSets == c2.numSets)
    assert(c1.setMembers(0).toSeq == c2.setMembers(0).toSeq)
    assert(c1.piOf(0, Seq(0)) == c2.piOf(0, Seq(0)))
  }

  test("growth past initial capacity keeps contents") {
    val c = new RRCollection(3, Array(1.0))
    for (k <- 0 until 5000) TestSets.append(c, 0, Array(k % 3))
    c.rebuildIndex()
    assert(c.numSets == 5000)
    assert(c.singletonCount(0, 0) + c.singletonCount(1, 0) + c.singletonCount(2, 0) == 5000)
  }

  test("appending after index rebuild invalidates and rebuilds correctly") {
    val c = mk(3, Array(1.0), Seq((0, Seq(0))))
    assert(c.singletonCount(0, 0) == 1)
    TestSets.append(c, 0, Array(0))
    c.rebuildIndex()
    assert(c.singletonCount(0, 0) == 2)
    assert(c.scalePerSet == 3.0 / 2)
  }

  test("empty seed set has zero estimated revenue") {
    val c = mk(3, Array(1.0), Seq((0, Seq(0)), (0, Seq(1))))
    assert(c.piOf(0, Seq.empty) == 0.0)
  }

  test("piOf ignores nodes outside any set") {
    val c = mk(5, Array(1.0), Seq((0, Seq(0, 1))))
    assert(c.piOf(0, Seq(4)) == 0.0)
  }

  test("index of a multi-chunk collection built from several packed batches matches the reference") {
    val rng = new java.util.SplittableRandom(11)
    val c = new RRCollection(50, Array(1.0, 2.0, 0.5))
    for (_ <- 0 until 5) {
      val k = 30000
      val sets = Array.fill(k)(Array.fill(1 + rng.nextInt(4))(rng.nextInt(50)).distinct)
      c.addPacked(Array.fill(k)(rng.nextInt(3).toByte), sets.map(_.length), sets.flatten)
    }
    c.rebuildIndex()
    assert(c.numSets == 150000 && c.numSets > 2 * 65536)
    assert(IndexProperties.matchesNaive(c))
  }

  test("128 advertisers are rejected: the tag is a Byte") {
    val e = intercept[IllegalArgumentException](new RRCollection(4, Array.fill(128)(1.0)))
    assert(e.getMessage.contains("h must be below 128"))
    assert(new RRCollection(4, Array.fill(127)(1.0)).h == 127)
  }

  test("h·n of 2^31 is rejected: index keys are Int") {
    val e = intercept[IllegalArgumentException](new RRCollection(1 << 30, Array(1.0, 1.0)))
    assert(e.getMessage.contains("h·n = 2147483648"))
  }

  test("appends past the incidence limit fail with a message before any count wraps") {
    val c = mk(4, Array(1.0), Seq((0, Seq(0, 1))))
    // `reserve` rejects the declared size before `addPacked` checks it against the members.
    val e1 = intercept[IllegalStateException](
      c.addPacked(Array[Byte](0), Array(RRCollection.MaxArrayLength - 1), Array(0)))
    assert(e1.getMessage.contains(s"${RRCollection.MaxArrayLength.toLong + 1} incidences"))
    // These sizes sum to 2^32 - 2, which an Int total would wrap to -2.
    val e2 = intercept[IllegalStateException](
      c.addPacked(Array[Byte](0, 0), Array(Int.MaxValue, Int.MaxValue), Array(0)))
    assert(e2.getMessage.contains(s"${2L * Int.MaxValue + 2} incidences"))
    assert(c.numSets == 1 && c.totalNodes == 2 && c.singletonCount(1, 0) == 1)
  }

  test("piOf from several threads at once equals the sequential values") {
    val rng = new java.util.SplittableRandom(17)
    val n = 200; val h = 3
    val c = mk(n, Array(1.0, 2.0, 0.5), Seq.fill(20000) {
      (rng.nextInt(h), Seq.fill(1 + rng.nextInt(12))(rng.nextInt(n)).distinct)
    })
    val queries = Vector.fill(400)((rng.nextInt(h), Vector.fill(1 + rng.nextInt(30))(rng.nextInt(n))))
    val want = queries.map { case (i, xs) => c.piOf(i, xs) }
    val threads = 4
    val got = Array.ofDim[Double](threads, queries.size)
    val start = new java.util.concurrent.CountDownLatch(1)
    val workers = (0 until threads).map { t =>
      val w = new Thread(() => {
        start.await()
        // each thread walks the queries from a different offset
        for (k <- queries.indices) {
          val q = (k + t * 97) % queries.size
          got(t)(q) = c.piOf(queries(q)._1, queries(q)._2)
        }
      })
      w.start()
      w
    }
    start.countDown()
    workers.foreach(_.join())
    for (t <- 0 until threads) assert(got(t).toVector == want, s"thread $t")
  }
}
