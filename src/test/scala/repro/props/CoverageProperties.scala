package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.core.DoubleIntHeap
import repro.rrset.{RRCollection, TestSets}

/** ScalaCheck property suites (run by sbt's ScalaCheck framework) for the
  * low-level engines whose invariants every greedy algorithm relies on.
  */
object HeapProperties extends Properties("DoubleIntHeap") {

  property("popAll == sorted desc") = Prop.forAll(Gen.listOf(Gen.chooseNum(-1e9, 1e9))) { xs =>
    val h = new DoubleIntHeap()
    xs.zipWithIndex.foreach { case (k, i) => h.push(k, i) }
    val out = List.fill(xs.size) { val k = h.topKey; h.removeTop(); k }
    out == xs.sorted.reverse
  }

  property("size tracks pushes and pops") = Prop.forAll(Gen.chooseNum(0, 200)) { n =>
    val h = new DoubleIntHeap()
    (0 until n).foreach(i => h.push(i.toDouble, i))
    val drop = n / 2
    (0 until drop).foreach(_ => h.removeTop())
    h.size == n - drop
  }
}

object CoverageProperties extends Properties("RRCollection") {

  private val genSets: Gen[List[(Int, List[Int])]] =
    Gen.listOfN(40, for {
      tag <- Gen.chooseNum(0, 1)
      ms <- Gen.nonEmptyListOf(Gen.chooseNum(0, 9))
    } yield (tag, ms.distinct))

  private def build(sets: List[(Int, List[Int])]): RRCollection =
    TestSets.collection(10, Array(1.0, 2.0), sets)

  property("piOf is monotone in the seed set") =
    Prop.forAll(genSets, Gen.listOf(Gen.chooseNum(0, 9)), Gen.chooseNum(0, 9)) {
      (sets, xs, extra) =>
        sets.nonEmpty ==> {
          val c = build(sets)
          c.piOf(0, (xs :+ extra).distinct) >= c.piOf(0, xs.distinct) - 1e-9
        }
    }

  property("piOf is submodular") =
    Prop.forAll(genSets, Gen.listOf(Gen.chooseNum(0, 9)),
      Gen.listOf(Gen.chooseNum(0, 9)), Gen.chooseNum(0, 9)) { (sets, a, b, x) =>
      sets.nonEmpty ==> {
        val c = build(sets)
        val small = a.distinct
        val big = (a ++ b).distinct
        val gS = c.piOf(1, (small :+ x).distinct) - c.piOf(1, small)
        val gB = c.piOf(1, (big :+ x).distinct) - c.piOf(1, big)
        gB <= gS + 1e-9
      }
    }

  property("session pi equals piOf of the added prefix") =
    Prop.forAll(genSets, Gen.listOfN(6, Gen.chooseNum(0, 9))) { (sets, adds) =>
      sets.nonEmpty ==> {
        val c = build(sets)
        val s = c.newSession()
        var acc = List.empty[Int]
        adds.forall { u =>
          s.add(u, 0)
          acc ::= u
          math.abs(s.pi(0) - c.piOf(0, acc)) < 1e-9
        }
      }
    }

  property("session gain equals the true marginal") =
    Prop.forAll(genSets, Gen.listOfN(4, Gen.chooseNum(0, 9)), Gen.chooseNum(0, 9)) {
      (sets, adds, probe) =>
        sets.nonEmpty ==> {
          val c = build(sets)
          val s = c.newSession()
          adds.foreach(s.add(_, 1))
          val expected = c.piOf(1, (adds :+ probe).distinct) - c.piOf(1, adds.distinct)
          math.abs(s.gain(probe, 1) - expected) < 1e-9
        }
    }
}
