package repro.core

import org.scalatest.funsuite.AnyFunSuite
import java.util.SplittableRandom

class DoubleIntHeapSpec extends AnyFunSuite {

  test("empty heap reports empty") {
    val h = new DoubleIntHeap(0)
    assert(h.isEmpty); assert(!h.nonEmpty); assert(h.size == 0)
  }

  test("single push/pop") {
    val h = new DoubleIntHeap(1)
    h.push(3.5, 7)
    assert(h.nonEmpty && h.topKey == 3.5 && h.topElem == 7)
    h.removeTop()
    assert(h.isEmpty)
  }

  test("pops in descending key order") {
    val keys = Seq(5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0)
    val h = new DoubleIntHeap(keys.size)
    keys.zipWithIndex.foreach { case (k, i) => h.push(k, i) }
    val out = Iterator.continually { val k = h.topKey; h.removeTop(); k }
      .take(keys.size).toSeq
    assert(out == keys.sorted.reverse)
  }

  test("duplicate keys all retained") {
    val h = new DoubleIntHeap(5)
    (0 until 5).foreach(i => h.push(1.0, i))
    assert(h.size == 5)
    val elems = Iterator.continually { val e = h.topElem; h.removeTop(); e }.take(5).toSet
    assert(elems == Set(0, 1, 2, 3, 4))
  }

  test("interleaved push/pop keeps max property") {
    val h = new DoubleIntHeap(3)
    h.push(5, 5); h.push(2, 2)
    assert(h.topKey == 5.0); h.removeTop()
    h.push(9, 9); h.push(1, 1)
    assert(h.topKey == 9.0); h.removeTop()
    assert(h.topKey == 2.0)
  }

  test("property: heap sort equals sorted sequence (100 random lists)") {
    val rng = new SplittableRandom(1)
    for (_ <- 0 until 100) {
      val xs = List.fill(rng.nextInt(50))(rng.nextDouble() * 2e6 - 1e6)
      val h = new DoubleIntHeap(xs.size)
      xs.zipWithIndex.foreach { case (k, i) => h.push(k, i) }
      val out = Iterator.continually { val k = h.topKey; h.removeTop(); k }
        .take(xs.size).toList
      assert(out == xs.sorted.reverse)
    }
  }

  test("negative keys supported") {
    val h = new DoubleIntHeap(3)
    h.push(-5, 0); h.push(-1, 1); h.push(-3, 2)
    assert(h.topKey == -1.0)
  }

  private def drain(h: DoubleIntHeap): List[(Double, Int)] =
    List.fill(h.size) { val p = (h.topKey, h.topElem); h.removeTop(); p }

  /** A heap sized to `elems`, built by pushing the kept pairs one by one. */
  private def pushed(elems: IndexedSeq[Int], keep: Int => Boolean, key: Int => Double): DoubleIntHeap = {
    val h = new DoubleIntHeap(elems.size)
    elems.foreach(e => if (keep(e)) h.push(key(e), e))
    h
  }

  test("of holds exactly the kept elements, sized to elems") {
    val elems = Vector(9, 4, 7, 1, 12, 3)
    val h = DoubleIntHeap.of(elems)(_ % 3 != 0, _ * 0.5)
    assert(drain(h) == List((3.5, 7), (2.0, 4), (0.5, 1)))
    // Capacity is elems.size, not the kept count: three more pushes fit, a
    // fourth does not.
    val c = DoubleIntHeap.of(elems)(_ % 3 != 0, _ * 0.5)
    (0 until 3).foreach(c.push(1.0, _))
    assert(c.size == elems.size)
    assertThrows[ArrayIndexOutOfBoundsException](c.push(1.0, 99))
  }

  test("of pops equal keys in the order of one-by-one pushes") {
    val rng = new SplittableRandom(3)
    val elems = (0 until 500).map(_ => rng.nextInt(10_000))
    val keys = elems.map(e => e -> (rng.nextInt(4) * 0.25)).toMap
    val of = drain(DoubleIntHeap.of(elems)(_ => true, keys))
    assert(of == drain(pushed(elems, _ => true, keys)))
    assert(of.map(_._1).distinct.size == 4) // many ties per key
  }

  test("of under a TI-CARM-like filter pops in the order of one-by-one pushes") {
    // Elements i·n + u; an assigned node or terminated advertiser is dead,
    // and under TI-CSRM a zero-gain element is left out.
    val n = 40; val h = 5
    val rng = new SplittableRandom(5)
    val assigned = Array.fill(n)(rng.nextInt(4) == 0)
    val terminated = Array.tabulate(h)(_ == 2)
    val gain = Array.fill(n * h)(rng.nextInt(3).toDouble)
    val keep: Int => Boolean = e => !terminated(e / n) && !assigned(e % n) && gain(e) > 0
    val of = DoubleIntHeap.of(0 until n * h)(keep, gain)
    assert(of.size == (0 until n * h).count(keep))
    assert(drain(of) == drain(pushed(0 until n * h, keep, gain)))
  }
}
