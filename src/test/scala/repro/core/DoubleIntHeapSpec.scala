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
}
