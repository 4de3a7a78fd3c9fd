package repro.core

import java.util.concurrent.CancellationException
import java.util.concurrent.atomic.AtomicBoolean
import org.scalatest.funsuite.AnyFunSuite

class LazyGreedySpec extends AnyFunSuite {

  private def heapOf(pairs: (Double, Int)*): DoubleIntHeap = {
    val h = new DoubleIntHeap()
    pairs.foreach { case (k, e) => h.push(k, e) }
    h
  }

  test("a stale top is re-pushed with its fresh key; elements are taken by fresh key") {
    // Cached keys 5, 4, 3; element 0's fresh key is 1, the others' are exact.
    val fresh = Map(0 -> 1.0, 1 -> 4.0, 2 -> 3.0)
    val evaluated = Vector.newBuilder[Int]
    val taken = Vector.newBuilder[(Int, Double)]
    LazyGreedy.run(heapOf(5.0 -> 0, 4.0 -> 1, 3.0 -> 2), LazyGreedy.NeverCancelled,
                   { e => evaluated += e; fresh(e) }) { (e, k) => taken += ((e, k)); true }
    assert(taken.result() == Vector((1, 4.0), (2, 3.0), (0, 1.0)))
    assert(evaluated.result() == Vector(0, 1, 2, 0))
  }

  test("a fresh key within 1e-12 of the next top is taken, not re-pushed") {
    val taken = Vector.newBuilder[Int]
    LazyGreedy.run(heapOf(2.0 -> 7, 1.0 -> 8), LazyGreedy.NeverCancelled,
                   e => if (e == 7) 1.0 - 5e-13 else 1.0) { (e, _) => taken += e; true }
    assert(taken.result() == Vector(7, 8))
  }

  test("take returning false ends the run and leaves the rest in the heap") {
    // Every fresh key is 0.5: elements 0 and 1 are re-pushed, 2 is taken.
    val heap = heapOf(3.0 -> 0, 2.0 -> 1, 1.0 -> 2)
    val taken = Vector.newBuilder[Int]
    LazyGreedy.run(heap, LazyGreedy.NeverCancelled, _ => 0.5) { (e, _) => taken += e; false }
    assert(taken.result() == Vector(2))
    assert(heap.size == 2 && heap.topKey == 0.5)
  }

  test("a set flag stops the run at its next pop") {
    val flag = new AtomicBoolean(false)
    val heap = heapOf(3.0 -> 0, 2.0 -> 1, 1.0 -> 2)
    var taken = 0
    assertThrows[CancellationException] {
      LazyGreedy.run(heap, flag, e => 3.0 - e) { (_, _) => taken += 1; flag.set(true); true }
    }
    assert(taken == 1 && heap.size == 2)
  }
}
