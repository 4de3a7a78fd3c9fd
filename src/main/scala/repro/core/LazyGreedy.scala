package repro.core

import java.util.concurrent.CancellationException
import java.util.concurrent.atomic.AtomicBoolean

/** The lazy greedy loop (CELF, Leskovec et al., KDD 2007) that Greedy,
  * ThresholdGreedy's threshold phase, Fill and TI-CARM/TI-CSRM run, and the
  * tests' CA/CS-Greedy.
  *
  * A heap key is a marginal gain or rate cached when the element was pushed.
  * Keys only decrease as the allocation grows, so a cached key bounds the
  * fresh one from above, and an element whose fresh key still reaches the
  * next top is the true maximum.
  */
object LazyGreedy {

  /** Pop the top element and recompute its key with `key`. If the fresh key is
    * below the next top by more than 1e-12, re-push the element with it;
    * otherwise call `take(element, freshKey)`, which returns whether to go
    * on. Ends when the heap is empty or `take` returns false, and throws a
    * `CancellationException` at the first pop after `cancelled` is set.
    */
  def run(heap: DoubleIntHeap, cancelled: AtomicBoolean, key: Int => Double)
         (take: (Int, Double) => Boolean): Unit = {
    var go = true
    while (go && heap.nonEmpty) {
      checkCancelled(cancelled)
      val e = heap.topElem
      heap.removeTop()
      val k = key(e)
      if (heap.nonEmpty && k < heap.topKey - 1e-12) heap.push(k, e)
      else go = take(e, k)
    }
  }

  /** The flag of runs nobody cancels. */
  private[repro] val NeverCancelled = new AtomicBoolean(false)

  private[core] def checkCancelled(cancelled: AtomicBoolean): Unit =
    if (cancelled.get()) throw new CancellationException("lazy greedy run cancelled")
}
