package repro.core

/** Array-backed binary max-heap of (Double key, Int element) pairs.
  *
  * Used as a *lazy* heap by every greedy algorithm here: cached keys may be
  * stale (too high, never too low — marginal gains/rates only decrease).
  * [[LazyGreedy]] pops, recomputes the key, and either takes the element (if
  * still ≥ the next top) or re-pushes it with the fresh key.
  *
  * The heap holds at most `capacity` pairs and never grows:
  * [[DoubleIntHeap.of]] sizes it to its element count, and [[LazyGreedy]]
  * re-pushes only after a pop.
  */
final class DoubleIntHeap(capacity: Int) {
  private val keys = new Array[Double](capacity)
  private val elems = new Array[Int](capacity)
  private var count = 0

  def size: Int = count
  def isEmpty: Boolean = count == 0
  def nonEmpty: Boolean = count > 0

  /** Key at the top (undefined when empty). */
  def topKey: Double = keys(0)

  /** Element at the top (undefined when empty). */
  def topElem: Int = elems(0)

  def push(key: Double, elem: Int): Unit = {
    var i = count
    count += 1
    while (i > 0 && keys((i - 1) / 2) < key) {
      keys(i) = keys((i - 1) / 2); elems(i) = elems((i - 1) / 2)
      i = (i - 1) / 2
    }
    keys(i) = key; elems(i) = elem
  }

  /** Remove the top pair. Call `topKey`/`topElem` first. */
  def removeTop(): Unit = {
    count -= 1
    val k = keys(count); val e = elems(count)
    var i = 0
    var done = false
    while (!done) {
      val l = 2 * i + 1; val r = l + 1
      var big = i
      var bigK = k
      if (l < count && keys(l) > bigK) { big = l; bigK = keys(l) }
      if (r < count && keys(r) > bigK) { big = r; bigK = keys(r) }
      if (big == i) done = true
      else { keys(i) = keys(big); elems(i) = elems(big); i = big }
    }
    keys(i) = k; elems(i) = e
  }
}

object DoubleIntHeap {

  /** The heap every lazy greedy run starts from: sized to `elems`, holding
    * each element `e` with `keep(e)` under `key(e)`. Elements are pushed in
    * `elems` order; that order fixes the heap layout, and so which of two
    * equal keys pops first.
    */
  def of(elems: IndexedSeq[Int])(keep: Int => Boolean, key: Int => Double): DoubleIntHeap = {
    val heap = new DoubleIntHeap(elems.size)
    var j = 0
    while (j < elems.size) {
      val e = elems(j)
      if (keep(e)) heap.push(key(e), e)
      j += 1
    }
    heap
  }
}
