package repro.core

/** Array-backed binary max-heap of (Double key, Int element) pairs.
  *
  * Used as a *lazy* heap by every greedy algorithm here: cached keys may be
  * stale (too high, never too low — marginal gains/rates only decrease).
  * [[LazyGreedy]] pops, recomputes the key, and either takes the element (if
  * still ≥ the next top) or re-pushes it with the fresh key; `TICARM`'s
  * per-advertiser heaps refresh their tops in place.
  */
final class DoubleIntHeap(initialCapacity: Int = 64) {
  private var keys = new Array[Double](math.max(4, initialCapacity))
  private var elems = new Array[Int](math.max(4, initialCapacity))
  private var count = 0

  def size: Int = count
  def isEmpty: Boolean = count == 0
  def nonEmpty: Boolean = count > 0

  /** Key at the top (undefined when empty). */
  def topKey: Double = keys(0)

  /** Element at the top (undefined when empty). */
  def topElem: Int = elems(0)

  def push(key: Double, elem: Int): Unit = {
    if (count == keys.length) {
      keys = java.util.Arrays.copyOf(keys, count * 2)
      elems = java.util.Arrays.copyOf(elems, count * 2)
    }
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

  def clear(): Unit = count = 0

  /** An independent heap with the same pairs in the same array layout, so
    * equal keys pop in the same order from both.
    */
  def copy(): DoubleIntHeap = {
    val c = new DoubleIntHeap(keys.length)
    System.arraycopy(keys, 0, c.keys, 0, count)
    System.arraycopy(elems, 0, c.elems, 0, count)
    c.count = count
    c
  }
}
