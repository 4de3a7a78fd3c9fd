package repro.graph

/** Compact in-memory directed social graph with a reverse CSR adjacency.
  *
  * Nodes are `0 until n`. Edges are stored once in "edge-id order"
  * (`src(e)`, `dst(e)` for `e in 0 until m`); the reverse CSR view carries the
  * original edge id at each position so that per-advertiser edge-probability
  * arrays (indexed by edge id) can be read through it.
  *
  * The reverse CSR is what Reverse-Reachable-set generation walks (all
  * in-neighbours of a node).
  */
final class SocialGraph(
    val n: Int,
    val src: Array[Int],
    val dst: Array[Int],
) extends Serializable {

  /** Number of directed edges. */
  val m: Int = src.length

  /** Reverse CSR: in-edges of `v` are positions `revHead(v) until revHead(v+1)`. */
  val revHead: Array[Int] = new Array[Int](n + 1)
  /** Source node of the in-edge at reverse-CSR position `p`. */
  val revSrc: Array[Int] = new Array[Int](m)
  /** Original edge id of the in-edge at reverse-CSR position `p`. */
  val revEdge: Array[Int] = new Array[Int](m)

  locally {
    var e = 0
    while (e < m) { revHead(dst(e) + 1) += 1; e += 1 }
    var v = 0
    while (v < n) { revHead(v + 1) += revHead(v); v += 1 }
    val rPos = java.util.Arrays.copyOf(revHead, n)
    e = 0
    while (e < m) {
      val d = dst(e)
      revSrc(rPos(d)) = src(e); revEdge(rPos(d)) = e; rPos(d) += 1
      e += 1
    }
  }

  /** In-degree of node `v`. */
  def inDegree(v: Int): Int = revHead(v + 1) - revHead(v)
}

object SocialGraph {

  /** Build directly from in-memory pairs (tests). Edge order is canonicalised
    * (sorted by (src,dst)), so the same pairs in any order give the same graph.
    */
  def fromPairs(n: Int, pairs: Seq[(Int, Int)]): SocialGraph = {
    val sorted = pairs.sorted
    new SocialGraph(n, sorted.map(_._1).toArray, sorted.map(_._2).toArray)
  }
}
