package repro.graph

import repro.SparkSpec

class SocialGraphSpec extends SparkSpec {

  private val pairs = Seq((0, 1), (0, 2), (1, 2), (2, 0), (3, 2))
  private lazy val g = SocialGraph.fromPairs(4, pairs)

  test("node and edge counts") {
    assert(g.n == 4 && g.m == 5)
  }

  test("reverse CSR lists in-neighbours") {
    def ins(v: Int) = (g.revHead(v) until g.revHead(v + 1)).map(g.revSrc).toSet
    assert(ins(0) == Set(2))
    assert(ins(1) == Set(0))
    assert(ins(2) == Set(0, 1, 3))
    assert(ins(3) == Set.empty)
  }

  test("degrees match CSR") {
    assert(g.inDegree(0) == 1 && g.inDegree(2) == 3 && g.inDegree(3) == 0)
  }

  test("edge-id mapping is consistent between views") {
    // every reverse-CSR position maps back to an edge with matching endpoints
    for (v <- 0 until g.n; p <- g.revHead(v) until g.revHead(v + 1)) {
      val e = g.revEdge(p)
      assert(g.dst(e) == v && g.src(e) == g.revSrc(p))
    }
  }

  test("fromPairs canonicalises order: same graph from shuffled input") {
    val g2 = SocialGraph.fromPairs(4, pairs.reverse)
    assert(g2.src.sameElements(g.src) && g2.dst.sameElements(g.dst))
  }

  test("in-degree per node agrees with a naive count over the pairs") {
    for (v <- 0 until g.n) assert(g.inDegree(v) == pairs.count(_._2 == v), s"v=$v")
  }

  test("empty-degree nodes are representable") {
    val iso = SocialGraph.fromPairs(3, Seq((0, 1)))
    assert(iso.inDegree(2) == 0 && iso.inDegree(0) == 0 && iso.m == 1)
  }
}
