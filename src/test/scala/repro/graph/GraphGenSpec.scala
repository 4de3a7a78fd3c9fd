package repro.graph

import repro.SparkSpec

class GraphGenSpec extends SparkSpec {

  test("dataset specs carry the paper's Table 1 identities") {
    val names = GraphGen.AllDatasets.map(_.name)
    assert(names == Seq("lastfm-lite", "flixster-lite", "dblp-lite", "livejournal-lite"))
    assert(GraphGen.Dblp.paperType == "undirected")
    assert(GraphGen.LiveJournal.paperEdges == "69M")
  }

  test("lastfm-lite has the paper's full scale (1.3K nodes, ~14.7K arcs)") {
    val g = GraphGen.graph(spark, GraphGen.Lastfm)
    assert(g.n == 1300)
    assert(g.m > 10000 && g.m < 16000, s"m=${g.m}")
  }

  test("flixster-lite lands near its target arc count") {
    val g = GraphGen.graph(spark, GraphGen.Flixster)
    assert(g.n == 3000)
    assert(g.m > 30000 && g.m < 47000, s"m=${g.m}")
  }

  test("no self-loops in generated graphs") {
    val g = GraphGen.graph(spark, GraphGen.Lastfm)
    assert((0 until g.m).forall(e => g.src(e) != g.dst(e)))
  }

  test("no duplicate arcs in generated graphs") {
    val g = GraphGen.graph(spark, GraphGen.Lastfm)
    val set = (0 until g.m).map(e => (g.src(e), g.dst(e))).toSet
    assert(set.size == g.m)
  }

  test("pinned arc counts and (src, dst) checksums") {
    // Taken from the original spark.range/rand DataFrame generator: every
    // benchmark input and Table 1 rest on these exact graphs.
    val pins = Map(
      "lastfm-lite" -> (15892, -2119172505),
      "flixster-lite" -> (43481, 904208744),
      "dblp-lite" -> (82190, -1968611978),
      "livejournal-lite" -> (617041, -395892337))
    for (spec <- GraphGen.AllDatasets) {
      val g = GraphGen.graph(spark, spec)
      val checksum = java.util.Arrays.hashCode(g.src) * 31 + java.util.Arrays.hashCode(g.dst)
      assert((g.m, checksum) == pins(spec.name), spec.name)
    }
  }

  test("dblp-lite is symmetric (undirected as two arcs)") {
    val g = GraphGen.graph(spark, GraphGen.Dblp)
    val set = (0 until g.m).map(e => (g.src(e), g.dst(e))).toSet
    assert(set.forall { case (a, b) => set((b, a)) })
    assert(g.m % 2 == 0)
  }

  test("degree distribution is heavy-tailed: top 1% of nodes hold >10% of out-edges") {
    val g = GraphGen.graph(spark, GraphGen.Flixster)
    val outDeg = new Array[Int](g.n)
    g.src.foreach(u => outDeg(u) += 1)
    val degs = outDeg.sorted.reverse
    val top = degs.take(g.n / 100).map(_.toLong).sum
    assert(top.toDouble / g.m > 0.10, s"top1% share=${top.toDouble / g.m}")
  }

  test("edge endpoints are in range") {
    val g = GraphGen.graph(spark, GraphGen.Lastfm)
    assert((0 until g.m).forall(e =>
      g.src(e) >= 0 && g.src(e) < g.n && g.dst(e) >= 0 && g.dst(e) < g.n))
  }

  test("arc count agrees across src, dst and the reverse CSR") {
    val g = GraphGen.graph(spark, GraphGen.Lastfm)
    assert(g.src.length == g.m && g.dst.length == g.m)
    assert(g.revHead(g.n) == g.m && (0 until g.n).map(g.inDegree).sum == g.m)
  }

  test("distinct node count agrees with the CSR's degrees") {
    val g = GraphGen.graph(spark, GraphGen.Lastfm)
    val hasOut = new Array[Boolean](g.n)
    g.src.foreach(hasOut(_) = true)
    val touched = (0 until g.n).count(v => hasOut(v) || g.inDegree(v) > 0)
    assert((g.src ++ g.dst).distinct.length == touched)
  }

  test("livejournal-lite scale (generation only — used by scalability substrate)") {
    val spec = GraphGen.LiveJournal
    assert(spec.n == 40000 && spec.targetArcs == 575000)
  }
}
