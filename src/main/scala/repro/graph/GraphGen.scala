package repro.graph

import org.apache.spark.sql.SparkSession
import scala.util.hashing.MurmurHash3

/** Synthetic social-network generation.
  *
  * The paper evaluates on Flixster / LastFM / DBLP / LiveJournal. Those
  * datasets (and the action logs used to learn TIC probabilities) are not
  * available offline, so we generate heavy-tailed directed graphs of
  * comparable *relative* structure at reduced scale — see DESIGN.md §3 for
  * the substitution argument. Generation is deterministic in `seed`: the
  * candidate arcs are cut into a fixed number of index ranges, each range
  * draws from its own streams seeded from `seed` and the range index, and the
  * arcs are de-duplicated into a sorted canonical set. The ranges and streams
  * are those of Spark's `rand(seed)` over `spark.range(0, raw, 1, 64)`, which
  * the datasets were first generated with; every benchmark input and Table 1
  * rest on these exact graphs, and `GraphGenSpec` pins each dataset's arc
  * count and checksum.
  */
object GraphGen {

  /** A synthetic stand-in for one of the paper's datasets.
    *
    * @param name        dataset-lite name
    * @param n           number of nodes
    * @param targetArcs  requested number of directed arcs before dedup
    *                    (the realised count is slightly lower and printed in
    *                    the Table 1 bench)
    * @param zipfAlpha   skew of the degree distribution
    * @param undirected  DBLP is undirected: each generated pair is emitted in
    *                    both directions
    * @param paperNodes/paperEdges/paperType  the original dataset's stats,
    *                    reported next to ours in Table 1
    */
  final case class DatasetSpec(
      name: String,
      n: Int,
      targetArcs: Int,
      zipfAlpha: Double,
      undirected: Boolean,
      seed: Long,
      paperNodes: String,
      paperEdges: String,
      paperType: String,
  )

  /** lastfm-lite keeps the original LastFM scale (it is tiny). */
  val Lastfm: DatasetSpec =
    DatasetSpec("lastfm-lite", 1300, 14700, 0.85, undirected = false, seed = 11L,
      paperNodes = "1.3K", paperEdges = "14.7K", paperType = "directed")

  /** flixster-lite is Flixster scaled ~10x down (30K/425K -> 3K/42.5K). */
  val Flixster: DatasetSpec =
    DatasetSpec("flixster-lite", 3000, 42500, 0.9, undirected = false, seed = 12L,
      paperNodes = "30K", paperEdges = "425K", paperType = "directed")

  /** dblp-lite is DBLP scaled ~30x down (317K/1.05M -> 10K/33K undirected pairs). */
  val Dblp: DatasetSpec =
    DatasetSpec("dblp-lite", 10000, 33000, 0.8, undirected = true, seed = 13L,
      paperNodes = "317K", paperEdges = "1.05M", paperType = "undirected")

  /** livejournal-lite is LiveJournal scaled ~120x down (4.8M/69M -> 40K/575K). */
  val LiveJournal: DatasetSpec =
    DatasetSpec("livejournal-lite", 40000, 575000, 0.9, undirected = false, seed = 14L,
      paperNodes = "4.8M", paperEdges = "69M", paperType = "directed")

  val AllDatasets: Seq[DatasetSpec] = Seq(Lastfm, Flixster, Dblp, LiveJournal)

  /** Ranges the candidate arcs are drawn in, each from its own two streams. */
  private val Ranges = 64

  /** Spark's `XORShiftRandom` (the generator behind `rand(seed)`): its seed
    * hash, xorshift step and `java.util.Random`'s `nextDouble`.
    */
  private final class XorShift(init: Long) {
    private var s: Long = {
      val bytes = java.nio.ByteBuffer.allocate(8).putLong(init).array()
      val lo = MurmurHash3.bytesHash(bytes, MurmurHash3.arraySeed)
      val hi = MurmurHash3.bytesHash(bytes, lo)
      (hi.toLong << 32) | (lo.toLong & 0xFFFFFFFFL)
    }
    private def next(bits: Int): Int = {
      s ^= s << 21; s ^= s >>> 35; s ^= s << 4
      (s & ((1L << bits) - 1)).toInt
    }
    def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) / (1L << 53).toDouble
  }

  /** `count` packed `(src << 32) | dst` arcs from `a`, sorted and deduplicated. */
  private def sortedDistinct(a: Array[Long], count: Int): Array[Long] = {
    java.util.Arrays.sort(a, 0, count)
    var k = 0
    var i = 0
    while (i < count) {
      if (k == 0 || a(i) != a(k - 1)) { a(k) = a(i); k += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(a, k)
  }

  /** The arcs of `spec` as sorted, distinct, packed `(src << 32) | dst` longs.
    *
    * Candidate arc j (of `raw`) belongs to the range p with
    * `p·raw/64 ≤ j < (p+1)·raw/64`, which draws its source rank from
    * `XorShift(seed + p)` and its destination rank from
    * `XorShift(seed + 1 + p)`.
    */
  private def arcs(spec: DatasetSpec): Array[Long] = {
    // Oversample by 30% so the deduplicated count lands near targetArcs.
    val raw = (spec.targetArcs * 1.3).toLong
    val n = spec.n
    // Continuous approximation of the inverse CDF of a zipf(alpha) rank
    // distribution on [1, n]: k ~ ((1-u) + u*n^(1-alpha))^(1/(1-alpha)).
    // Rank 0 is the heaviest node.
    val oneMinus = 1.0 - spec.zipfAlpha
    val top = math.pow(n.toDouble, oneMinus)
    def rank(u: Double): Int =
      math.min(n - 1, math.max(0, (StrictMath.pow(1.0 - u + u * top, 1.0 / oneMinus) - 1.0).toInt))
    // dst ranks are decorrelated from src ranks by a deterministic affine
    // permutation so hubs differ between the two.
    val prime = 479001599L % n
    val packed = new Array[Long](raw.toInt)
    var k = 0
    for (p <- 0 until Ranges) {
      val srcRng = new XorShift(spec.seed + p)
      val dstRng = new XorShift(spec.seed + 1 + p)
      var j = p * raw / Ranges
      while (j < (p + 1) * raw / Ranges) {
        val s = rank(srcRng.nextDouble())
        val d = ((rank(dstRng.nextDouble()).toLong * prime + 7L) % n).toInt
        if (s != d) {
          // DBLP is undirected: canonicalise each pair to (min, max).
          packed(k) = if (spec.undirected) pack(math.min(s, d), math.max(s, d)) else pack(s, d)
          k += 1
        }
        j += 1
      }
    }
    val uniq = sortedDistinct(packed, k)
    if (!spec.undirected) uniq
    else {
      // Emit both directions of every pair.
      val both = uniq ++ uniq.map(a => pack(dstOf(a), srcOf(a)))
      java.util.Arrays.sort(both)
      both
    }
  }

  private def pack(s: Int, d: Int): Long = (s.toLong << 32) | d
  private def srcOf(a: Long): Int = (a >>> 32).toInt
  private def dstOf(a: Long): Int = a.toInt

  private val cache = scala.collection.concurrent.TrieMap.empty[String, SocialGraph]

  /** Materialised `SocialGraph` for `spec`, its arcs in (src, dst) order
    * (cached per JVM — generation is deterministic so the cache is sound).
    * The graph is built in this JVM without Spark; `spark` is not used.
    */
  def graph(spark: SparkSession, spec: DatasetSpec): SocialGraph =
    cache.getOrElseUpdate(spec.name, {
      val a = arcs(spec)
      new SocialGraph(spec.n, a.map(srcOf), a.map(dstOf))
    })
}
