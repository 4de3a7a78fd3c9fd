package repro.rrset

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import org.apache.spark.broadcast.Broadcast
import repro.graph.InfluenceModel

/** Serializable sampling state shipped to executors once per model:
  * reverse-CSR adjacency plus per-advertiser probabilities in reverse-CSR
  * position order, the cpe weights for uniform advertiser sampling, and the
  * per-(advertiser, node) max in-edge probability used by the SUBSIM-style
  * geometric-jump sampler.
  */
final class RRSamplerState(
    val n: Int,
    val revHead: Array[Int],
    val revSrc: Array[Int],
    val probRev: Array[Array[Double]],
    val cpeCum: Array[Double], // cumulative cpe, last = Γ
    val maxP: Array[Array[Double]], // per ad: max in-edge prob per node
) extends Serializable {

  val h: Int = probRev.length

  /** Sample an advertiser with probability proportional to cpe. */
  def sampleAd(rng: SplittableRandom): Int = {
    val x = rng.nextDouble() * cpeCum(h - 1)
    var i = 0
    while (cpeCum(i) < x) i += 1
    i
  }

  /** One random RR set for advertiser `ad` rooted at `root`, written into
    * `queue` (which must have capacity n); `stamp`/`cur` implement the
    * visited set without clearing. Returns the set size.
    *
    * `subsim = false`: per-in-edge Bernoulli flips.
    * `subsim = true`: geometric-jump ("skip") sampling against the node's max
    * in-edge probability with thinning `p_e/maxP` — the SUBSIM idea of not
    * touching every in-edge when probabilities are small (Guo et al., used by
    * the paper's Appendix D.2).
    */
  def generate(ad: Int, root: Int, rng: SplittableRandom,
               queue: Array[Int], stamp: Array[Int], cur: Int,
               subsim: Boolean): Int = {
    val probs = probRev(ad)
    val mp = maxP(ad)
    var head = 0
    var tail = 0
    queue(tail) = root; tail += 1
    stamp(root) = cur
    while (head < tail) {
      val v = queue(head); head += 1
      val begin = revHead(v)
      val end = revHead(v + 1)
      if (!subsim || mp(v) >= 0.99) {
        var p = begin
        while (p < end) {
          val pe = probs(p)
          if (pe > 0 && rng.nextDouble() < pe) {
            val u = revSrc(p)
            if (stamp(u) != cur) { stamp(u) = cur; queue(tail) = u; tail += 1 }
          }
          p += 1
        }
      } else if (mp(v) > 0) {
        val pmax = mp(v)
        val logq = math.log1p(-pmax)
        var p = RRSamplerState.jump(begin, end, rng, logq)
        while (p < end) {
          val pe = probs(p)
          // thinning: candidate succeeds with pe/pmax
          if (pe > 0 && rng.nextDouble() * pmax < pe) {
            val u = revSrc(p)
            if (stamp(u) != cur) { stamp(u) = cur; queue(tail) = u; tail += 1 }
          }
          p = RRSamplerState.jump(p + 1, end, rng, logq)
        }
      }
    }
    tail
  }
}

object RRSamplerState {

  /** `from` plus a Geometric(1 - e^logq) number of failures, clamped to
    * `end`: the skip is taken in `Long`, so a tiny pmax (a skip past
    * `Int.MaxValue`) ends the scan instead of wrapping negative.
    */
  private def jump(from: Int, end: Int, rng: SplittableRandom, logq: Double): Int = {
    val skip = math.floor(math.log(rng.nextDouble()) / logq).toLong
    if (skip >= end - from) end else from + skip.toInt
  }

  /** Advertisers whose `model.prob(i)` is the same array share one
    * reverse-CSR probability array and one `maxP` table (Weighted Cascade
    * gives every advertiser the same array).
    */
  def apply(model: InfluenceModel, cpe: Array[Double]): RRSamplerState = {
    val g = model.graph
    val h = cpe.length
    val byEdge = Array.tabulate(h)(model.prob)
    val owner = Array.tabulate(h)(i => byEdge.indexWhere(_ eq byEdge(i)))
    val probRev = new Array[Array[Double]](h)
    val maxP = new Array[Array[Double]](h)
    for (i <- 0 until h) {
      if (owner(i) < i) {
        probRev(i) = probRev(owner(i))
        maxP(i) = maxP(owner(i))
      } else {
        val rev = new Array[Double](g.m)
        var p = 0
        while (p < g.m) { rev(p) = byEdge(i)(g.revEdge(p)); p += 1 }
        val mp = new Array[Double](g.n)
        var v = 0
        while (v < g.n) {
          p = g.revHead(v)
          var mx = 0.0
          while (p < g.revHead(v + 1)) { if (rev(p) > mx) mx = rev(p); p += 1 }
          mp(v) = mx
          v += 1
        }
        probRev(i) = rev
        maxP(i) = mp
      }
    }
    val cum = new Array[Double](h)
    var acc = 0.0
    var i = 0
    while (i < h) { acc += cpe(i); cum(i) = acc; i += 1 }
    new RRSamplerState(g.n, g.revHead, g.revSrc, probRev, cum, maxP)
  }
}

/** Distributed RR-set generation: `spark.range(num)` fanned out over a fixed
  * partition count, each partition packing its sets into flat arrays which the
  * driver appends to an [[RRCollection]]. Deterministic in `seed`.
  */
final class RRSource(spark: SparkSession, model: InfluenceModel,
                     val cpeArr: Array[Double], partitions: Int = 64) {

  val n: Int = model.graph.n
  private val bc: Broadcast[RRSamplerState] =
    spark.sparkContext.broadcast(RRSamplerState(model, cpeArr))

  /** Generate `num` RR sets into flat per-partition batches and append them
    * to `coll`. Each call with a distinct `seed` yields fresh independent
    * sets; the same `seed` reproduces the same sets.
    */
  def appendTo(coll: RRCollection, num: Int, seed: Long, subsim: Boolean = false): Unit = {
    if (num <= 0) return
    val parts = math.min(partitions, math.max(1, num / 256 + 1))
    val state = bc
    val batches = spark.sparkContext
      .range(0, parts, 1, parts)
      .map { pid =>
        val st = state.value
        val rng = new SplittableRandom(seed * 1000003L + pid * 7919L + 17L)
        val count = num / parts + (if (pid < num % parts) 1 else 0)
        val queue = new Array[Int](st.n)
        val stamp = new Array[Int](st.n)
        var cur = 0
        val tags = new Array[Byte](count.toInt)
        val sizes = new Array[Int](count.toInt)
        var nodesBuf = new Array[Int](math.max(1024, count.toInt))
        var nodesLen = 0
        var k = 0
        while (k < count) {
          cur += 1
          val ad = st.sampleAd(rng)
          val root = rng.nextInt(st.n)
          val sz = st.generate(ad, root, rng, queue, stamp, cur, subsim)
          if (nodesLen + sz > nodesBuf.length) {
            var cap = nodesBuf.length
            while (cap < nodesLen + sz) cap *= 2
            nodesBuf = java.util.Arrays.copyOf(nodesBuf, cap)
          }
          System.arraycopy(queue, 0, nodesBuf, nodesLen, sz)
          nodesLen += sz
          tags(k.toInt) = ad.toByte
          sizes(k.toInt) = sz
          k += 1
        }
        (tags, sizes, java.util.Arrays.copyOf(nodesBuf, nodesLen))
      }
      .collect()
    coll.reserve(num, batches.iterator.map(_._3.length.toLong).sum)
    batches.foreach { case (t, s, nd) => coll.addPacked(t, s, nd) }
    coll.rebuildIndex()
  }

  /** Fresh collection with `num` sets. */
  def collection(num: Int, seed: Long, subsim: Boolean = false): RRCollection = {
    val c = new RRCollection(n, cpeArr)
    appendTo(c, num, seed, subsim)
    c
  }
}
