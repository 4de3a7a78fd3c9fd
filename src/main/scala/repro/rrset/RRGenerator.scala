package repro.rrset

import java.util.SplittableRandom
import scala.reflect.ClassTag
import org.apache.spark.sql.SparkSession
import org.apache.spark.broadcast.Broadcast
import repro.graph.InfluenceModel

/** Serializable sampling state shipped to executors once per model:
  * reverse-CSR adjacency plus per-advertiser probabilities in reverse-CSR
  * position order, the cpe weights for uniform advertiser sampling, and the
  * per-(advertiser, node) max in-edge probability `pmax` used by the SUBSIM
  * subset step. That step's binomial CDF tables are built on first use, on
  * the executor, and never shipped.
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

  /** Per ad: node v's Binomial(indeg(v), pmax(v)) CDF at `revHead(v) + v`,
    * one table per distinct `maxP` array (so Weighted Cascade advertisers
    * share one). Built at the first SUBSIM set.
    */
  @transient private[rrset] lazy val binomCdf: Array[Array[Double]] = {
    val built = new java.util.IdentityHashMap[Array[Double], Array[Double]]
    maxP.map(mp => built.computeIfAbsent(mp, RRSamplerState.binomialCdfs(revHead, _)))
  }

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
    * With a non-null h·n bitset `stop`, the reverse BFS ends at the first
    * visited node u (the root included) whose bit `ad·n + u` is set; u is
    * then the last member. Until then the draws are those of the full BFS.
    *
    * `subsim = false`: per-in-edge Bernoulli flips; `picks` may be null.
    * `subsim = true`: SUBSIM's subset sampling (Guo et al., used by the
    * paper's Appendix D.2) at each node v with 0 < pmax < 0.99: draw the
    * number K ~ Binomial(indeg(v), pmax) of in-edges that are live at rate
    * pmax from v's CDF, pick K distinct in-edges uniformly (Floyd's
    * algorithm, in `picks`, from [[newPicks]]), and keep each with
    * probability p_e/pmax, without a draw when p_e == pmax (every Weighted
    * Cascade edge). Each in-edge is then live independently with
    * probability p_e, and a node costs O(1 + K) draws, not O(indeg).
    */
  def generate(ad: Int, root: Int, rng: SplittableRandom,
               queue: Array[Int], stamp: Array[Int], cur: Int,
               subsim: Boolean, stop: Array[Long], picks: RRSamplerState.Picks): Int = {
    val probs = probRev(ad)
    val mp = maxP(ad)
    val cdf = if (subsim) binomCdf(ad) else null
    val base = ad.toLong * n
    var head = 0
    var tail = 0
    queue(tail) = root; tail += 1
    stamp(root) = cur
    if (stop != null && RRSamplerState.hit(stop, base + root)) return tail
    while (head < tail) {
      val v = queue(head); head += 1
      val begin = revHead(v)
      val end = revHead(v + 1)
      if (!subsim || mp(v) >= RRSamplerState.FlipAt) {
        var p = begin
        while (p < end) {
          val pe = probs(p)
          if (pe > 0 && rng.nextDouble() < pe) {
            val u = revSrc(p)
            if (stamp(u) != cur) {
              stamp(u) = cur; queue(tail) = u; tail += 1
              if (stop != null && RRSamplerState.hit(stop, base + u)) return tail
            }
          }
          p += 1
        }
      } else if (mp(v) > 0) {
        val pmax = mp(v)
        val d = end - begin
        // K = min{k : x < CDF(k)}; the entry at k = d is +∞.
        val c0 = begin + v
        val x = rng.nextDouble()
        var k = 0
        while (x >= cdf(c0 + k)) k += 1
        if (k > 0) {
          picks.start()
          var j = d - k
          while (j < d) {
            val p = begin + picks.pick(j, rng)
            val pe = probs(p)
            if (pe == pmax || rng.nextDouble() * pmax < pe) {
              val u = revSrc(p)
              if (stamp(u) != cur) {
                stamp(u) = cur; queue(tail) = u; tail += 1
                if (stop != null && RRSamplerState.hit(stop, base + u)) return tail
              }
            }
            j += 1
          }
        }
      }
    }
    tail
  }

  /** Scratch for Floyd's algorithm, sized to the largest in-degree. */
  def newPicks(): RRSamplerState.Picks =
    new RRSamplerState.Picks((0 until n).iterator.map(v => revHead(v + 1) - revHead(v)).max)

  /** Sets `first until first + count` of the batch seeded `seed`, each
    * handed to `sink` as soon as it is made. Set k draws its advertiser, then
    * its root, then its reverse BFS from its own stream `stream(seed, k)`, so
    * a batch's sets do not depend on how it is cut into ranges. A sink with a
    * `stopAt` bitset gets each set cut at its first marked member.
    */
  def sample(first: Int, count: Int, seed: Long, subsim: Boolean, sink: RRSink[_]): Unit = {
    val queue = new Array[Int](n)
    val stamp = new Array[Int](n)
    val picks = if (subsim) newPicks() else null
    val stop = sink.stopAt
    var k = 0
    while (k < count) {
      val rng = RRSamplerState.stream(seed, first + k)
      val ad = sampleAd(rng)
      val root = rng.nextInt(n)
      val sz = generate(ad, root, rng, queue, stamp, k + 1, subsim, stop, picks)
      sink.add(ad, queue, sz)
      k += 1
    }
  }
}

object RRSamplerState {

  /** The random stream of set `k` of the batch seeded `seed`: a SplitMix64
    * mix of both, then `split()` for a stream gamma of its own, so the streams
    * of neighbouring sets (or seeds) do not overlap as `seed + k` would.
    */
  def stream(seed: Long, k: Int): SplittableRandom =
    new SplittableRandom(mix64(mix64(seed) + k)).split()

  private def mix64(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** SUBSIM flips each in-edge of a node whose pmax is at least this: nearly
    * every in-edge is then a candidate, so the subset step saves nothing.
    */
  final val FlipAt = 0.99

  /** Whether bit `key` of the bitset `bits` is set. */
  def hit(bits: Array[Long], key: Long): Boolean = (bits((key >>> 6).toInt) & (1L << key)) != 0

  /** Floyd's algorithm for K distinct positions of `0 until d`: after
    * `start()`, `pick(j, rng)` for j = d − K … d − 1 returns the next one.
    * `mark(q) == visit` says position q is taken at this visit; the marks
    * are cleared before the visit counter could wrap.
    */
  final class Picks(maxDeg: Int) {
    private val mark = new Array[Int](maxDeg)
    private var visit = 0

    def start(): Unit = {
      if (visit == Int.MaxValue) { java.util.Arrays.fill(mark, 0); visit = 0 }
      visit += 1
    }

    def pick(j: Int, rng: SplittableRandom): Int = {
      val t = rng.nextInt(j + 1)
      val q = if (mark(t) == visit) j else t
      mark(q) = visit
      q
    }
  }

  /** Node v's Binomial(d, pmax(v)) CDF, d = indeg(v), at `revHead(v) + v`
    * (d + 1 entries), for 0 < pmax(v) < `FlipAt`. Entry 0 is
    * exp(d·log1p(−pmax)); the pmf recurrence runs in logs, so a large d
    * cannot underflow it. Once the remaining tail is below 1e-17 (under the
    * 2⁻⁵³ grain of `nextDouble`), and always at k = d, entries are +∞, which
    * ends the scan.
    */
  private[rrset] def binomialCdfs(revHead: Array[Int], maxP: Array[Double]): Array[Double] = {
    val n = maxP.length
    val cdf = new Array[Double](revHead(n) + n)
    var v = 0
    while (v < n) {
      val d = revHead(v + 1) - revHead(v)
      val c0 = revHead(v) + v
      val p = maxP(v)
      var k = 0
      if (p > 0 && p < FlipAt) {
        val logOdds = math.log(p) - math.log1p(-p)
        var logPk = d * math.log1p(-p)
        var acc = 0.0
        var tail = false
        while (k < d && !tail) {
          val pk = math.exp(logPk)
          acc += pk
          cdf(c0 + k) = acc
          // Past the mode the pmf falls, so d·P(K = k) bounds the tail.
          tail = k >= d * p && d * pk < 1e-17
          logPk += math.log((d - k).toDouble / (k + 1)) + logOdds
          k += 1
        }
      }
      while (k <= d) { cdf(c0 + k) = Double.PositiveInfinity; k += 1 }
      v += 1
    }
    cdf
  }

  /** Advertisers whose `model.prob(i)` is the same array share one
    * reverse-CSR probability array and one `maxP` table (Weighted Cascade
    * gives every advertiser the same array).
    */
  def apply(model: InfluenceModel, cpe: Array[Double]): RRSamplerState = {
    val g = model.graph
    val h = cpe.length
    val built = new java.util.IdentityHashMap[Array[Double], (Array[Double], Array[Double])]
    val tables = Array.tabulate(h)(i => built.computeIfAbsent(model.prob(i), byEdge => {
      val rev = new Array[Double](g.m)
      var p = 0
      while (p < g.m) { rev(p) = byEdge(g.revEdge(p)); p += 1 }
      val mp = new Array[Double](g.n)
      var v = 0
      while (v < g.n) {
        p = g.revHead(v)
        var mx = 0.0
        while (p < g.revHead(v + 1)) { if (rev(p) > mx) mx = rev(p); p += 1 }
        mp(v) = mx
        v += 1
      }
      (rev, mp)
    }))
    val cum = new Array[Double](h)
    var acc = 0.0
    var i = 0
    while (i < h) { acc += cpe(i); cum(i) = acc; i += 1 }
    new RRSamplerState(g.n, g.revHead, g.revSrc, tables.map(_._1), cum, tables.map(_._2))
  }
}

/** Consumer of one sampling task's RR sets, fed in generation order. A set's
  * members are `members(0 until size)`, valid only during the call; `result`
  * is what the task returns to the driver. A sink that only asks whether a
  * set meets an allocation sets `stopAt` to the allocation's h·n bitset; its
  * sets then end at their first member in it (see [[RRSamplerState.generate]]).
  */
abstract class RRSink[T] {
  def stopAt: Array[Long] = null
  def add(tag: Int, members: Array[Int], size: Int): Unit
  def result(): T
}

/** Distributed RR-set generation: one Spark job per call. Each batch
  * `(num, seed)` is cut into one contiguous range of set indices per core;
  * each range is one task that generates its sets in one loop
  * ([[RRSamplerState.sample]]) and passes them to a per-task [[RRSink]].
  * Set k of a batch depends only on `(seed, k)`, so results depend on the
  * seed, never on the core count.
  */
final class RRSource(spark: SparkSession, model: InfluenceModel, val cpeArr: Array[Double]) {

  val n: Int = model.graph.n
  private val bc: Broadcast[RRSamplerState] =
    spark.sparkContext.broadcast(RRSamplerState(model, cpeArr))

  /** Generate every batch `(num, seed)` in one Spark job. A batch is cut into
    * `min(defaultParallelism, num/256 + 1)` contiguous ranges of its set
    * indices, one task each; `sink(state, count)` makes the consumer of one
    * range's `count` sets. Returns each task's `result()`, batch by batch in
    * range order, so every sink sees the batch's sets in index order. The
    * same batch always yields the same sets, whatever the sink.
    */
  def sample[T: ClassTag](batches: Seq[(Int, Long)], subsim: Boolean)(
      sink: (RRSamplerState, Int) => RRSink[T]): Array[T] = {
    val cores = spark.sparkContext.defaultParallelism
    val tasks = for {
      (num, seed) <- batches.toVector if num > 0
      parts = math.min(cores, num / 256 + 1)
      pid <- 0 until parts
      first = (num.toLong * pid / parts).toInt
    } yield (seed, first, (num.toLong * (pid + 1) / parts).toInt - first)
    if (tasks.isEmpty) return Array.empty[T]
    val state = bc
    spark.sparkContext
      .parallelize(tasks, tasks.length)
      .map { case (seed, first, count) =>
        val st = state.value
        val out = sink(st, count)
        st.sample(first, count, seed, subsim, out)
        out.result()
      }
      .collect()
  }

  /** Generate `num` RR sets into flat per-task batches and append them to
    * `coll` in one [[RRCollection.append]]. Each call with a distinct `seed`
    * yields fresh independent sets; the same `seed` reproduces the same sets.
    */
  def appendTo(coll: RRCollection, num: Int, seed: Long, subsim: Boolean = false): Unit =
    coll.append(sample(Seq((num, seed)), subsim)((_, count) => new RRSource.Packer(count)).toSeq)

  /** Fresh collection with `num` sets. */
  def collection(num: Int, seed: Long, subsim: Boolean = false): RRCollection = {
    val c = new RRCollection(n, cpeArr)
    appendTo(c, num, seed, subsim)
    c
  }

  /** Scores `alloc` on the sets `batches` generate, without storing them.
    * `covered(i)` counts the tag-i sets that contain a node of `alloc(i)`:
    * the covered count behind `RRCollection.piOf(i, alloc(i))` on a
    * collection appended from the same batches. Each task cuts a set's
    * reverse BFS at its first node in a broadcast h·n bitset of `alloc` and
    * returns h counts; `members` is how many set members were generated.
    */
  def coverage(alloc: IndexedSeq[Iterable[Int]], batches: Seq[(Int, Long)], subsim: Boolean): RRSource.Coverage = {
    val h = cpeArr.length
    require(alloc.length == h, s"${alloc.length} seed sets for $h advertisers")
    val bits = new Array[Long](((h.toLong * n + 63) >>> 6).toInt)
    for (i <- 0 until h; u <- alloc(i)) {
      val key = i.toLong * n + u
      bits((key >>> 6).toInt) |= 1L << key
    }
    val seeds = spark.sparkContext.broadcast(bits)
    try {
      val perTask = sample(batches, subsim)((st, _) => new RRSource.Coverer(st.h, st.n, seeds.value))
      val total = new Array[Long](h)
      for ((c, _) <- perTask; i <- 0 until h) total(i) += c(i)
      RRSource.Coverage(total, perTask.iterator.map(_._2).sum)
    } finally seeds.destroy()
  }
}

object RRSource {

  /** [[RRSource.coverage]]'s answer: covered sets per advertiser, and the set
    * members generated to find them.
    */
  final case class Coverage(covered: Array[Long], members: Long)

  /** Packs a task's sets into per-set tags and sizes plus concatenated members. */
  private final class Packer(count: Int) extends RRSink[(Array[Byte], Array[Int], Array[Int])] {
    private val tags = new Array[Byte](count)
    private val sizes = new Array[Int](count)
    private var nodes = new Array[Int](math.max(1024, count))
    private var len = 0
    private var k = 0

    def add(tag: Int, members: Array[Int], size: Int): Unit = {
      if (len + size > nodes.length) {
        var cap = nodes.length
        while (cap < len + size) cap *= 2
        nodes = java.util.Arrays.copyOf(nodes, cap)
      }
      System.arraycopy(members, 0, nodes, len, size)
      len += size
      tags(k) = tag.toByte
      sizes(k) = size
      k += 1
    }

    def result(): (Array[Byte], Array[Int], Array[Int]) = (tags, sizes, java.util.Arrays.copyOf(nodes, len))
  }

  /** Counts, per tag, the sets that meet `seeds`: a set cut at its first
    * marked member ends with it, and a set that ends unmarked meets none.
    */
  private final class Coverer(h: Int, n: Int, seeds: Array[Long]) extends RRSink[(Array[Long], Long)] {
    private val covered = new Array[Long](h)
    private var members = 0L

    override def stopAt: Array[Long] = seeds

    def add(tag: Int, set: Array[Int], size: Int): Unit = {
      if (RRSamplerState.hit(seeds, tag.toLong * n + set(size - 1))) covered(tag) += 1
      members += size
    }

    def result(): (Array[Long], Long) = (covered, members)
  }
}
