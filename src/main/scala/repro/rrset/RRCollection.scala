package repro.rrset

import repro.core.{RevenueOracle, RevenueSession}
import RRCollection._

/** A collection of tagged Reverse-Reachable sets with flat int-array storage,
  * per-(advertiser, node) inverted index, and incremental coverage sessions.
  *
  * Each RR set carries the advertiser it was generated for (paper §4.2
  * *uniform sampling*: the tag is drawn with probability `cpe(i)/Γ`). The
  * unbiased estimators are
  *
  *   π̃(S⃗, R)   = nΓ · |{R : tag(R)=j ∧ S_j ∩ R ≠ ∅}| / |R|      (Lemma 4.1)
  *   π̃_i(S, R)  = nΓ · |{R : tag(R)=i ∧ S ∩ R ≠ ∅}| / |R|
  *
  * The collection is growable (RMA doubles it) and the index is rebuilt after
  * appends. With `h = 1` the same class serves as a per-advertiser collection
  * for the TIM-based baselines.
  *
  * Invariant: no RR set lists a member twice (the samplers mark visited
  * nodes), so a node's tag-i index list names distinct sets and its length
  * is the node's singleton coverage count.
  *
  * Declared limits, checked with a message before anything could wrap:
  * h < 128 (the tag is a `Byte`); h·n, the set count and the incidence count
  * within [[RRCollection.MaxArrayLength]] (index keys and offsets are `Int`).
  */
final class RRCollection(val n: Int, val cpeArr: Array[Double]) extends RevenueOracle {

  val h: Int = cpeArr.length
  require(h < 128, s"$h advertisers: an RR set's advertiser tag is a Byte, so h must be below 128")
  require(h.toLong * n < MaxArrayLength,
    s"h·n = ${h.toLong * n}: the inverted index is keyed by i·n+u in an Int array, " +
      s"so h·n must be below $MaxArrayLength")

  def cpe(i: Int): Double = cpeArr(i)

  /** Γ = Σ_i cpe(i). */
  val gamma: Double = cpeArr.sum

  // ---- flat storage -------------------------------------------------------
  private var tags: Array[Byte] = new Array[Byte](1024)
  private var starts: Array[Int] = new Array[Int](1025) // starts(numSets) = totalNodes
  private var members: Array[Int] = new Array[Int](4096)
  private var _numSets: Int = 0
  private var _totalNodes: Int = 0

  def numSets: Int = _numSets
  def totalNodes: Long = _totalNodes.toLong

  /** Revenue contribution of one covered set: `nΓ/|R|`. */
  def scalePerSet: Double = n.toDouble * gamma / _numSets

  /** Make room for `moreSets` further sets holding `moreNodes` incidences,
    * failing before any count or offset could pass the declared limits.
    */
  def reserve(moreSets: Int, moreNodes: Long): Unit = {
    val sets = _numSets.toLong + moreSets
    val nodes = _totalNodes.toLong + moreNodes
    if (sets >= MaxArrayLength)
      throw new IllegalStateException(
        s"RR collection would hold $sets sets; the limit is ${MaxArrayLength - 1}")
    if (nodes > MaxArrayLength)
      throw new IllegalStateException(
        s"RR collection would hold $nodes incidences; the limit is $MaxArrayLength")
    if (sets > tags.length) {
      val cap = grownCapacity(tags.length, sets, MaxArrayLength - 1)
      tags = java.util.Arrays.copyOf(tags, cap)
      starts = java.util.Arrays.copyOf(starts, cap + 1)
    }
    if (nodes > members.length)
      members = java.util.Arrays.copyOf(members, grownCapacity(members.length, nodes, MaxArrayLength))
  }

  /** Append a packed batch: per-set tags and sizes plus concatenated members,
    * with one bulk copy of the tags and one of the members. Invalidates the
    * index until [[rebuildIndex]].
    */
  def addPacked(batchTags: Array[Byte], sizes: Array[Int], nodes: Array[Int]): Unit = {
    val k = batchTags.length
    require(sizes.length == k, s"${sizes.length} sizes for $k tags")
    var total = 0L
    var s = 0
    while (s < k) { total += sizes(s); s += 1 }
    reserve(k, total)
    require(total == nodes.length, s"sizes sum to $total but the batch has ${nodes.length} members")
    System.arraycopy(batchTags, 0, tags, _numSets, k)
    System.arraycopy(nodes, 0, members, _totalNodes, nodes.length)
    var end = _totalNodes
    s = 0
    while (s < k) { end += sizes(s); starts(_numSets + s + 1) = end; s += 1 }
    _numSets += k
    _totalNodes = end
    indexValid = false
  }

  def tagOf(sid: Int): Int = tags(sid)
  def setMembers(sid: Int): Array[Int] =
    java.util.Arrays.copyOfRange(members, starts(sid), starts(sid + 1))

  // ---- inverted index -----------------------------------------------------
  // For element (u, i): the tag-i sets containing u are
  //   idxSets(idxHead(i*n+u) until idxHead(i*n+u+1))  — heads are global.
  private var idxHead: Array[Int] = _
  private var idxSets: Array[Int] = _
  private var indexValid = false

  /** Rebuild the inverted index after appends: a stable counting sort of all
    * incidences by key `i·n+u`, O(total incidences). The sets are cut into
    * chunks whose size depends on `numSets` only. Each chunk counts its keys
    * in parallel; one sequential pass over (key, chunk) turns the counts into
    * write offsets, placing a chunk's sids after those of earlier chunks; each
    * chunk then scatters in parallel. So every key's sids are ascending and
    * the index is the same for any thread count.
    */
  def rebuildIndex(): Unit = {
    val keys = h * n
    val chunkSets = math.max(IndexChunkSets, ((_numSets.toLong + IndexMaxChunks - 1) / IndexMaxChunks).toInt)
    val chunks = math.max(1, ((_numSets.toLong + chunkSets - 1) / chunkSets).toInt)
    val offsets = new Array[Array[Int]](chunks)
    inParallel(chunks) { c =>
      val cnt = new Array[Int](keys)
      var sid = c * chunkSets
      val last = math.min(_numSets.toLong, sid.toLong + chunkSets).toInt
      while (sid < last) {
        val base = tags(sid) * n
        var p = starts(sid)
        val end = starts(sid + 1)
        while (p < end) { cnt(base + members(p)) += 1; p += 1 }
        sid += 1
      }
      offsets(c) = cnt
    }
    val heads = new Array[Int](keys + 1)
    var acc = 0
    var k = 0
    while (k < keys) {
      heads(k) = acc
      var c = 0
      while (c < chunks) { val x = offsets(c)(k); offsets(c)(k) = acc; acc += x; c += 1 }
      k += 1
    }
    heads(keys) = acc
    val sets = new Array[Int](_totalNodes)
    inParallel(chunks) { c =>
      val pos = offsets(c)
      var sid = c * chunkSets
      val last = math.min(_numSets.toLong, sid.toLong + chunkSets).toInt
      while (sid < last) {
        val base = tags(sid) * n
        var p = starts(sid)
        val end = starts(sid + 1)
        while (p < end) {
          val key = base + members(p)
          sets(pos(key)) = sid
          pos(key) += 1
          p += 1
        }
        sid += 1
      }
    }
    idxHead = heads
    idxSets = sets
    indexValid = true
  }

  /** The index list of (u, i): the tag-i sets containing u, ascending. */
  private[rrset] def setsContaining(u: Int, i: Int): Array[Int] = {
    ensureIndex()
    java.util.Arrays.copyOfRange(idxSets, idxHead(i * n + u), idxHead(i * n + u + 1))
  }

  private def ensureIndex(): Unit = if (!indexValid) rebuildIndex()

  /** Number of tag-i sets containing node u (singleton coverage count). */
  def singletonCount(u: Int, i: Int): Int = {
    ensureIndex()
    idxHead(i * n + u + 1) - idxHead(i * n + u)
  }

  /** Estimated singleton spread `σ̂_i({u}) = n·cnt/E[#tag-i sets]`. */
  def sigmaSingleton(u: Int, i: Int): Double = {
    ensureIndex()
    scalePerSet * singletonCount(u, i) / cpeArr(i)
  }

  /** `π̃_i({u})` in O(1): u's tag-i list length times the scale. Equal to
    * `piOf(i, Seq(u))` because no set lists a member twice.
    */
  override def piSingle(i: Int, u: Int): Double = singletonCount(u, i) * scalePerSet

  /** `π̃_i(X, R)` evaluated from scratch (distinct covered tag-i sets). Each
    * call marks sets in its own bitset, so calls may run concurrently once
    * the index is built.
    */
  def piOf(i: Int, xs: Iterable[Int]): Double = {
    ensureIndex()
    val seen = new Array[Long]((_numSets + 63) >>> 6)
    var covered = 0
    for (u <- xs) {
      var p = idxHead(i * n + u)
      val end = idxHead(i * n + u + 1)
      while (p < end) {
        val sid = idxSets(p)
        val bit = 1L << sid
        val w = sid >>> 6
        if ((seen(w) & bit) == 0) { seen(w) |= bit; covered += 1 }
        p += 1
      }
    }
    covered * scalePerSet
  }

  def newSession(): RevenueSession = { ensureIndex(); new CoverageSession(this) }

  /** Incremental coverage session: `gain(u,i)` is an O(1) lookup of the
    * current count of *uncovered* tag-i sets containing u; `add` marks the
    * sets covered and decrements member counts (total work across a session
    * is bounded by the collection's incidence count).
    */
  private final class CoverageSession(rr: RRCollection) extends RevenueSession {
    private val covered = new Array[Boolean](rr._numSets)
    private val cnt: Array[Int] = {
      val c = new Array[Int](rr.h * rr.n)
      var k = 0
      while (k < rr.h * rr.n) { c(k) = rr.idxHead(k + 1) - rr.idxHead(k); k += 1 }
      c
    }
    private val coveredPerAd = new Array[Int](rr.h)

    def gain(u: Int, i: Int): Double = cnt(i * rr.n + u) * rr.scalePerSet

    def add(u: Int, i: Int): Unit = {
      var p = rr.idxHead(i * rr.n + u)
      val end = rr.idxHead(i * rr.n + u + 1)
      while (p < end) {
        val sid = rr.idxSets(p)
        if (!covered(sid)) {
          covered(sid) = true
          coveredPerAd(i) += 1
          var q = rr.starts(sid)
          val e2 = rr.starts(sid + 1)
          while (q < e2) { cnt(i * rr.n + rr.members(q)) -= 1; q += 1 }
        }
        p += 1
      }
    }

    def pi(i: Int): Double = coveredPerAd(i) * rr.scalePerSet
  }
}

object RRCollection {

  /** The longest array every JVM allocates; bounds sets, incidences and h·n. */
  val MaxArrayLength: Int = Int.MaxValue - 8

  /** Sets per index-build chunk, unless that makes more than [[IndexMaxChunks]]. */
  private val IndexChunkSets = 1 << 16
  private val IndexMaxChunks = 16

  /** Doubled capacity, at least `need` and at most `max`. */
  private def grownCapacity(cur: Int, need: Long, max: Int): Int =
    math.max(need, math.min(2L * cur, max.toLong)).toInt

  /** Run `body(0 until tasks)` on the common fork-join pool; returns when all are done. */
  private def inParallel(tasks: Int)(body: Int => Unit): Unit =
    java.util.stream.IntStream.range(0, tasks).parallel().forEach(c => body(c))
}
