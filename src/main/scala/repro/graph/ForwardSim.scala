package repro.graph

import org.apache.spark.sql.SparkSession
import org.apache.spark.graphx._

/** Forward Monte-Carlo estimation of the TIC spread σ_i(S) with GraphX.
  *
  * Uses the live-edge formulation of the IC process: a cascade from S in a
  * world where each edge (u,v) is independently "live" with probability
  * p^i_(u,v) activates exactly the nodes reachable from S over live edges.
  * We run 64 worlds per batch by giving every edge a 64-bit live-mask
  * (bit t = edge live in trial t, drawn from a hash of (edgeId, t, seed))
  * and propagating vertex masks with Pregel until fixpoint.
  *
  * This is the "influence propagation approximation on the social graph with
  * GraphX" substrate; tests cross-check it against the exact oracle and the
  * RR-set estimator.
  */
object ForwardSim {

  /** SplitMix64 finaliser — cheap, high-quality 64-bit hash. */
  private def mix64(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  /** Uniform double in [0,1) from a hash of (edge, trial, seed). */
  private def coin(edgeId: Long, trial: Int, seed: Long): Double =
    ((mix64(edgeId * 1000003L + trial * 7919L + seed) >>> 11).toDouble) / (1L << 53).toDouble

  /** Estimate σ_i(S) with `trials` Monte-Carlo worlds (rounded up to a
    * multiple of 64). Deterministic in `seed`.
    */
  def sigma(spark: SparkSession, model: InfluenceModel, ad: Int,
            seeds: Set[Int], trials: Int, seed: Long): Double = {
    if (seeds.isEmpty) return 0.0
    val g = model.graph
    val p = model.prob(ad)
    val batches = math.max(1, (trials + 63) / 64)
    val sc = spark.sparkContext

    // Vertices take the edges' partition count: fewer tasks per Pregel superstep.
    val parts = math.max(1, g.m / 200000 + 1)
    val edges = sc.parallelize(
      (0 until g.m).map(e => Edge(g.src(e).toLong, g.dst(e).toLong, e)), parts)
    val vertices = sc.parallelize((0 until g.n).map(v => (v.toLong, ())), parts)
    // Built once and reused by every batch, rather than recomputed per batch.
    val base = Graph(vertices, edges).cache()

    var total = 0.0
    var b = 0
    try while (b < batches) {
      val batchSeed = seed * 131 + b
      // Precommit each edge's 64-trial live-mask.
      val world = base.mapEdges { e =>
        val pe = p(e.attr)
        var mask = 0L
        var t = 0
        while (t < 64) {
          if (coin(e.attr.toLong, t, batchSeed) < pe) mask |= (1L << t)
          t += 1
        }
        mask
      }
      val seedSet = seeds
      val init = world.mapVertices((vid, _) => if (seedSet(vid.toInt)) -1L else 0L)
      val res = init.pregel(0L, activeDirection = EdgeDirection.Out)(
        vprog = (_, attr, msg) => attr | msg,
        sendMsg = triplet => {
          val reach = triplet.srcAttr & triplet.attr
          if ((reach | triplet.dstAttr) != triplet.dstAttr) Iterator((triplet.dstId, reach))
          else Iterator.empty
        },
        mergeMsg = _ | _)
      val popSum = res.vertices.map { case (_, mask) => java.lang.Long.bitCount(mask).toLong }
        .reduce(_ + _)
      total += popSum.toDouble / 64.0
      res.unpersist(false)
      world.unpersist(false)
      b += 1
    } finally base.unpersist(false)
    total / batches
  }
}
