package repro.bench

import repro.SparkSpec
import repro.eval.Experiments
import repro.graph.{GraphGen, InfluenceModel, InfluenceModels, WeightedCascade}
import repro.rrset.{RRSamplerState, RRSink}

/** Single-thread sampler micro-benchmark, outside perfbench: times
  * `RRSamplerState.sample` into a sink that only counts members, naive and
  * SUBSIM, on lastfm-lite TIC, flixster-lite TIC and dblp-lite WC. Each line
  * gives the median of `Reps` timed runs of `Sets` sets (after one warm-up
  * run) in ns per set, and the mean members per set.
  *
  *   sbt "bench/testOnly repro.bench.SamplerBench"
  */
class SamplerBench extends SparkSpec {

  private val Sets = 1 << 20
  private val Reps = 5

  private final class Count extends RRSink[Long] {
    private var members = 0L
    def add(tag: Int, set: Array[Int], size: Int): Unit = members += size
    def result(): Long = members
  }

  test("single-thread RR sampling: ns per set and members per set") {
    val models: Seq[(String, InfluenceModel)] = Seq(
      "lastfm TIC" -> InfluenceModels.lastfmTic(GraphGen.graph(spark, GraphGen.Lastfm), Experiments.H),
      "flixster TIC" -> InfluenceModels.flixsterTic(GraphGen.graph(spark, GraphGen.Flixster), Experiments.H),
      "dblp WC" -> new WeightedCascade(GraphGen.graph(spark, GraphGen.Dblp), Experiments.H))
    for ((name, model) <- models; subsim <- Seq(false, true)) {
      val st = RRSamplerState(model, Experiments.cpes)
      def run(seed: Long): (Long, Long) = {
        val sink = new Count
        val t0 = System.nanoTime()
        st.sample(0, Sets, seed, subsim, sink)
        (System.nanoTime() - t0, sink.result())
      }
      run(1L)
      val runs = (1 to Reps).map(r => run(100L + r))
      val ns = runs.map(_._1).sorted.apply(Reps / 2).toDouble / Sets
      val members = runs.map(_._2).sum.toDouble / (Reps.toLong * Sets)
      val mode = if (subsim) "SUBSIM" else "naive"
      println(f"$name%-13s $mode%-6s $ns%7.1f ns/set  $members%6.2f members/set")
    }
  }
}
