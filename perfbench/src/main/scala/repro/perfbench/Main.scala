package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization

/** Benchmark process for one workload run (started by `perfbench/run.py`):
  *
  * {{{
  * Main --workload NAME --seed N --seconds S --trace 0|1 --work DIR
  *      --report FILE [--commit SHA] [--driver-mem MEM]
  * }}}
  *
  * Prints `# meta`/`# solves` lines, then the result object as the last line
  * of standard output; writes the full report (and, traced, every span) to
  * `--report`. Spark's scratch space stays under `--work`.
  */
object Main {

  private def json(v: Any): String = Serialization.write(v.asInstanceOf[AnyRef])(DefaultFormats)

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def arg(k: String) = args.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.byName(arg("workload"))
    val seed = arg("seed").toLong
    val seconds = arg("seconds").toDouble
    val traced = arg("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val work = Paths.get(arg("work")).toAbsolutePath

    // local[N], N ≤ nproc: at most 4 threads keeps the footprint small on a
    // shared host; RR sampling is partitioned independently of N.
    val nproc = Runtime.getRuntime.availableProcessors
    val cores = math.min(nproc, 4)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${wl.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val meta = Map[String, Any](
        "workload" -> wl.name, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
        "commit" -> args.getOrElse("commit", "unknown"), "nproc" -> nproc,
        "spark_master" -> spark.sparkContext.master,
        "default_parallelism" -> spark.sparkContext.defaultParallelism,
        "spark_driver_mem" -> args.getOrElse("driver-mem", "unset"),
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
        "spark_version" -> spark.version,
      )
      val out = new Bench(spark, wl, seed, seconds, new Trace(traced), cores).run()
      val metrics = if (traced) out.perLayer else out.endToEnd
      (out.endToEnd ++ out.perLayer).foreach(m =>
        require(m.value.isFinite, s"metric ${m.name} is not finite: ${m.value}"))
      val result = ListMap[String, Any](
        "correct" -> (out.failed == 0),
        "attempted" -> out.attempted,
        "failed" -> out.failed,
        "metrics" -> ListMap.from(metrics.map(m => m.name -> ListMap("value" -> m.value, "unit" -> m.unit))),
      )
      val report = Map[String, Any]("meta" -> meta, "result" -> result,
        "end_to_end" -> ListMap.from(out.endToEnd.map(m => m.name -> m.value)),
        "per_layer" -> ListMap.from(out.perLayer.map(m => m.name -> m.value))) ++ out.detail
      Files.write(Paths.get(arg("report")), json(report).getBytes(StandardCharsets.UTF_8))
      out.failures.foreach(f => Console.err.println(s"[perfbench] FAILED $f"))
      println(s"# meta ${json(meta)}")
      println(s"# solves ${json(out.detail("solve_s"))}")
      println(json(result))
    } finally spark.stop()
  }
}
