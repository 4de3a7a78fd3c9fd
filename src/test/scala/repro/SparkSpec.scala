package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every Spark test: one local-mode SparkSession for the whole run.
  *
  * The forked test JVM's heap is `-Xmx` from the `SPARK_DRIVER_MEM`
  * environment variable (build.sbt's `Test / javaOptions`, 48g when unset).
  * The test command in ROADMAP.md sets it to half of MemTotal, clamped to
  * 2–8 g.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .getOrCreate()
    // One line in the test output that records the heap setting and the
    // parallelism the run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
