package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Tables

/** Shared session builder for spark-submit entrypoints. */
object JobSpark {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
}

/** Table 1 — dataset statistics. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table1")
    println(Tables.table1(spark))
    spark.stop()
  }
}

/** Table 2 — advertiser budgets and CPE values. */
object Table2Job {
  def main(args: Array[String]): Unit = println(Tables.table2())
}

/** Table 3 — running time under the linear cost model. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table3")
    println(Tables.runningTimeTable(spark, subsim = false))
    spark.stop()
  }
}

/** Table 5 — running time as τ varies. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table5")
    println(Tables.table5(spark))
    spark.stop()
  }
}

/** Table 6 — running time with SUBSIM RR-set generation. */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table6")
    println(Tables.runningTimeTable(spark, subsim = true))
    spark.stop()
  }
}
