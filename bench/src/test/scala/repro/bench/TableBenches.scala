package repro.bench

import repro.SparkSpec
import repro.eval.Tables

/** Benchmark suites: one per paper table, and the one way to run a table.
  * Each prints the reproduced table; `sbt -batch "bench/test" | tee
  * bench_output.txt` saves them, and EXPERIMENTS.md records these numbers
  * next to the paper's.
  *
  * Declared in alphabetical-friendly order; `Test / parallelExecution` is off
  * so the shared SparkSession and the Tables run-cache are reused in sequence.
  */
class Table1DatasetsBench extends SparkSpec {
  test("Table 1: dataset statistics") {
    val out = Tables.table1(spark)
    println(out)
    assert(out.contains("lastfm-lite") && out.contains("livejournal-lite"))
  }
}

class Table2SettingsBench extends SparkSpec {
  test("Table 2: advertiser budgets and CPE values") {
    val out = Tables.table2()
    println(out)
    assert(out.contains("mean=320.0"))
    assert(out.contains("mean=1010.0"))
    assert(out.contains("mean=1.5"))
  }
}

class Table3RunningTimeBench extends SparkSpec {
  test("Table 3: running time under the linear cost model") {
    val out = Tables.runningTimeTable(spark, subsim = false)
    println(out)
    assert(out.contains("RMA") && out.contains("TI-CARM") && out.contains("TI-CSRM"))
  }
}

class Table5TauBench extends SparkSpec {
  test("Table 5: running time as tau varies") {
    val out = Tables.table5(spark)
    println(out)
    assert(out.contains("t=0.05") && out.contains("t=0.45"))
  }
}

class Table6SubsimBench extends SparkSpec {
  test("Table 6: running time with SUBSIM RR generation") {
    val out = Tables.runningTimeTable(spark, subsim = true)
    println(out)
    assert(out.contains("SUBSIM"))
  }
}
