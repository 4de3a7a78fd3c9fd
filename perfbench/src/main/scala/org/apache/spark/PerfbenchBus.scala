package org.apache.spark

/** Spark delivers listener events asynchronously and keeps the bus that
  * carries them `private[spark]`; this bridge lets the benchmark wait until
  * its listener has seen every event posted so far before reading counters.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
