package repro.perfbench

import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** Per-job Spark counters gathered by a listener the benchmark registers:
  * wall time, task count, executor run time and task result bytes. Jobs are
  * attributed to trace spans by their start time.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters.Job

  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stageJob = mutable.HashMap.empty[Int, Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs(e.jobId) = Job(e.jobId, e.time)
    e.stageIds.foreach(stageJob(_) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (id <- stageJob.get(e.stageId); job <- jobs.get(id); m <- Option(e.taskMetrics)) {
      job.tasks += 1
      job.runMs += m.executorRunTime
      job.resultBytes += m.resultSize
    }
  }

  /** Jobs that started within the span (call after draining the bus). */
  def jobsIn(s: Trace.Span): Seq[Job] = synchronized {
    jobs.valuesIterator.filter(j => j.startMs >= s.startMs && j.startMs <= s.endMs).toSeq
  }
}

object SparkCounters {
  final case class Job(id: Int, startMs: Long) {
    var endMs: Long = startMs
    var tasks: Int = 0
    var runMs: Long = 0L
    var resultBytes: Long = 0L
    def wallSeconds: Double = (endMs - startMs) / 1e3
  }

  final case class Totals(jobs: Int, tasks: Int, wallS: Double, taskS: Double, resultMb: Double)

  def totals(js: Seq[Job]): Totals =
    Totals(js.size, js.map(_.tasks).sum, js.map(_.wallSeconds).sum,
      js.map(_.runMs).sum / 1e3, js.map(_.resultBytes).sum / 1048576.0)
}
