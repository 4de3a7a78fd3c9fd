package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Spans recorded around the benchmark's calls into the program: name,
  * start, end and the enclosing span. Kept in memory and written out when the
  * run ends. A disabled trace runs the body and records nothing.
  */
final class Trace(val enabled: Boolean) {
  import Trace.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def apply[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.length
      spans += Span(id, name, open.headOption.getOrElse(-1),
        System.nanoTime(), 0L, System.currentTimeMillis(), 0L)
      open = id :: open
      try body
      finally {
        open = open.tail
        spans(id) = spans(id).copy(endNs = System.nanoTime(), endMs = System.currentTimeMillis())
      }
    }

  def all: IndexedSeq[Span] = spans.toIndexedSeq

  def last(name: String): Span =
    spans.findLast(_.name == name).getOrElse(sys.error(s"no span named $name"))

  /** Spans called `name` anywhere below `root`. */
  def under(root: Span, name: String): IndexedSeq[Span] =
    spans.iterator.filter(s => s.name == name && isBelow(s, root.id)).toIndexedSeq

  private def isBelow(s: Span, rootId: Int): Boolean =
    s.parent == rootId || (s.parent >= 0 && isBelow(spans(s.parent), rootId))

  /** Duration minus the part covered by direct children (they never overlap:
    * the benchmark is single-threaded on the driver).
    */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.iterator.filter(_.parent == s.id).map(_.seconds).sum
}

object Trace {
  final case class Span(id: Int, name: String, parent: Int,
                        startNs: Long, endNs: Long, startMs: Long, endMs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }
}
