package repro.tricbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}

import scala.collection.mutable

/** One recorded span: a call into a layer, timed from the benchmark's side
  * of the boundary. `parent` is 0 for a root span; spans of one update share
  * its `trace` id.
  */
final case class Span(id: Long, parent: Long, trace: Long, name: String, start: Long, end: Long)

/** In-memory span recorder. When disabled it records nothing, and `record`
  * returns 0.
  */
final class Tracer(val enabled: Boolean) {
  private val done   = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0L

  /** Record a span that already ended; returns its id (0 when disabled). */
  def record(name: String, parent: Long, trace: Long, start: Long, end: Long): Long =
    if (!enabled) 0L
    else {
      nextId += 1
      done += Span(nextId, parent, trace, name, start, end)
      nextId
    }

  /** Run `body` inside a root span named `name`. */
  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val t0 = System.nanoTime()
      val r  = body
      record(name, 0L, 0L, t0, System.nanoTime())
      r
    }

  def spans: collection.Seq[Span] = done

  /** Self time of every span named `name`, in ns. */
  def selfTimes(name: String): Seq[Long] = {
    val kids = done.groupBy(_.parent)
    done.iterator.filter(_.name == name).map { s =>
      Stats.selfTime(s.start, s.end, kids.getOrElse(s.id, Nil).map(c => (c.start, c.end)).toSeq)
    }.toSeq
  }

  /** Write every span as one JSON object per line. */
  def writeTo(file: Path): Unit = {
    Files.createDirectories(file.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(file))
    try done.foreach { s =>
      out.println(Json.obj("id" -> s.id, "parent" -> s.parent, "trace" -> s.trace, "name" -> s.name,
        "start_ns" -> s.start, "end_ns" -> s.end))
    } finally out.close()
  }
}
