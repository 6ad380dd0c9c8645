package repro.tricbench

import java.lang.management.ManagementFactory

import repro.engine.ContinuousEngine
import repro.graph.Edge
import repro.query.QueryPattern

/** A delegating engine that timestamps every `onUpdate` call of one replay
  * and keeps what it returned. With `countAlloc` it also sums the bytes the
  * calling thread allocates inside `onUpdate`, which costs two more MXBean
  * reads per update (the traced rounds only).
  */
final class Observed(val inner: ContinuousEngine, updates: Int, countAlloc: Boolean) extends ContinuousEngine {

  def name: String = inner.name
  def memoryRoots: Seq[AnyRef] = inner.memoryRoots

  /** When the last `indexQuery` call returned. */
  var indexedAt: Long = 0L
  def indexQuery(q: QueryPattern): Unit = { inner.indexQuery(q); indexedAt = System.nanoTime() }

  val start   = new Array[Long](updates)
  val end     = new Array[Long](updates)
  val answers = new Array[collection.Set[Int]](updates)
  var count   = 0
  var allocBytes = 0L

  private val mx  = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def onUpdate(e: Edge): collection.Set[Int] = {
    val a0 = if (countAlloc) mx.getCurrentThreadAllocatedBytes else 0L
    val t0 = System.nanoTime()
    val r  = inner.onUpdate(e)
    val t1 = System.nanoTime()
    if (countAlloc) allocBytes += mx.getCurrentThreadAllocatedBytes - a0
    start(count) = t0
    end(count) = t1
    answers(count) = r
    count += 1
    r
  }

  /** Time inside `onUpdate` per update, in ms. */
  def busyMs: Array[Double] = Array.tabulate(count)(i => (end(i) - start(i)) / 1e6)

  /** What each update returned, as sorted query ids. */
  def answerIds: Vector[Vector[Int]] = answers.iterator.take(count).map(_.toVector.sorted).toVector
}
