package repro.bench

import org.apache.spark.util.SizeEstimator
import repro.core.TricEngine
import repro.engine.ContinuousEngine
import repro.graph.Edge
import repro.graphdb.GraphDbEngine
import repro.inv.InvEngine
import repro.query.QueryPattern

/** Measurement loop shared by every table reproduction: index a query set
  * (timed), replay a stream (per-update answering time), checkpoint the
  * average at given graph sizes, enforce a per-run time budget (the scaled
  * stand-in for the paper's 24-hour execution-time threshold — engines that
  * exceed it are reported as timed out at the edge count they reached, like
  * the paper's asterisks), and estimate retained memory.
  */
object Harness {

  /** The seven algorithms of the paper's evaluation, in plot order. */
  def allEngines: Seq[() => ContinuousEngine] = Seq(
    () => new TricEngine(caching = false),
    () => new TricEngine(caching = true),
    () => new InvEngine(incremental = false, caching = false),
    () => new InvEngine(incremental = false, caching = true),
    () => new InvEngine(incremental = true, caching = false),
    () => new InvEngine(incremental = true, caching = true),
    () => new GraphDbEngine,
  )

  final case class Checkpoint(edges: Int, avgMs: Double)

  final case class RunResult(
      algo: String,
      indexMs: Double,
      checkpoints: Vector[Checkpoint],
      timedOutAt: Option[Int],
      satisfied: Int,
      memBytes: Long,
      totalMs: Double,
      processed: Int,
  ) {
    /** Overall average answering time over the updates actually processed. */
    def overallAvgMs: Double = if (processed == 0) Double.NaN else totalMs / processed
  }

  /** One joint estimate over the engine's memory roots, so a structure
    * reachable from two roots (a trie node from `rootInd` and `edgeInd`, a
    * view through a cached index) counts once.
    */
  private[bench] def memoryOf(e: ContinuousEngine): Long =
    SizeEstimator.estimate(e.memoryRoots)

  /** Index `queries` into a fresh engine, replay `stream`, and report
    * per-segment average answering time at each checkpoint edge count.
    *
    * @param checkpoints increasing stream positions (edge counts) at which to
    *                    report the mean per-update answering time since the
    *                    previous checkpoint
    * @param budgetMs    answering-time budget; exceeded ⇒ stop and report a
    *                    timeout at the current stream position
    */
  def run(
      mk: () => ContinuousEngine,
      queries: Seq[QueryPattern],
      stream: IndexedSeq[Edge],
      checkpoints: Seq[Int],
      budgetMs: Long,
  ): RunResult = {
    // Warm the engine's code paths on a throwaway instance and collect the
    // previous run's garbage, so sequential engine runs in one JVM don't
    // contaminate each other's timings.
    locally {
      val w = mk()
      w.indexAll(queries.take(50))
      stream.take(300).foreach(w.onUpdate)
    }
    System.gc()

    val engine = mk()
    val t0 = System.nanoTime()
    engine.indexAll(queries)
    val indexMs = (System.nanoTime() - t0) / 1e6

    var spentNs = 0L
    var i = 0
    var segStartNs = 0L
    var segStartEdge = 0
    val cps = Vector.newBuilder[Checkpoint]
    var timedOut: Option[Int] = None
    val cpIter = checkpoints.iterator.buffered

    while (i < stream.size && timedOut.isEmpty) {
      val s = System.nanoTime()
      engine.onUpdate(stream(i))
      spentNs += System.nanoTime() - s
      i += 1
      if (cpIter.hasNext && i == cpIter.head) {
        cpIter.next()
        val segUpdates = i - segStartEdge
        cps += Checkpoint(i, (spentNs - segStartNs) / 1e6 / segUpdates)
        segStartNs = spentNs
        segStartEdge = i
      }
      if (spentNs / 1e6 > budgetMs) timedOut = Some(i)
    }
    RunResult(engine.name, indexMs, cps.result(), timedOut, engine.satisfied.size, memoryOf(engine),
      spentNs / 1e6, i)
  }

  def fmt(d: Double): String =
    if (d.isNaN) "-" else if (d >= 100) f"$d%.0f" else if (d >= 1) f"$d%.2f" else f"$d%.4f"

  /** Render a run's checkpoint cells, with the paper-style asterisk marking
    * the edge count at which the algorithm timed out.
    */
  def cells(r: RunResult, checkpoints: Seq[Int]): Seq[String] =
    checkpoints.map { cp =>
      r.checkpoints.find(_.edges == cp).map(c => fmt(c.avgMs)).getOrElse {
        r.timedOutAt match {
          case Some(at) if at <= cp => s"*${at}"
          case _                    => "-"
        }
      }
    }
}
