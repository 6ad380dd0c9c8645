package repro.stream

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.engine.ContinuousEngine
import repro.graph.Edge
import repro.query.QueryPattern

import scala.collection.mutable

/** Structured Streaming front-end for the continuous multi-query engines.
  *
  * The graph update stream is a Structured Streaming source
  * ([[MemoryStream]]); every micro-batch is routed through ONE shared
  * engine instance — the shared subgraph-pattern-matching operator state
  * (tries / inverted indexes / materialized views) lives across batches, so
  * all registered continuous queries are evaluated against each update with
  * cross-query sharing, per the paper's model. Updates carry a sequence
  * number and are re-ordered inside each batch, preserving the paper's
  * ordered-stream semantics (Definition 3) under Spark's parallel source.
  *
  * `foreachBatch` is the documented Structured Streaming escape hatch for
  * stateful sinks whose state is not key-partitionable — TRIC's trie forest
  * is a cross-query shared structure, exactly that case.
  */
object StreamingEval {

  final case class SeqEdge(seq: Long, src: String, label: String, dst: String)

  /** Matches emitted by the stream: (sequence number, query id) — query
    * `qid` gained at least one new binding from update `seq`.
    */
  final case class MatchEvent(seq: Long, qid: Int)

  /** Run `engine` over `updates` as a Structured Streaming job with the given
    * micro-batch size; returns the match events in emission order. The engine
    * is mutated in place, so its final `satisfied`/`bindings` state can be
    * inspected (and oracle-checked) afterwards.
    */
  def run(
      spark: SparkSession,
      engine: ContinuousEngine,
      queries: Seq[QueryPattern],
      updates: Seq[Edge],
      batchSize: Int = 500,
  ): Vector[MatchEvent] = {
    engine.indexAll(queries)
    val events = mutable.ArrayBuffer.empty[MatchEvent]

    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[SeqEdge]

    val query = source
      .toDS()
      .writeStream
      .outputMode("append")
      .foreachBatch { (batch: org.apache.spark.sql.Dataset[SeqEdge], _: Long) =>
        // Collect to the driver in sequence order: the shared operator state
        // is a single cross-query structure, not key-partitionable state.
        batch.orderBy("seq").collect().foreach { se =>
          val matched = engine.onUpdate(Edge(se.src, se.label, se.dst))
          matched.foreach(qid => events += MatchEvent(se.seq, qid))
        }
      }
      .start()

    try {
      updates.zipWithIndex
        .map { case (e, i) => SeqEdge(i.toLong, e.src, e.label, e.dst) }
        .grouped(batchSize)
        .foreach { chunk =>
          source.addData(chunk)
          query.processAllAvailable()
        }
    } finally query.stop()

    events.toVector
  }
}
