package repro.stream

import repro.{SparkSpec, TestWorkloads}
import repro.bench.Harness
import repro.core.TricEngine

/** Structured Streaming front-end: replaying the update stream through
  * micro-batches must be indistinguishable from one-update-at-a-time replay
  * — same satisfied sets, same bindings, and match events in stream order.
  */
class StreamingEvalSpec extends SparkSpec {

  private lazy val (name0, stream, queries) = TestWorkloads.crossWorkloads.head

  test("streaming replay equals sequential replay (satisfied + bindings)") {
    val streaming = new TricEngine(false)
    val events = StreamingEval.run(spark, streaming, queries, stream, batchSize = 97)

    val sequential = new TricEngine(false)
    sequential.indexAll(queries)
    sequential.replay(stream)

    assert(streaming.satisfied == sequential.satisfied)
    queries.foreach(q => assert(streaming.bindings(q.id) == sequential.bindings(q.id), s"query ${q.id}"))
    assert(events.nonEmpty)
  }

  test("match events carry in-order sequence numbers within the stream") {
    val engine = new TricEngine(true)
    val events = StreamingEval.run(spark, engine, queries, stream, batchSize = 123)
    assert(events.map(_.seq) == events.map(_.seq).sorted)
    assert(events.forall(e => e.seq >= 0 && e.seq < stream.size))
  }

  test("first match event per query equals the sequential first-satisfaction point") {
    val sequential = new TricEngine(false)
    sequential.indexAll(queries)
    val firstSeq = scala.collection.mutable.HashMap.empty[Int, Long]
    stream.zipWithIndex.foreach { case (e, i) =>
      sequential.onUpdate(e).foreach(q => if (!firstSeq.contains(q)) firstSeq(q) = i.toLong)
    }
    val streaming = new TricEngine(false)
    val events = StreamingEval.run(spark, streaming, queries, stream, batchSize = 50)
    val firstStream = events.groupBy(_.qid).view.mapValues(_.map(_.seq).min).toMap
    assert(firstStream == firstSeq.toMap)
  }

  test("every engine's match events, grouped by update, equal its direct replay's outputs") {
    for (mk <- Harness.allEngines) {
      val direct = mk()
      direct.indexAll(queries)
      val expected = stream.indices.map(i => i.toLong -> direct.onUpdate(stream(i)).toSet).filter(_._2.nonEmpty).toMap
      val streaming = mk()
      val events = StreamingEval.run(spark, streaming, queries, stream, batchSize = 97)
      assert(events.groupBy(_.seq).view.mapValues(_.map(_.qid).toSet).toMap == expected, streaming.name)
    }
  }

  test("streaming works with a batch size larger than the stream") {
    val engine = new TricEngine(false)
    StreamingEval.run(spark, engine, queries.take(5), stream.take(200), batchSize = 10000)
    val ref = new TricEngine(false)
    ref.indexAll(queries.take(5)); ref.replay(stream.take(200))
    assert(engine.satisfied == ref.satisfied)
  }
}
