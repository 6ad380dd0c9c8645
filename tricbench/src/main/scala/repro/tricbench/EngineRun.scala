package repro.tricbench

import java.io.{BufferedReader, InputStreamReader}
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession
import org.apache.spark.util.SizeEstimator
import repro.core.TricEngine
import repro.engine.ContinuousEngine
import repro.inv.InvEngine
import repro.query.{CoveringPaths, Generic}
import repro.stream.StreamingEval

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Measures ONE engine on one workload in this JVM. `run.py` starts a fresh
  * JVM per engine and drives it with one line each way over standard input
  * and output:
  *
  *  - on start the JVM warms up and replies `ready <rounds>`, the fewest
  *    timed rounds that put 10 samples beyond p99;
  *  - `round` runs one timed round and replies `done`;
  *  - `finish` checks the answers, measures memory, writes one JSON object to
  *    `--out` and replies `finished`.
  *
  * `run.py` alternates timed rounds between the JVMs of a run, one JVM at a
  * time, so each engine's rounds spread over the whole run.
  *
  * A round is: `System.gc()`, a fresh engine, `indexAll(Q_DB)`, garbage
  * that fills a share of eden (`shiftCollections`), then a full replay.
  * Replay is a closed loop with one client: the next update is sent only
  * after `onUpdate` returns. `--path direct` calls `onUpdate` from a
  * loop; `--path stream` replays through `StreamingEval.run` on local Spark,
  * where an update's latency runs from the release of its micro-batch (the
  * return of the previous batch's last update) to the engine's return.
  *
  * Untimed direct rounds on fresh engines come first (and on the streaming
  * path `StreamWarmupBatches` micro-batches). With `--trace 1` every other
  * direct round (every streaming round) also counts allocations and its spans
  * are kept; the rounds in between give the untraced throughput the tracing
  * overhead is measured against.
  */
object EngineRun {

  /** Untimed full rounds on fresh engines before timing: TRIC+ on SNB runs
    * its first replay at about 60% of its later speed. The streaming JVM
    * times no direct rounds, so one warms up only what they share.
    */
  def warmups(path: String): Int = if (path == "stream") 1 else 2

  /** Warm `indexAll(Q_DB)` timings on fresh engines after every timed round:
    * the samples behind `setup_s`, spread over the run like the rounds.
    */
  val IndexRepsPerRound = 5

  /** Untimed `indexAll(Q_DB)` calls on fresh engines after the warm-up
    * rounds, which call it only once each: under -Xbatch the JIT would
    * otherwise compile the indexing path inside the first timed calls.
    */
  val IndexWarmups = 20

  /** Spark cores on the streaming path: with one GC thread and two JIT
    * compiler threads, one core keeps the JVM within 4 CPUs.
    */
  val SparkCores = 1

  /** Shares of eden filled before successive rounds: the fractional parts
    * of k·φ⁻¹, spread evenly over [0, 1) for any number of rounds.
    */
  val EdenShareStep = 0.6180339887498949

  /** Updates per micro-batch: 100 rather than 50 halves Spark's per-batch
    * cost over a replay.
    */
  val Batch = 100

  /** Spark's per-batch path keeps getting faster over the first tens of
    * micro-batches; this many run on throwaway engines before timing.
    */
  val StreamWarmupBatches = 30

  final case class Args(
      dataset: String, path: String, engine: String,
      streamSeed: Long, querySeed: Long, orderSeed: Long, trace: Boolean,
      out: String, traceOut: String, answersOut: String, localDir: String,
  )

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    def get(k: String, d: String = null): String =
      kv.getOrElse(k, Option(d).getOrElse(throw new IllegalArgumentException(s"missing --$k")))
    val dataset = get("dataset")
    Args(
      dataset, get("path", "direct"), get("engine"),
      get("stream-seed", Workloads.defaultStreamSeed(dataset).toString).toLong,
      get("query-seed", Workloads.defaultQuerySeed.toString).toLong,
      get("order-seed", "0").toLong, get("trace", "0") == "1",
      get("out"), get("trace-out", ""), get("answers-out", ""), get("local-dir", ""),
    )
  }

  /** What one round measured; the engine itself is not kept, so a full GC
    * before the next round finds only garbage. `lat` is each update's
    * latency and `busy` its time inside `onUpdate`, in ms.
    */
  final case class Round(traced: Boolean, startNs: Long, wallNs: Long, gcMs: Long, gcs: Long, lat: Array[Double],
                         busy: Array[Double], start: Array[Long], end: Array[Long], batchRelease: Array[Long],
                         answers: Vector[Vector[Int]], allocBytes: Long) {
    def updPerS: Double = lat.length / (wallNs / 1e9)
  }

  /** Collections so far and the time they took, in ms. */
  private def gcStats(): (Long, Long) = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum)
  }

  private def median(xs: Iterable[Double]): Double = Stats.median(xs.toSeq)

  private val edenBytes: Long = ManagementFactory.getMemoryPoolMXBeans.asScala
    .find(_.getName.contains("Eden")).map(_.getUsage.getCommitted).getOrElse(0L)

  @volatile private var sink: Array[Byte] = _

  /** Allocate `share` of eden as garbage. A replay allocates the same bytes
    * at the same updates every round, so from an empty eden its young
    * collections would pause the same updates every round, and which updates
    * those are differs between JVMs with the JIT's allocation elimination.
    * Starting each round at another share moves the pauses along the stream:
    * they stay in the round's wall time in proportion to its allocation, and
    * an update's mid-mean over the rounds no longer depends on where one JVM's
    * collections landed.
    */
  private def shiftCollections(share: Double): Unit = {
    var left = (share * edenBytes).toLong
    while (left > 0) { val k = math.min(left, 1L << 20).toInt; sink = new Array[Byte](k); left -= k }
    sink = null
  }

  /** Updates ÷ wall time over all the given rounds' replays. Round
    * throughputs on a shared machine cluster in a fast and a slow mode; their
    * median jumps between the modes, this pooled rate moves smoothly.
    */
  private def pooledUpdPerS(rs: Seq[Round]): Double =
    if (rs.isEmpty) Double.NaN else rs.map(_.lat.length).sum / (rs.map(_.wallNs).sum / 1e9)

  private def timeMs[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e6)
  }

  /** One engine on one workload: warms up on construction, then runs timed
    * rounds on request.
    */
  final class Session(a: Args, mk: () => ContinuousEngine) {
    private val stream = a.path == "stream"
    private val phases = mutable.LinkedHashMap.empty[String, Double]
    private var mark   = System.nanoTime()
    private def phase(name: String): Unit = { val t = System.nanoTime(); phases(name) = (t - mark) / 1e9; mark = t }

    private val in     = Workloads.inputs(a.dataset, a.streamSeed, a.querySeed, a.orderSeed)
    private var made   = 0 // rounds run so far, warm-up rounds included
    private val n      = in.stream.size
    private val tracer = new Tracer(a.trace)
    phase("inputs")

    // The last warm-up round's answers are the direct-replay reference for
    // the streaming path.
    private val directAnswers = (1 to warmups(a.path)).map(_ => directRound(traced = false)._1.answers).last
    (1 to IndexWarmups).foreach(_ => mk().indexAll(in.queries))
    phase("warmup")

    private val (spark, sessionS) =
      if (!stream) (null: SparkSession, 0.0)
      else {
        val (s, ms) = timeMs {
          val b = SparkSession.builder().master(s"local[$SparkCores]").appName("tricbench")
            .config("spark.ui.enabled", "false")
          if (a.localDir.nonEmpty) b.config("spark.local.dir", a.localDir)
          b.getOrCreate()
        }
        val replays = math.ceil(StreamWarmupBatches.toDouble / ((n + Batch - 1) / Batch)).toInt
        (1 to replays).foreach(_ => StreamingEval.run(s, mk(), in.queries, in.stream, Batch))
        (s, ms / 1e3)
      }
    phase("session_and_stream_warmup")

    /** The fewest timed rounds that put 10 samples beyond p99; on the direct
      * path four, so that an update's mid-mean drops its slowest and fastest
      * round.
      */
    val minRounds: Int = math.max(if (stream) 1 else 4, Stats.roundsNeeded(n, 0.99))

    private val rounds  = mutable.ArrayBuffer.empty[Round]
    private val indexMs = mutable.ArrayBuffer.empty[Double]
    private var last: ContinuousEngine = _
    private var measuredS = 0.0

    /** One timed round, then `IndexRepsPerRound` warm `indexAll` timings. */
    def timedRound(): Unit = {
      val t0 = System.nanoTime()
      val traced = a.trace && (stream || rounds.size % 2 == 0)
      last = null
      val (r, e) = if (stream) streamRound(traced) else directRound(traced)
      rounds += r
      last = e
      (1 to IndexRepsPerRound).foreach { _ =>
        indexMs += tracer.span("engine.index")(timeMs(mk().indexAll(in.queries))._2)
      }
      measuredS += (System.nanoTime() - t0) / 1e9
    }

    private def round(obs: Observed, traced: Boolean, startNs: Long, wallNs: Long, gc0: (Long, Long),
                      lat: Array[Double], batchRelease: Array[Long],
                      answers: Vector[Vector[Int]]): (Round, ContinuousEngine) = {
      val (gcs, gcMs) = gcStats()
      (Round(traced, startNs, wallNs, gcMs - gc0._2, gcs - gc0._1, lat, obs.busyMs, obs.start, obs.end, batchRelease,
        answers, obs.allocBytes), obs.inner)
    }

    private def nextShare(): Unit = { shiftCollections(made * EdenShareStep % 1.0); made += 1 }

    private def directRound(traced: Boolean): (Round, ContinuousEngine) = {
      System.gc()
      val e = mk()
      e.indexAll(in.queries)
      val obs = new Observed(e, n, traced)
      nextShare()
      val g0 = gcStats()
      val t0 = System.nanoTime()
      var i  = 0
      while (i < n) { obs.onUpdate(in.stream(i)); i += 1 }
      val t1 = System.nanoTime()
      round(obs, traced, t0, t1 - t0, g0, obs.busyMs, Array.emptyLongArray, obs.answerIds)
    }

    /** A round through `StreamingEval.run`. Its answers are the stream's own
      * match events, grouped by sequence number, so the gate checks what the
      * stream emits rather than what the engine returned to it.
      */
    private def streamRound(traced: Boolean): (Round, ContinuousEngine) = {
      System.gc()
      val obs = new Observed(mk(), n, traced)
      nextShare()
      val g0 = gcStats()
      val events = StreamingEval.run(spark, obs, in.queries, in.stream, Batch)
      require(obs.count == n, s"stream delivered ${obs.count} of $n updates")
      // batch k is released when batch k-1's last update returns
      val release = Array.tabulate((n + Batch - 1) / Batch)(k => if (k == 0) obs.indexedAt else obs.end(k * Batch - 1))
      val lat = Array.tabulate(n)(i => (obs.end(i) - release(i / Batch)) / 1e6)
      // an event beyond the last update lengthens the answers, which the gate counts
      val bySeq = events.groupMap(_.seq.toInt)(_.qid)
      val answers = Vector.tabulate(bySeq.keys.foldLeft(n - 1)(_ max _) + 1)(i => bySeq.getOrElse(i, Nil).toVector.sorted)
      round(obs, traced, obs.indexedAt, obs.end(n - 1) - obs.indexedAt, g0, lat, release, answers)
    }

    /** Check the answers, measure memory and return the result as JSON. */
    def finish(): String = {
      require(rounds.size >= minRounds, s"${rounds.size} timed rounds, at least $minRounds needed")
      if (spark != null) spark.stop()
      mark = System.nanoTime()

      // Correctness gate, outside the timed window.
      val (reference, matcherMs) = tracer.span("check.reference")(timeMs(Check.reference(in.stream, in.queries)))
      val answers = rounds.map(_.answers)
      val checks = Check.satisfied(last.satisfied, reference, in.expectedSatisfied) ++ Seq(
        Check.stableAnswers(directAnswers +: answers.toSeq).copy(
          name = if (stream) "stream_answers_equal_direct_replay" else "answers_equal_across_rounds"),
      )
      if (a.answersOut.nonEmpty)
        Files.write(Paths.get(a.answersOut), answers.head.map(_.mkString(" ")).asJava, StandardCharsets.UTF_8)
      phase("check")

      // Engine state after one full replay (paper Table 1), outside the timed window.
      val memMb = last.memoryRoots.map(SizeEstimator.estimate).sum / (1024.0 * 1024.0)
      phase("memory")

      val lats     = rounds.map(_.lat).toSeq
      val p50      = Stats.updatePercentile(lats, 0.50)
      val p99      = Stats.tailPercentile(lats, 0.99)
      // the untraced rounds; on the traced streaming path every round is traced
      val untraced = Some(rounds.filterNot(_.traced).toSeq).filter(_.nonEmpty).getOrElse(rounds.toSeq)

      val fields = mutable.ArrayBuffer[(String, Any)](
        "engine" -> a.engine, "name" -> last.name, "dataset" -> a.dataset, "path" -> a.path,
        "updates_per_round" -> n, "queries" -> in.queries.size,
        "rounds" -> rounds.size, "warmups" -> warmups(a.path), "measured_s" -> measuredS,
        "upd_per_s" -> pooledUpdPerS(untraced),
        "upd_per_s_round_median" -> median(untraced.map(_.updPerS)),
        "upd_per_s_rounds" -> rounds.map(_.updPerS),
        "gc_share" -> untraced.map(_.gcMs).sum / (untraced.map(_.wallNs).sum / 1e6),
        "gcs_per_round" -> untraced.map(_.gcs),
        "p50_ms" -> p50.value, "p50_samples" -> p50.samples, "p50_beyond" -> p50.beyond,
        "p99_ms" -> p99.value, "p99_samples" -> p99.samples, "p99_beyond" -> p99.beyond,
        "percentile_updates" -> p99.updates,
        "index_ms" -> median(indexMs), "index_ms_samples" -> indexMs.size,
        "session_s" -> sessionS, "mem_mb" -> memMb,
        "satisfied" -> last.satisfied.size, "expected_satisfied" -> in.expectedSatisfied,
        "checks" -> checks.map(c => Json.Raw(Json.obj("name" -> c.name, "ok" -> c.ok, "detail" -> c.detail))),
        "env" -> Json.Raw(env()),
        "phases_s" -> phases,
      )
      if (a.trace) fields += "layer" -> Json.Raw(layer(median(indexMs), matcherMs))
      if (a.trace && a.traceOut.nonEmpty) tracer.writeTo(Paths.get(a.traceOut))
      Json.obj(fields.toSeq: _*)
    }

    /** Per-layer metrics of a traced run. Per-round values are medians over
      * the traced rounds; ratios carry their bases.
      */
    private def layer(indexMs: Double, matcherMs: Double): String = {
      val traced = rounds.filter(_.traced).toSeq
      val plain  = rounds.filterNot(_.traced).toSeq

      // spans: one root per round, engine.update per update (stream.batch
      // between them on the streaming path), all from the recorded stamps
      traced.zipWithIndex.foreach { case (r, ri) =>
        val base = (ri + 1).toLong * 1000000L
        val root = tracer.record("bench.round", 0L, base, r.startNs, r.startNs + r.wallNs)
        if (stream) {
          r.batchRelease.indices.foreach { k =>
            val lastIdx = math.min((k + 1) * Batch, n) - 1
            val b = tracer.record("stream.batch", root, base, r.batchRelease(k), r.end(lastIdx))
            (k * Batch to lastIdx).foreach(i => tracer.record("engine.update", b, base + i + 1, r.start(i), r.end(i)))
          }
        } else (0 until n).foreach(i => tracer.record("engine.update", root, base + i + 1, r.start(i), r.end(i)))
      }
      val coverMs = (1 to 5).map { _ =>
        tracer.span("query.cover")(timeMs(in.queries.foreach(CoveringPaths.cover))._2)
      }

      def perRound(f: Round => Double): Double = median(traced.map(f))
      val busyMs   = perRound(_.busy.sum)
      val edgeMat  = last match {
        case t: TricEngine => t.edgeMat
        case i: InvEngine  => i.edgeMat
      }
      val affected = in.stream.count(e => Generic.generalizations(e).exists(edgeMat.contains))
      val notified = traced.head.answers.count(_.nonEmpty)
      val joinBuilds = last match {
        case t: TricEngine => t.jc.builds
        case i: InvEngine  => i.jc.builds
      }
      val paths = in.queries.map(q => CoveringPaths.cover(q))
      val m = mutable.LinkedHashMap[String, Any](
        "query.cover_ms" -> median(coverMs),
        "query.paths_per_query" -> paths.map(_.size).sum.toDouble / in.queries.size,
        "index_ms" -> indexMs,
        "busy_ms" -> busyMs,
        "tail_share" -> perRound(r => Stats.tailShare(r.busy, 0.01).value), "tail_share.base_ms" -> busyMs,
        "affected_ratio" -> affected.toDouble / n, "affected_ratio.base" -> n,
        "notify_ratio" -> notified.toDouble / n, "notify_ratio.base" -> n,
        "edge_view_rows" -> edgeMat.valuesIterator.map(_.size).sum,
        "join_builds" -> joinBuilds,
        "bindings" -> in.queries.map(q => last.bindings(q.id).size.toLong).sum,
        "alloc_kb_per_upd" -> perRound(_.allocBytes / 1024.0 / n),
        "gc_share" -> traced.map(_.gcMs).sum / (traced.map(_.wallNs).sum / 1e6),
        "traced_upd_per_s" -> pooledUpdPerS(traced),
        "trace_overhead_upd_per_s" -> (pooledUpdPerS(traced) - pooledUpdPerS(plain)),
        "check.matcher_ms" -> matcherMs,
      )
      last match {
        case t: TricEngine =>
          val nodes = mutable.ArrayBuffer.empty[t.Node]
          def walk(x: t.Node): Unit = { nodes += x; x.children.foreach(walk) }
          t.rootInd.valuesIterator.foreach(walk)
          m ++= Seq(
            "trie_nodes" -> nodes.size,
            "trie_share" -> paths.iterator.flatten.map(_.size).sum.toDouble / nodes.size,
            "trie_share.base_nodes" -> nodes.size,
            "view_rows" -> nodes.iterator.map(_.matV.size.toLong).sum,
          )
        case _ =>
      }
      if (stream) {
        val selfMs = tracer.selfTimes("stream.batch").map(_ / 1e6)
        m ++= Seq(
          "stream.session_s" -> sessionS,
          "stream.batches" -> traced.head.batchRelease.length,
          "stream.overhead_ms_per_batch" -> selfMs.sum / selfMs.size,
          "stream.engine_share" -> perRound(r => r.busy.sum / (r.wallNs / 1e6)),
        )
      }
      Json.value(m)
    }

    /** The settings a result depends on. */
    private def env(): String = {
      val rt = ManagementFactory.getRuntimeMXBean
      Json.obj(
        "stream_seed" -> in.streamSeed, "query_seed" -> in.querySeed, "order_seed" -> in.orderSeed,
        "stream_updates" -> n, "queries" -> in.queries.size,
        "query_config" -> in.cfg.toString,
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
        "jvm_flags" -> rt.getInputArguments.asScala.filterNot(_.startsWith("--add-opens")),
        "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName),
        "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
        "nproc" -> Runtime.getRuntime.availableProcessors,
        "warmups" -> warmups(a.path),
        "index_reps_per_round" -> IndexRepsPerRound, "index_warmups" -> IndexWarmups,
        "eden_mb" -> edenBytes / (1024 * 1024), "eden_share_step" -> EdenShareStep,
        "spark_cores" -> (if (stream) SparkCores else 0),
        "batch_size" -> (if (stream) Batch else 0),
        "stream_warmup_batches" -> (if (stream) StreamWarmupBatches else 0),
      )
    }
  }

  def main(argv: Array[String]): Unit = {
    // replies go to standard output; anything else the JVM prints, to standard error
    val reply = System.out
    System.setOut(System.err)
    def say(line: String): Unit = { reply.println(line); reply.flush() }

    val a  = parse(argv)
    val mk = Workloads.engines.getOrElse(a.engine, throw new IllegalArgumentException(s"unknown engine ${a.engine}"))
    val session = new Session(a, mk)
    say(s"ready ${session.minRounds}")
    val commands = new BufferedReader(new InputStreamReader(System.in, StandardCharsets.UTF_8))
    var cmd = commands.readLine()
    while (cmd == "round") { session.timedRound(); say("done"); cmd = commands.readLine() }
    require(cmd == "finish", s"unexpected command $cmd")
    Files.write(Paths.get(a.out), session.finish().getBytes(StandardCharsets.UTF_8))
    say("finished")
  }
}
