package repro.tricbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TricEngine
import repro.engine.ContinuousEngine
import repro.graph.Edge
import repro.query.QueryPattern

/** TRIC+ with one answer withheld: the first query it reports is never
  * reported or recorded as satisfied.
  */
final class DropFirstAnswer extends ContinuousEngine {
  private val inner  = new TricEngine(caching = true)
  private var victim = -1
  def name: String = "TRIC+ minus one answer"
  def indexQuery(q: QueryPattern): Unit = inner.indexQuery(q)
  def memoryRoots: Seq[AnyRef] = inner.memoryRoots
  def onUpdate(e: Edge): collection.Set[Int] = {
    val r = inner.onUpdate(e)
    if (victim < 0 && r.nonEmpty) victim = r.head
    val kept = r.filterNot(_ == victim)
    kept.foreach(q => record(q, inner.bindings(q)))
    kept
  }
}

class CheckSpec extends AnyFunSuite {

  private def args(engine: String) = EngineRun.Args(
    dataset = "bio", path = "direct", engine = engine, streamSeed = 13, querySeed = 42, orderSeed = 1,
    trace = false, out = "", traceOut = "", answersOut = "", localDir = "")

  /** A session's result after its fewest timed rounds. */
  private def run(mk: () => ContinuousEngine): String = {
    val s = new EngineRun.Session(args("tric_plus"), mk)
    (1 to s.minRounds).foreach(_ => s.timedRound())
    s.finish()
  }

  test("the gate passes an engine that answers correctly") {
    val json = run(Workloads.engines("tric_plus"))
    assert(!json.contains("\"ok\":false"), json)
    assert(json.contains("\"satisfied\":25,\"expected_satisfied\":25"), json)
  }

  test("a corrupted engine output is reported as failed") {
    val json = run(() => new DropFirstAnswer)
    assert(json.contains("\"name\":\"satisfied_equals_reference\",\"ok\":false"), json)
    assert(json.contains("\"name\":\"satisfied_count_equals_selectivity\",\"ok\":false"), json)
  }

  test("per-update answers are compared update by update") {
    assert(Check.disagreements(Seq(Seq(1), Seq(), Seq(2, 3)), Seq(Seq(1), Seq(), Seq(2, 3))) == 0)
    assert(Check.disagreements(Seq(Seq(1), Seq(), Seq(2, 3)), Seq(Seq(1), Seq(4), Seq(2))) == 2)
    assert(Check.disagreements(Seq(Seq(1), Seq()), Seq(Seq(1))) == 1)
    assert(!Check.stableAnswers(Seq(Seq(Seq(1)), Seq(Seq(2)))).ok)
  }

  test("the reference matcher satisfies round(σ·|Q_DB|) queries of each workload") {
    for (ds <- Seq("snb", "bio")) {
      val in = Workloads.inputs(ds, Workloads.defaultStreamSeed(ds), Workloads.defaultQuerySeed, orderSeed = 5)
      assert(Check.reference(in.stream, in.queries).size == in.expectedSatisfied, ds)
    }
  }
}
