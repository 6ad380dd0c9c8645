package repro.bench

import org.apache.spark.util.SizeEstimator
import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorkloads
import repro.core.TricEngine
import repro.graph.Edge
import repro.inv.InvEngine
import repro.query.{PatternEdge, QueryPattern, Vr}

/** Unit tests for the measurement harness itself. */
class HarnessSpec extends AnyFunSuite {

  private def q(id: Int) = QueryPattern(id, Vector(PatternEdge(Vr("x"), "l", Vr("y"))))
  private def stream(n: Int): Vector[Edge] =
    Vector.tabulate(n)(i => Edge(s"a$i", "l", s"b$i"))

  test("run reports one checkpoint per requested stream position") {
    val r = Harness.run(() => new TricEngine(false), Seq(q(0)), stream(100), Seq(50, 100), 60000)
    assert(r.checkpoints.map(_.edges) == Vector(50, 100))
    assert(r.processed == 100)
    assert(r.timedOutAt.isEmpty)
    assert(r.algo == "TRIC")
  }

  test("run counts satisfied queries") {
    val r = Harness.run(() => new TricEngine(false), Seq(q(0)), stream(10), Seq(10), 60000)
    assert(r.satisfied == 1) // the single-edge pattern matches immediately
  }

  test("a zero budget times out on the first update") {
    val r = Harness.run(() => new TricEngine(false), Seq(q(0)), stream(100), Seq(100), 0)
    assert(r.timedOutAt.isDefined)
    assert(r.processed < 100)
  }

  test("memory estimation is positive and grows with state") {
    val small = Harness.run(() => new TricEngine(false), Seq(q(0)), stream(10), Seq(10), 60000)
    val big   = Harness.run(() => new TricEngine(false), Seq(q(0)), stream(2000), Seq(2000), 60000)
    assert(small.memBytes > 0)
    assert(big.memBytes > small.memBytes)
  }

  test("memory counts a structure reachable from two roots once") {
    // the workload's queries share trie prefixes, so trie nodes and their
    // views are reachable from rootInd, edgeInd, queryInd and the join cache
    val (_, stream, queries) = TestWorkloads.crossWorkloads.head
    for (caching <- Seq(false, true)) {
      val e = new TricEngine(caching)
      e.indexAll(queries)
      e.replay(stream)
      assert(Harness.memoryOf(e) <= SizeEstimator.estimate(e), e.name)
    }
  }

  test("memory counts the edge set that drops a repeated edge") {
    // Table 1 and the benchmark's mem_mb sum the memory roots
    for (e <- Seq(new TricEngine(false), new TricEngine(true)))
      assert(e.memoryRoots.exists(_ eq e.edgeSet), e.name)
    for (inc <- Seq(false, true); caching <- Seq(false, true)) {
      val e = new InvEngine(inc, caching)
      assert(e.memoryRoots.exists(_ eq e.edgeSet), e.name)
    }
  }

  test("overallAvgMs is total time over processed updates") {
    val r = Harness.run(() => new TricEngine(false), Seq(q(0)), stream(100), Seq(100), 60000)
    assert(math.abs(r.overallAvgMs - r.totalMs / r.processed) < 1e-9)
  }

  test("cells renders timeouts as paper-style asterisks") {
    val r = Harness.RunResult("X", 0, Vector(Harness.Checkpoint(50, 1.0)), Some(70), 0, 0, 100, 70)
    assert(Harness.cells(r, Seq(50, 100)) == Seq("1.00", "*70"))
  }

  test("allEngines provides the paper's seven algorithms in plot order") {
    assert(Harness.allEngines.map(_().name) ==
      Seq("TRIC", "TRIC+", "INV", "INV+", "INC", "INC+", "Neo4j"))
  }

  test("fmt renders magnitudes compactly") {
    assert(Harness.fmt(123.4) == "123")
    assert(Harness.fmt(12.34) == "12.34")
    assert(Harness.fmt(0.1234) == "0.1234")
    assert(Harness.fmt(Double.NaN) == "-")
  }
}
