package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Harness
import repro.engine.ContinuousEngine
import repro.graph.Edge
import repro.graphdb.{GraphStore, Matcher}
import repro.query.{PatternEdge, QueryPattern, Vr}

/** Integration sweep: all seven engines must agree — with each other and with
  * the independent reference matcher over the final graph — on which queries
  * a realistic workload satisfies and on every variable binding. This is the
  * strongest internal-consistency check in the repo: TRIC's shared-trie
  * incremental answering, INV/INC's per-query recomputation and the graph-db
  * re-execution are three very different code paths to the same answer.
  */
class CrossEngineSpec extends AnyFunSuite {

  /** Every engine after replaying a workload, with what it reported per update. */
  private lazy val replays: Map[String, Seq[(ContinuousEngine, Vector[Set[Int]])]] =
    TestWorkloads.crossWorkloads.map { case (name, stream, queries) =>
      name -> Harness.allEngines.map { mk =>
        val e = mk()
        e.indexAll(queries)
        e -> stream.map(e.onUpdate(_).toSet)
      }
    }.toMap

  private def results(name: String): Seq[ContinuousEngine] = replays(name).map(_._1)

  private def reference(name: String): (Vector[repro.graph.Edge], Vector[repro.query.QueryPattern]) = {
    val (_, stream, queries) = TestWorkloads.crossWorkloads.find(_._1 == name).get
    (stream, queries)
  }

  for ((name, _, _) <- TestWorkloads.crossWorkloads) {

    test(s"[$name] all engines agree on the satisfied query set") {
      val engines = results(name)
      val sets = engines.map(e => e.name -> e.satisfied.toSet)
      sets.sliding(2).foreach {
        case Seq((n1, s1), (n2, s2)) =>
          assert(s1 == s2, s"$n1 vs $n2: only-first=${s1.diff(s2)} only-second=${s2.diff(s1)}")
        case _ =>
      }
    }

    test(s"[$name] all engines report the same queries after every update") {
      val (e0, out0) = replays(name).head
      for ((e, out) <- replays(name).tail) {
        val diff = out.indices.filter(i => out(i) != out0(i))
        diff.headOption.foreach(i => fail(s"${e.name} vs ${e0.name}: ${diff.size} of ${out.size} updates " +
          s"differ, first #$i: ${out(i)} vs ${out0(i)}"))
      }
    }

    test(s"[$name] satisfied set matches the reference matcher on the final graph") {
      val (stream, queries) = reference(name)
      val store = new GraphStore
      stream.foreach(store.add)
      val expected = queries.filter(q => Matcher.matchPattern(store, q).nonEmpty).map(_.id).toSet
      assert(results(name).head.satisfied.toSet == expected)
    }

    test(s"[$name] selectivity of the workload is as configured (0.4)") {
      val (_, queries) = reference(name)
      assert(results(name).head.satisfied.size == math.round(queries.size * 0.4).toInt)
    }

    for (engineIdx <- Harness.allEngines.indices) {
      test(s"[$name] engine #$engineIdx bindings equal the reference matcher's") {
        val (stream, queries) = reference(name)
        val engine = results(name)(engineIdx)
        val store = new GraphStore
        stream.foreach(store.add)
        for (q <- queries) {
          val expected = Matcher.matchPattern(store, q)
          assert(engine.bindings(q.id) == expected,
            s"${engine.name} query ${q.id} (${q.show}): " +
              s"missing=${expected.diff(engine.bindings(q.id)).take(3)} " +
              s"extra=${engine.bindings(q.id).diff(expected).take(3)}")
        }
      }
    }
  }

  test("labels containing spaces never join by accident (all engines vs brute force)") {
    // a key joining ("p q", "r") and ("p", "q r") with a space would match them
    val q = QueryPattern(0, Vector(PatternEdge(Vr("x"), "a", Vr("y")), PatternEdge(Vr("x"), "b", Vr("y"))))
    val stream = Vector(Edge("p q", "a", "r"), Edge("p", "b", "q r"), Edge("p q", "b", "r"))
    for (mk <- Harness.allEngines) {
      val e = mk()
      e.indexQuery(q)
      for (n <- 1 to stream.size) {
        e.onUpdate(stream(n - 1))
        assert(e.bindings(0) == BruteForce.bindings(stream.take(n), q), s"${e.name} after $n updates")
      }
      assert(e.bindings(0) == Set(Map("x" -> "p q", "y" -> "r")), e.name)
    }
  }

  test("engines report the paper's algorithm names") {
    assert(Harness.allEngines.map(_().name) ==
      Seq("TRIC", "TRIC+", "INV", "INV+", "INC", "INC+", "Neo4j"))
  }
}
