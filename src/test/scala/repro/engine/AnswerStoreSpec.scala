package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.BruteForce
import repro.bench.Harness
import repro.core.TricEngine
import repro.graph.Edge
import repro.graphdb.GraphDbEngine
import repro.inv.InvEngine
import repro.query.{CoveringPaths, Cst, PatternEdge, QueryPattern, Vr}
import repro.query.QueryPattern.Binding

/** The per-query answer store: delta engines append each new answer once,
  * recomputing engines replace their answers and report only growth; a
  * query's answers are stored as the answers of its variable-disjoint
  * groups of covering paths, and its bindings are their product.
  */
class AnswerStoreSpec extends AnyFunSuite {

  private def v(n: String) = Vr(n)
  private def pe(s: repro.query.Term, l: String, t: repro.query.Term) = PatternEdge(s, l, t)

  /** Queries over one label whose covering paths genericize to one trie
    * node (BIO's shape): a self-loop update seeds both paths with the same
    * delta, and both give the answers that use it twice.
    */
  private val sharedEnd = Vector(
    QueryPattern(1, Vector(pe(v("x"), "l", v("y")), pe(v("x"), "l", v("z")))),
    QueryPattern(2, Vector(pe(v("x"), "l", v("y")), pe(v("y"), "l", v("z")), pe(v("y"), "l", v("w")))),
    QueryPattern(3, Vector(pe(v("x"), "l", v("y")), pe(v("z"), "l", v("y")))),
  )

  /** Edges over four vertices, self-loops and repeats included. */
  private val stream: Vector[Edge] = {
    val rng = new scala.util.Random(17)
    val es  = Vector.fill(40)(Edge(s"n${rng.nextInt(4)}", "l", s"n${rng.nextInt(4)}"))
    (Edge("n0", "l", "n0") +: es) ++ es.take(5)
  }

  test("the covering paths of the test queries end at one trie node") {
    val t = new TricEngine(true)
    sharedEnd.foreach(t.indexQuery)
    for (q <- sharedEnd) {
      val lasts = t.queryInd(q.id)._3
      assert(lasts.exists(n => lasts.count(_ eq n) >= 2), s"query ${q.id}")
    }
  }

  test("delta engines store each answer once and report what INV reports, update by update") {
    def replay(e: ContinuousEngine) = { sharedEnd.foreach(e.indexQuery); stream.map(e.onUpdate(_).toSet) }
    val inv      = new InvEngine(false, false)
    val expected = replay(inv)
    for (e <- Seq(new TricEngine(false), new TricEngine(true), new InvEngine(true, false), new InvEngine(true, true))) {
      assert(replay(e) == expected, e.name)
      for (q <- sharedEnd) {
        assert(e.bindings(q.id) == BruteForce.bindings(stream, q), s"${e.name}, query ${q.id}")
        assert(e.bindings(q.id) == inv.bindings(q.id), s"${e.name}, query ${q.id}")
        assert(e.storedRows(q.id) == e.bindings(q.id).size, s"${e.name}, query ${q.id}")
      }
    }
  }

  test("recomputing engines do not report an update that touches a query but adds no answer") {
    val q = QueryPattern(1, Vector(pe(v("x"), "k", v("y")), pe(v("y"), "p", Cst("t1"))))
    for (e <- Seq(new InvEngine(false, false), new InvEngine(false, true), new GraphDbEngine)) {
      e.indexQuery(q)
      assert(e.onUpdate(Edge("a", "k", "b")).isEmpty, e.name)
      assert(e.onUpdate(Edge("b", "p", "t1")) == Set(1), e.name)
      assert(e.onUpdate(Edge("c", "k", "d")).isEmpty, e.name)  // k edge, no p edge from d
      assert(e.onUpdate(Edge("c", "p", "t2")).isEmpty, e.name) // not the query's p edge
      assert(e.onUpdate(Edge("c", "k", "b")) == Set(1), e.name)
      assert(e.bindings(1) == Set(Map("x" -> "a", "y" -> "b"), Map("x" -> "c", "y" -> "b")), e.name)
      assert(e.storedRows(1) == 2, e.name)
    }
  }

  test("the map form of record reports all answers so far only when they grew") {
    val e = new ContinuousEngine {
      def name = "maps"
      def indexQuery(q: QueryPattern): Unit = ()
      def onUpdate(e: Edge): collection.Set[Int] = Set.empty
      def memoryRoots: Seq[AnyRef] = Nil
      def recordMaps(qid: Int, bs: Set[Binding]): Boolean = record(qid, bs)
    }
    val one = Set(Map("x" -> "a", "y" -> "b"))
    val two = one + Map("x" -> "c", "y" -> "b")
    assert(!e.recordMaps(1, Set.empty) && e.satisfied.isEmpty)
    assert(e.recordMaps(1, one))
    assert(!e.recordMaps(1, one))
    assert(e.recordMaps(1, two))
    assert(!e.recordMaps(1, two))
    assert(e.bindings(1) == two && e.storedRows(1) == 2 && e.satisfied == Set(1))
  }

  /** Q12's shape on BIO: variable leaves and constants, each edge into one
    * hub, so that every covering path is a group of its own.
    */
  private def star(id: Int, leaves: Int, label: String = "i") = QueryPattern(id,
    (0 until leaves).map(k => pe(v(s"v$k"), label, Cst("h"))).toVector ++
      Vector(pe(Cst("c1"), label, Cst("h")), pe(Cst("c2"), label, Cst("h"))))

  private def groupsOf(q: QueryPattern) = new PathEval.FinalJoin(CoveringPaths.cover(q)).groups

  /** Every engine of the harness replays `qs` over `es`; all of them must
    * report the same queries after every update and end with the
    * reference bindings. Returns the reports.
    */
  private def agree(qs: Seq[QueryPattern], es: Vector[Edge]): Vector[Set[Int]] = {
    val engines = Harness.allEngines.map(_())
    val outs = engines.map { e => e.indexAll(qs); es.map(e.onUpdate(_).toSet) }
    for ((e, out) <- engines.zip(outs)) {
      assert(out == outs.head, s"${e.name} against ${engines.head.name}")
      for (q <- qs) {
        val expected = BruteForce.bindings(es, q)
        assert(e.bindings(q.id) == expected, s"${e.name}, query ${q.id}")
        assert(e.storedRows(q.id) == expected.size, s"${e.name}, query ${q.id}")
      }
    }
    outs.head
  }

  test("a hub star whose last constant edge arrives late, and a disconnected pattern: all engines agree") {
    val hub   = star(10, 3)
    val apart = QueryPattern(11, Vector(pe(v("x"), "a", v("y")), pe(v("z"), "b", v("w"))))
    assert(groupsOf(hub).size == 5 && groupsOf(apart).size == 2)
    val early = Vector(Edge("c1", "i", "h"), Edge("n0", "i", "h"), Edge("p0", "a", "p1"), Edge("n1", "i", "h"),
      Edge("n0", "i", "h"), Edge("p1", "b", "p2"), Edge("n2", "i", "h"), Edge("p1", "a", "p1"), Edge("n1", "i", "x"))
    val late  = Vector(Edge("c2", "i", "h"), Edge("n3", "i", "h"), Edge("p2", "b", "p0"), Edge("c2", "i", "h"))
    val outs  = agree(Seq(hub, apart), early ++ late)
    assert(outs.indexWhere(_.contains(10)) == early.size, outs)
    assert(outs.drop(early.size) == Vector(Set(10), Set(10), Set(11), Set()), outs)
  }

  test("a query whose two-path group has no answer yet at activation is reported only once that group fills") {
    // groups {?x -a-> h} and {?y -b-> k1, ?y -c-> k2}
    val q  = QueryPattern(1, Vector(pe(v("x"), "a", Cst("h")), pe(v("y"), "b", Cst("k1")), pe(v("y"), "c", Cst("k2"))))
    assert(groupsOf(q).map(_.size).sorted == Vector(1, 2))
    val es = Vector(
      Edge("a1", "a", "h"), Edge("y1", "b", "k1"),
      Edge("y2", "c", "k2"), // every view has a row: the first update past the gate
      Edge("a2", "a", "h"), Edge("y3", "b", "k1"),
      Edge("y1", "c", "k2"), // the two-path group's first answer
      Edge("a3", "a", "h"), Edge("y2", "b", "k1"), Edge("y2", "b", "k1"))
    assert(agree(Seq(q), es) == Vector(Set(), Set(), Set(), Set(), Set(), Set(1), Set(1), Set(1), Set()))
  }

  test("a star of k variable leaves over n edges stores k·n rows plus its constant groups, for n^k bindings") {
    val (k, n) = (4, 220)
    val q  = star(1, k)
    val es = (0 until n - 2).map(i => Edge(s"n$i", "i", "h")).toVector ++ Vector(Edge("c1", "i", "h"), Edge("c2", "i", "h"))
    val bindings = BigInt(n).pow(k)
    assert(bindings > Int.MaxValue)
    for (mk <- Harness.allEngines) {
      val e = mk()
      if (!e.isInstanceOf[GraphDbEngine]) { // it stores its map answers as one group: n^k rows
        e.indexQuery(q)
        assert(es.map(e.onUpdate(_).nonEmpty) == es.indices.map(_ == n - 1), e.name)
        assert(e.storedRows(1) == bindings, e.name)
        assert(e.groupRows(1) == k * n + 2, e.name)
      }
    }
  }

  test("no final join of a multi-group query builds an index with an empty key") {
    val qs = Seq(star(1, 3), QueryPattern(2, Vector(pe(v("x"), "i", Cst("h")), pe(v("y"), "b", Cst("k1")),
      pe(v("y"), "c", Cst("k2")), pe(v("z"), "i", v("w")))))
    val es = Vector(Edge("c1", "i", "h"), Edge("n0", "i", "h"), Edge("y1", "b", "k1"), Edge("c2", "i", "h"),
      Edge("y1", "c", "k2"), Edge("n0", "i", "n1"), Edge("y2", "c", "k2"), Edge("y2", "b", "k1"))
    val t  = new TricEngine(true)
    t.indexAll(qs)
    es.foreach(t.onUpdate)
    assert(qs.forall(q => t.bindings(q.id) == BruteForce.bindings(es, q)))
    val specs = t.jc.specs.toVector
    assert(specs.nonEmpty && specs.forall(_.cols.nonEmpty), specs)
  }
}
