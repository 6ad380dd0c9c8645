package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.BruteForce
import repro.core.TricEngine
import repro.graph.Edge
import repro.graphdb.GraphDbEngine
import repro.inv.InvEngine
import repro.query.{Cst, PatternEdge, QueryPattern, Vr}
import repro.query.QueryPattern.Binding

/** The per-query answer store: delta engines append each new answer once,
  * recomputing engines replace their answers and report only growth.
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
}
