package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.Edge
import repro.query.{Cst, GEdge, PatternEdge, QueryPattern, Vr}
import repro.BruteForce

/** Unit tests for the TRIC trie index structure and answering phase. */
class TricEngineSpec extends AnyFunSuite {

  private def v(n: String) = Vr(n)
  private def c(l: String) = Cst(l)
  private def pe(s: repro.query.Term, l: String, t: repro.query.Term) = PatternEdge(s, l, t)

  /** The paper's Fig. 5 query set (Q1–Q4). */
  private def fig5Queries: Vector[QueryPattern] = Vector(
    QueryPattern(1, Vector(
      pe(v("a"), "hasMod", v("b")), pe(v("b"), "posted", c("pst1")),
      pe(v("b"), "posted", c("pst2")), pe(v("c"), "reply", c("pst2")))),
    QueryPattern(2, Vector(pe(v("a"), "hasMod", v("b")))),
    QueryPattern(3, Vector(
      pe(c("com1"), "hasCreator", v("a")), pe(v("a"), "posted", c("pst1")),
      pe(c("pst1"), "containedIn", v("b")))),
    QueryPattern(4, Vector(
      pe(v("a"), "hasMod", v("b")), pe(v("b"), "posted", c("pst1")),
      pe(c("pst1"), "containedIn", v("c")))),
  )

  test("paper Fig. 8: Q1, Q2, Q4 cluster under the same hasMod-rooted trie") {
    val t = new TricEngine(false)
    fig5Queries.foreach(t.indexQuery)
    val root = t.rootInd(GEdge(None, "hasMod", None))
    // Q2's single-edge path ends at the root itself
    assert(t.queryInd(2)._3.contains(root))
    // the root's child chain ?var posted pst1 is shared by Q1 and Q4
    val postedPst1 = root.children.find(_.key == GEdge(None, "posted", Some("pst1"))).get
    val lastNodesQ1 = t.queryInd(1)._3
    val lastNodesQ4 = t.queryInd(4)._3
    assert(lastNodesQ1.contains(postedPst1)) // Q1's P1 = hasMod → posted-pst1
    // Q4 extends the same shared node with containedIn
    val q4Last = lastNodesQ4.find(_.depth == 2).get
    assert(q4Last.parent == postedPst1)
    assert(q4Last.key == GEdge(Some("pst1"), "containedIn", None))
  }

  test("paper Fig. 8: rootInd has one trie per distinct first generic edge") {
    val t = new TricEngine(false)
    fig5Queries.foreach(t.indexQuery)
    // roots: hasMod(?,?), reply(?,pst2), hasCreator(com1,?)
    assert(t.rootInd.keySet == Set(
      GEdge(None, "hasMod", None),
      GEdge(None, "reply", Some("pst2")),
      GEdge(Some("com1"), "hasCreator", None)))
  }

  test("edgeInd maps a generic edge to every trie node keyed by it") {
    val t = new TricEngine(false)
    fig5Queries.foreach(t.indexQuery)
    // posted=(?var,pst1) appears under the hasMod trie and the hasCreator trie
    val nodes = t.edgeInd(GEdge(None, "posted", Some("pst1")))
    assert(nodes.size == 2)
    assert(nodes.map(_.depth).sorted == Seq(1, 1))
  }

  test("indexing identical structural paths twice does not duplicate trie nodes") {
    val t = new TricEngine(false)
    val q1 = QueryPattern(1, Vector(pe(v("x"), "knows", v("y")), pe(v("y"), "posted", c("p"))))
    val q2 = QueryPattern(2, Vector(pe(v("s"), "knows", v("t")), pe(v("t"), "posted", c("p"))))
    t.indexQuery(q1); t.indexQuery(q2)
    val root = t.rootInd(GEdge(None, "knows", None))
    assert(root.children.size == 1)
    assert(t.queryInd.collect { case (id, (_, _, lasts)) if lasts.contains(root.children.head) => id }.toSet == Set(1, 2))
  }

  test("single-edge query matches on first update") {
    val t = new TricEngine(false)
    t.indexQuery(QueryPattern(7, Vector(pe(v("x"), "knows", v("y")))))
    assert(t.onUpdate(Edge("a", "knows", "b")) == Set(7))
    assert(t.bindings(7) == Set(Map("x" -> "a", "y" -> "b")))
  }

  test("chain query matches only when the full chain is present, in any arrival order") {
    for (order <- Seq(Seq(0, 1), Seq(1, 0))) {
      val t = new TricEngine(false)
      t.indexQuery(QueryPattern(1, Vector(pe(v("x"), "knows", v("y")), pe(v("y"), "posted", c("p1")))))
      val es = Vector(Edge("a", "knows", "b"), Edge("b", "posted", "p1"))
      assert(t.onUpdate(es(order.head)).isEmpty)
      assert(t.onUpdate(es(order.last)) == Set(1), s"order $order")
      assert(t.bindings(1) == Set(Map("x" -> "a", "y" -> "b")))
    }
  }

  test("literal constraints filter matches") {
    val t = new TricEngine(false)
    t.indexQuery(QueryPattern(1, Vector(pe(c("a"), "knows", v("y")))))
    assert(t.onUpdate(Edge("b", "knows", "c")).isEmpty)
    assert(t.onUpdate(Edge("a", "knows", "c")) == Set(1))
  }

  test("cycle query requires closing edge and repeated-variable equality") {
    val t = new TricEngine(false)
    t.indexQuery(QueryPattern(1, Vector(
      pe(v("x"), "knows", v("y")), pe(v("y"), "knows", v("z")), pe(v("z"), "knows", v("x")))))
    assert(t.onUpdate(Edge("a", "knows", "b")).isEmpty)
    assert(t.onUpdate(Edge("b", "knows", "c")).isEmpty)
    // c -> d does NOT close the triangle
    assert(t.onUpdate(Edge("c", "knows", "d")).isEmpty)
    // c -> a closes it; the triangle matches in all three rotations
    assert(t.onUpdate(Edge("c", "knows", "a")) == Set(1))
    assert(t.bindings(1) == Set(
      Map("x" -> "a", "y" -> "b", "z" -> "c"),
      Map("x" -> "b", "y" -> "c", "z" -> "a"),
      Map("x" -> "c", "y" -> "a", "z" -> "b")))
  }

  test("duplicate updates are no-ops") {
    val t = new TricEngine(false)
    t.indexQuery(QueryPattern(1, Vector(pe(v("x"), "knows", v("y")))))
    assert(t.onUpdate(Edge("a", "knows", "b")) == Set(1))
    assert(t.onUpdate(Edge("a", "knows", "b")).isEmpty)
  }

  test("multi-path query joins path views on shared variables") {
    // star: ?x posted p1 and ?x posted p2
    val t = new TricEngine(false)
    t.indexQuery(QueryPattern(9, Vector(
      pe(v("x"), "posted", c("p1")), pe(v("x"), "posted", c("p2")))))
    assert(t.onUpdate(Edge("u1", "posted", "p1")).isEmpty)
    assert(t.onUpdate(Edge("u2", "posted", "p2")).isEmpty) // different user: no join
    assert(t.onUpdate(Edge("u1", "posted", "p2")) == Set(9))
    assert(t.bindings(9) == Set(Map("x" -> "u1")))
  }

  test("TRIC and TRIC+ agree on a randomized stream (caching is semantically transparent)") {
    val rng = new scala.util.Random(5)
    val qs = (0 until 12).map { i =>
      QueryPattern(i, Vector(
        pe(v("x"), s"l${i % 3}", v("y")), pe(v("y"), s"l${(i + 1) % 3}", v("z"))))
    }
    val es = Vector.tabulate(120)(i => Edge(s"n${rng.nextInt(15)}", s"l${rng.nextInt(3)}", s"n${rng.nextInt(15)}"))
    val a = new TricEngine(false); val b = new TricEngine(true)
    qs.foreach(a.indexQuery); qs.foreach(b.indexQuery)
    es.foreach { e => a.onUpdate(e); b.onUpdate(e) }
    assert(a.satisfied == b.satisfied)
    qs.foreach(q => assert(a.bindings(q.id) == b.bindings(q.id), s"query ${q.id}"))
    // and both agree with brute force on the final graph
    qs.foreach { q =>
      assert(a.bindings(q.id) == BruteForce.bindings(es.distinct, q), s"vs brute force, query ${q.id}")
    }
  }

  test("paper §4.2 Caching: TRIC builds per join, TRIC+ once per cached structure") {
    // paths a→b (parent step, propagation) and c (the final join's other side)
    val q = QueryPattern(1, Vector(pe(v("x"), "a", v("y")), pe(v("y"), "b", v("z")), pe(v("x"), "c", v("w"))))
    val warm = Vector(Edge("0", "c", "w"), Edge("0", "a", "1"), Edge("1", "b", "2"))
    val pairs = 20 // each pair runs three joins: propagation, parent step, final join
    val more = (1 to pairs).flatMap(i => Seq(Edge("0", "a", s"y$i"), Edge(s"y$i", "b", s"z$i")))
    val tric = new TricEngine(false); val plus = new TricEngine(true)
    for (t <- Seq(tric, plus)) { t.indexQuery(q); warm.foreach(t.onUpdate) }
    val (tric0, plus0) = (tric.jc.builds, plus.jc.builds)
    for (t <- Seq(tric, plus)) more.foreach(t.onUpdate)

    assert(tric.jc.builds - tric0 >= 3 * pairs)
    assert(tric.jc.size == 0)
    assert(plus.jc.builds == plus0)
    assert(plus.jc.builds == plus.jc.size)
    assert(tric.bindings(1).size == pairs + 1)
    assert(tric.bindings(1) == plus.bindings(1))
  }

  test("TRIC+ shares indexes by view and repeated variables") {
    // each query's paths are m and l, both trie roots; the l view is probed
    // as ?x l ?x (q1, a self-loop) or as ?x l ?z (q2, q3)
    val qs = Vector(
      QueryPattern(1, Vector(pe(v("x"), "m", v("y")), pe(v("x"), "l", v("x")))),
      QueryPattern(2, Vector(pe(v("x"), "m", v("y")), pe(v("x"), "l", v("z")))),
      QueryPattern(3, Vector(pe(v("s"), "m", v("t")), pe(v("s"), "l", v("u")))))
    val es = Vector(Edge("a", "l", "b"), Edge("c", "l", "c"), Edge("a", "m", "z1"), Edge("c", "m", "z2"))
    val plus = new TricEngine(true)
    qs.foreach(plus.indexQuery)
    es.foreach(plus.onUpdate)
    qs.foreach(q => assert(plus.bindings(q.id) == BruteForce.bindings(es, q), s"query ${q.id}"))
    assert(plus.bindings(1) == Set(Map("x" -> "c", "y" -> "z2")))
  }

  test("update arriving before any prefix exists is recovered once the prefix arrives") {
    val t = new TricEngine(false)
    t.indexQuery(QueryPattern(1, Vector(
      pe(v("x"), "a", v("y")), pe(v("y"), "b", v("z")), pe(v("z"), "c", v("w")))))
    // deepest edge first, then middle, then root
    assert(t.onUpdate(Edge("3", "c", "4")).isEmpty)
    assert(t.onUpdate(Edge("2", "b", "3")).isEmpty)
    assert(t.onUpdate(Edge("1", "a", "2")) == Set(1))
    assert(t.bindings(1) == Set(Map("x" -> "1", "y" -> "2", "z" -> "3", "w" -> "4")))
  }

  test("indexing a query after the first update fails, naming the query") {
    for (t <- Seq(new TricEngine(false), new TricEngine(true))) {
      t.indexQuery(QueryPattern(1, Vector(pe(v("x"), "a", v("y")))))
      t.onUpdate(Edge("1", "b", "2")) // no view holds it, but the graph has it
      val err = intercept[IllegalArgumentException](t.indexQuery(QueryPattern(42, Vector(pe(v("x"), "b", v("y"))))))
      assert(err.getMessage.contains("query 42"), err.getMessage)
      assert(!t.queryInd.contains(42) && t.rootInd.keySet == Set(GEdge(None, "a", None)))
    }
  }

  test("a view row derived by both semi-naive terms is stored once") {
    // ?x a ?y a ?z: the self-loop 1 a 1 extends the root's old row 0 a 1
    // (parent step) and, as the root's delta, itself (propagation)
    val t = new TricEngine(true)
    t.indexQuery(QueryPattern(1, Vector(pe(v("x"), "a", v("y")), pe(v("y"), "a", v("z")))))
    t.onUpdate(Edge("0", "a", "1"))
    assert(t.onUpdate(Edge("1", "a", "1")) == Set(1))
    val child = t.rootInd(GEdge(None, "a", None)).children.head
    assert(child.matV.rows.map(_.toVector) == Seq(Vector("1", "1", "1"), Vector("0", "1", "1")))
    assert(t.bindings(1) == Set(Map("x" -> "0", "y" -> "1", "z" -> "1"), Map("x" -> "1", "y" -> "1", "z" -> "1")))
  }

  test("pruned sub-tries do not produce affected queries") {
    val t = new TricEngine(false)
    t.indexQuery(QueryPattern(1, Vector(pe(v("x"), "a", v("y")), pe(v("y"), "b", v("z")))))
    t.indexQuery(QueryPattern(2, Vector(pe(v("x"), "a", v("y")), pe(v("y"), "c", v("z")))))
    t.onUpdate(Edge("1", "a", "2"))
    // completes only query 1's branch; query 2's branch (c) stays empty
    assert(t.onUpdate(Edge("2", "b", "3")) == Set(1))
    assert(t.satisfied == Set(1))
  }
}
