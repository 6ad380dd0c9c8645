package repro.inv

import org.scalatest.funsuite.AnyFunSuite
import repro.BruteForce
import repro.graph.Edge
import repro.query.{Cst, GEdge, PatternEdge, QueryPattern, Vr}

/** Unit tests for the INV/INC inverted-index baselines. */
class InvEngineSpec extends AnyFunSuite {

  private def v(n: String) = Vr(n)
  private def c(l: String) = Cst(l)
  private def pe(s: repro.query.Term, l: String, t: repro.query.Term) = PatternEdge(s, l, t)

  private def engines: Seq[InvEngine] = Seq(
    new InvEngine(false, false), new InvEngine(false, true),
    new InvEngine(true, false), new InvEngine(true, true))

  test("engine names follow the paper") {
    assert(engines.map(_.name) == Seq("INV", "INV+", "INC", "INC+"))
  }

  test("edgeInd maps generic edges to all queries containing them (paper Fig. 12)") {
    val e = new InvEngine(false, false)
    e.indexQuery(QueryPattern(1, Vector(pe(v("a"), "hasMod", v("b")), pe(v("b"), "posted", c("pst1")))))
    e.indexQuery(QueryPattern(2, Vector(pe(v("a"), "hasMod", v("b")))))
    assert(e.edgeInd(GEdge(None, "hasMod", None)).toSet == Set(1, 2))
    assert(e.edgeInd(GEdge(None, "posted", Some("pst1"))).toSet == Set(1))
  }

  for (eng <- engines) {
    test(s"${eng.name}: indexing a query after the first update fails, naming the query") {
      eng.indexQuery(QueryPattern(1, Vector(pe(v("x"), "a", v("y")))))
      eng.onUpdate(Edge("1", "b", "2"))
      val err = intercept[IllegalArgumentException](eng.indexQuery(QueryPattern(42, Vector(pe(v("x"), "b", v("y"))))))
      assert(err.getMessage.contains("query 42"), err.getMessage)
      assert(!eng.queryInd.contains(42))
    }
  }

  for (eng <- engines) {
    test(s"${eng.name}: single-edge query matches on first update") {
      eng.indexQuery(QueryPattern(7, Vector(pe(v("x"), "knows", v("y")))))
      assert(eng.onUpdate(Edge("a", "knows", "b")) == Set(7))
      assert(eng.bindings(7) == Set(Map("x" -> "a", "y" -> "b")))
    }
  }

  for (mk <- Seq(() => new InvEngine(false, false), () => new InvEngine(false, true),
                 () => new InvEngine(true, false), () => new InvEngine(true, true))) {
    val e0 = mk()
    test(s"${e0.name}: chain query in both arrival orders") {
      for (order <- Seq(Seq(0, 1), Seq(1, 0))) {
        val e = mk()
        e.indexQuery(QueryPattern(1, Vector(pe(v("x"), "knows", v("y")), pe(v("y"), "posted", c("p1")))))
        val es = Vector(Edge("a", "knows", "b"), Edge("b", "posted", "p1"))
        assert(e.onUpdate(es(order.head)).isEmpty)
        assert(e.onUpdate(es(order.last)) == Set(1), s"order $order")
        assert(e.bindings(1) == Set(Map("x" -> "a", "y" -> "b")))
      }
    }

    test(s"${e0.name}: cycle query with repeated-variable equality") {
      val e = mk()
      e.indexQuery(QueryPattern(1, Vector(
        pe(v("x"), "knows", v("y")), pe(v("y"), "knows", v("z")), pe(v("z"), "knows", v("x")))))
      assert(e.onUpdate(Edge("a", "knows", "b")).isEmpty)
      assert(e.onUpdate(Edge("b", "knows", "c")).isEmpty)
      assert(e.onUpdate(Edge("c", "knows", "d")).isEmpty)
      assert(e.onUpdate(Edge("c", "knows", "a")) == Set(1))
      // the triangle matches in all three rotations
      assert(e.bindings(1) == Set(
        Map("x" -> "a", "y" -> "b", "z" -> "c"),
        Map("x" -> "b", "y" -> "c", "z" -> "a"),
        Map("x" -> "c", "y" -> "a", "z" -> "b")))
    }

    test(s"${e0.name}: multi-path star query joins on the shared center") {
      val e = mk()
      e.indexQuery(QueryPattern(9, Vector(
        pe(v("x"), "posted", c("p1")), pe(v("x"), "posted", c("p2")))))
      assert(e.onUpdate(Edge("u1", "posted", "p1")).isEmpty)
      assert(e.onUpdate(Edge("u2", "posted", "p2")).isEmpty)
      assert(e.onUpdate(Edge("u1", "posted", "p2")) == Set(9))
      assert(e.bindings(9) == Set(Map("x" -> "u1")))
    }

    test(s"${e0.name}: agrees with brute force on a randomized stream") {
      val rng = new scala.util.Random(17)
      val e = mk()
      val qs = (0 until 10).map { i =>
        QueryPattern(i, Vector(
          pe(v("x"), s"l${i % 3}", v("y")), pe(v("y"), s"l${(i + 1) % 3}", v("z"))))
      }
      qs.foreach(e.indexQuery)
      val es = Vector.tabulate(100)(_ => Edge(s"n${rng.nextInt(12)}", s"l${rng.nextInt(3)}", s"n${rng.nextInt(12)}"))
      es.foreach(e.onUpdate)
      qs.foreach { q =>
        assert(e.bindings(q.id) == BruteForce.bindings(es.distinct, q), s"query ${q.id}")
      }
      assert(e.satisfied == qs.filter(q => BruteForce.satisfied(es.distinct, q)).map(_.id).toSet)
    }
  }

  test("INC: update touching two covering paths still joins delta against full views") {
    // both paths use the same generic edge label: ?x l p1 and ?x l p2
    for (caching <- Seq(false, true)) {
      val e = new InvEngine(true, caching)
      e.indexQuery(QueryPattern(3, Vector(pe(v("x"), "l", v("y")), pe(v("x"), "l", v("z")))))
      assert(e.onUpdate(Edge("a", "l", "b")) == Set(3)) // y=z=b is a valid homomorphism
      assert(e.bindings(3).contains(Map("x" -> "a", "y" -> "b", "z" -> "b")))
      e.onUpdate(Edge("a", "l", "c"))
      assert(e.bindings(3) == Set(
        Map("x" -> "a", "y" -> "b", "z" -> "b"), Map("x" -> "a", "y" -> "b", "z" -> "c"),
        Map("x" -> "a", "y" -> "c", "z" -> "b"), Map("x" -> "a", "y" -> "c", "z" -> "c")))
    }
  }

  test("caching variants never exceed the builds of their non-caching counterparts") {
    def run(caching: Boolean): Long = {
      val e = new InvEngine(false, caching)
      e.indexQuery(QueryPattern(1, Vector(pe(v("x"), "a", v("y")), pe(v("y"), "b", v("z")))))
      val rng = new scala.util.Random(3)
      (0 until 150).foreach(_ =>
        e.onUpdate(Edge(s"n${rng.nextInt(10)}", if (rng.nextBoolean()) "a" else "b", s"n${rng.nextInt(10)}")))
      e.jc.builds
    }
    assert(run(true) < run(false))
  }
}
