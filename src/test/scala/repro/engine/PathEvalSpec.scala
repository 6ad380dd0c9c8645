package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.BruteForce
import repro.core.TricEngine
import repro.graph.Edge
import repro.graphdb.GraphDbEngine
import repro.inv.InvEngine
import repro.query.{CoveringPaths, Cst, GEdge, Generic, PatternEdge, QueryPattern, Vr}

import scala.collection.mutable

/** Unit tests for path materialization (full + delta) and the final
  * cross-path join with variable constraints.
  */
class PathEvalSpec extends AnyFunSuite {

  private def pe(s: repro.query.Term, l: String, t: repro.query.Term) = PatternEdge(s, l, t)

  /** Build generic-edge views from a set of concrete edges (as both engines do). */
  private def mats(edges: Seq[Edge], paths: Seq[Vector[PatternEdge]]): GEdge => Option[Rel] = {
    val m = mutable.HashMap.empty[GEdge, Rel]
    for (p <- paths; peg <- p.map(Generic.of)) m.getOrElseUpdate(peg, new Rel(2))
    for (e <- edges.distinct; (g, r) <- m if g.matches(e)) r.append(Array(e.src, e.dst))
    m.get
  }

  private val edges = Seq(
    Edge("f1", "hasMod", "p1"), Edge("f2", "hasMod", "p2"),
    Edge("p1", "posted", "pst1"), Edge("p2", "posted", "pst1"), Edge("p2", "posted", "pst2"),
    Edge("pst1", "containedIn", "fo1"))

  test("evalPathFull materializes a two-edge path") {
    val p  = Vector(pe(Vr("x"), "hasMod", Vr("y")), pe(Vr("y"), "posted", Cst("pst1")))
    val r  = PathEval.evalPathFull(p, mats(edges, Seq(p)), new JoinCache(false))
    assert(r.rows.map(_.toVector).toSet == Set(
      Vector("f1", "p1", "pst1"), Vector("f2", "p2", "pst1")))
  }

  test("evalPathFull of a three-edge chain") {
    val p = Vector(
      pe(Vr("x"), "hasMod", Vr("y")), pe(Vr("y"), "posted", Vr("z")), pe(Vr("z"), "containedIn", Vr("w")))
    val r = PathEval.evalPathFull(p, mats(edges, Seq(p)), new JoinCache(false))
    assert(r.rows.map(_.toVector).toSet == Set(
      Vector("f1", "p1", "pst1", "fo1"), Vector("f2", "p2", "pst1", "fo1")))
  }

  test("evalPathFull enforces repeated-variable equality (self-loop)") {
    val loopEdges = Seq(Edge("a", "l", "a"), Edge("a", "l", "b"))
    val p = Vector(pe(Vr("x"), "l", Vr("x")))
    val r = PathEval.evalPathFull(p, mats(loopEdges, Seq(p)), new JoinCache(false))
    assert(r.rows.map(_.toVector).toSet == Set(Vector("a", "a")))
  }

  test("evalPathFull enforces repeated variables across positions (cycle path)") {
    val cyc = Seq(Edge("a", "l", "b"), Edge("b", "l", "a"), Edge("b", "l", "c"))
    val p = Vector(pe(Vr("x"), "l", Vr("y")), pe(Vr("y"), "l", Vr("x")))
    val r = PathEval.evalPathFull(p, mats(cyc, Seq(p)), new JoinCache(false))
    assert(r.rows.map(_.toVector).toSet == Set(Vector("a", "b", "a"), Vector("b", "a", "b")))
  }

  test("evalPathFull returns empty when a view is empty") {
    val p = Vector(pe(Vr("x"), "hasMod", Vr("y")), pe(Vr("y"), "nosuch", Vr("z")))
    val r = PathEval.evalPathFull(p, mats(edges, Seq(p)), new JoinCache(false))
    assert(r.isEmpty)
  }

  test("evalPathDelta finds only matches using the update, at any position") {
    val p = Vector(pe(Vr("x"), "hasMod", Vr("y")), pe(Vr("y"), "posted", Cst("pst1")))
    val fn = mats(edges, Seq(p))
    // update = the posted edge of p2: only the f2 row uses it
    val r1 = PathEval.evalPathDelta(p, fn, new JoinCache(false), Edge("p2", "posted", "pst1"))
    assert(r1.rows.map(_.toVector).toSet == Set(Vector("f2", "p2", "pst1")))
    // update = the hasMod edge of f1: only the f1 row uses it
    val r2 = PathEval.evalPathDelta(p, fn, new JoinCache(false), Edge("f1", "hasMod", "p1"))
    assert(r2.rows.map(_.toVector).toSet == Set(Vector("f1", "p1", "pst1")))
  }

  test("evalPathDelta is empty for an update the path cannot use") {
    val p = Vector(pe(Vr("x"), "hasMod", Vr("y")), pe(Vr("y"), "posted", Cst("pst1")))
    val r = PathEval.evalPathDelta(p, mats(edges, Seq(p)), new JoinCache(false), Edge("p2", "posted", "pst2"))
    assert(r.isEmpty)
  }

  test("evalPathDelta union over all seed positions equals full for single-use updates") {
    val p  = Vector(pe(Vr("x"), "l", Vr("y")), pe(Vr("y"), "l", Vr("z")))
    val es = Seq(Edge("a", "l", "b"), Edge("b", "l", "c"), Edge("c", "l", "d"))
    val fn = mats(es, Seq(p))
    val all = es.flatMap(e => PathEval.evalPathDelta(p, fn, new JoinCache(false), e).rows.map(_.toVector)).toSet
    val full = PathEval.evalPathFull(p, fn, new JoinCache(false)).rows.map(_.toVector).toSet
    assert(all == full)
  }

  test("joinPaths joins two paths on their shared variable") {
    val p1 = Vector(pe(Vr("x"), "hasMod", Vr("y")), pe(Vr("y"), "posted", Cst("pst1")))
    val p2 = Vector(pe(Vr("y"), "posted", Cst("pst2")))
    val fn = mats(edges, Seq(p1, p2))
    val jc = new JoinCache(false)
    val rs = Vector(PathEval.evalPathFull(p1, fn, jc), PathEval.evalPathFull(p2, fn, jc))
    val fj = new PathEval.FinalJoin(Vector(p1, p2))
    val bs = fj.from(0, rs(0).rows, rs, jc).map(r => fj.groupVars.head.zip(r).toMap).toSet
    // only p2 posted both pst1 and pst2
    assert(bs == Set(Map("x" -> "f2", "y" -> "p2")))
  }

  test("joinPaths with an empty path relation is empty") {
    val p1 = Vector(pe(Vr("x"), "hasMod", Vr("y")))
    assert(new PathEval.FinalJoin(Vector(p1)).from(0, Vector.empty, Vector(new Rel(2)), new JoinCache(false)).isEmpty)
  }

  test("joinPaths on disjoint variables forms a cross product") {
    val p1 = Vector(pe(Vr("x"), "hasMod", Vr("y")))
    val p2 = Vector(pe(Vr("z"), "containedIn", Vr("w")))
    val fn = mats(edges, Seq(p1, p2))
    val jc = new JoinCache(false)
    val rs = Vector(PathEval.evalPathFull(p1, fn, jc), PathEval.evalPathFull(p2, fn, jc))
    val fj = new PathEval.FinalJoin(Vector(p1, p2))
    // two groups, joined apart: the query's answers are their product
    assert(fj.groups == Vector(Vector(0), Vector(1)))
    assert(fj.groupVars == Vector(Vector("x", "y"), Vector("w", "z")))
    val g0 = fj.from(0, rs(0).rows, rs, jc).map(_.toVector).toSet
    val g1 = fj.from(1, rs(1).rows, rs, jc).map(_.toVector).toSet
    assert(g0 == Set(Vector("f1", "p1"), Vector("f2", "p2")))
    assert(g1 == Set(Vector("fo1", "pst1")))
    assert(g0.size * g1.size == 2) // 2 hasMod rows x 1 containedIn row
  }

  test("final-join rows follow the sorted variables from every seed path") {
    // covering paths ?z->?y, ?z->?x and ?w->?x each meet the variables in an
    // order other than the sorted one, so every seed path needs reordering
    val q = QueryPattern(0, Vector(
      pe(Vr("z"), "a", Vr("y")), pe(Vr("z"), "c", Vr("x")), pe(Vr("w"), "b", Vr("x"))))
    val es = Seq(
      Edge("z1", "a", "y1"), Edge("z1", "a", "y2"), Edge("z1", "c", "x1"), Edge("w1", "b", "x1"),
      Edge("w2", "b", "x1"), Edge("z2", "a", "y3"), Edge("z2", "c", "x2"), Edge("w3", "b", "x2"),
      Edge("z3", "a", "y4"))
    val paths = CoveringPaths.cover(q)
    val fj    = new PathEval.FinalJoin(paths)
    assert(fj.groupVars == Vector(q.varNames))
    assert(paths.size == 3, paths)
    val expected = BruteForce.bindings(es, q)
    assert(expected.size == 5)
    val fn = mats(es, paths)
    val jc = new JoinCache(false)
    val rs = paths.map(PathEval.evalPathFull(_, fn, jc))
    for (t <- paths.indices)
      assert(fj.from(t, rs(t).rows, rs, jc).map(_.toVector).toSet == expected.map(b => fj.groupVars.head.map(b)), s"seed $t")

    val engines = Seq(new TricEngine(false), new TricEngine(true), new InvEngine(true, true), new GraphDbEngine)
    for (e <- engines) {
      e.indexQuery(q)
      es.foreach(e.onUpdate)
      assert(e.bindings(0) == expected, e.name)
    }
  }

  test("a row limit makes two seed paths over one view give disjoint new answers") {
    // both covering paths genericize to ? l ?, so both read the one view and
    // an update's delta seeds both
    val q     = QueryPattern(0, Vector(pe(Vr("x"), "l", Vr("y")), pe(Vr("x"), "l", Vr("z"))))
    val paths = CoveringPaths.cover(q)
    assert(paths.size == 2 && paths.map(_.map(Generic.of)).distinct.size == 1, paths)
    val rng = new scala.util.Random(5)
    val old = Vector.fill(12)(Edge(s"n${rng.nextInt(4)}", "l", s"n${rng.nextInt(5)}"))
    val now = Vector.fill(6)(Edge(s"n${rng.nextInt(4)}", "l", s"n${rng.nextInt(5)}"))
    val view = new Rel(2)
    val seen = mutable.HashSet.empty[Edge]
    old.foreach(e => if (seen.add(e)) view.append(Array(e.src, e.dst)))
    val mark = view.size
    now.foreach(e => if (seen.add(e)) view.append(Array(e.src, e.dst)))
    val delta = view.rows.view.slice(mark, view.size).toVector
    assert(delta.nonEmpty)

    val fj = new PathEval.FinalJoin(paths)
    val jc = new JoinCache(true)
    def answers(t: Int, limit: Int => Int) = fj.from(t, delta, _ => view, jc, limit).map(_.toVector).toVector
    val first  = answers(0, PathEval.FinalJoin.noLimit)
    val second = answers(1, i => if (i == 0) mark else Int.MaxValue)
    val expected = (BruteForce.bindings(old ++ now, q) -- BruteForce.bindings(old, q)).map(b => fj.groupVars.head.map(b))
    assert(first.distinct.size == first.size && second.distinct.size == second.size)
    assert(first.toSet.intersect(second.toSet).isEmpty)
    assert((first ++ second).toSet == expected)
    // without the limit, the second seed repeats answers of the first
    assert(answers(1, PathEval.FinalJoin.noLimit).toSet.intersect(first.toSet).nonEmpty)
  }

  test("eqClass maps repeated variables to their first position") {
    val terms = Vector[repro.query.Term](Vr("x"), Vr("y"), Vr("x"), Cst("k"))
    assert(PathEval.eqClass(terms) == Vector(0, 1, 0, 3))
  }

  test("consistent accepts/rejects rows against eq classes") {
    val eq = Vector(0, 1, 0)
    assert(PathEval.consistent(Array("a", "b", "a"), eq))
    assert(!PathEval.consistent(Array("a", "b", "c"), eq))
  }
}
