package repro.query

import org.scalatest.funsuite.AnyFunSuite
import repro.query.CoveringPaths.Path

/** Unit tests for the covering-path decomposition (paper §4.1 step 1). */
class CoveringPathsSpec extends AnyFunSuite {

  private def v(n: String)  = Vr(n)
  private def c(l: String)  = Cst(l)
  private def pe(s: Term, l: String, t: Term) = PatternEdge(s, l, t)

  private def coveredEdges(paths: Vector[Path]): Set[PatternEdge] = paths.flatten.toSet
  private def coveredVerts(paths: Vector[Path]): Set[Term] =
    paths.flatten.flatMap(e => Seq(e.src, e.dst)).toSet

  private def assertCovers(q: QueryPattern): Vector[Path] = {
    val paths = CoveringPaths.cover(q)
    assert(coveredEdges(paths) == q.edges.toSet, s"edges not covered for ${q.show}")
    assert(coveredVerts(paths) == q.terms.toSet, s"vertices not covered for ${q.show}")
    paths.foreach { p =>
      p.sliding(2).foreach {
        case Vector(a, b) => assert(a.dst == b.src, s"disconnected path $p")
        case _            =>
      }
    }
    paths
  }

  test("single edge query yields one single-edge path") {
    val q = QueryPattern(0, Vector(pe(v("x"), "hasMod", v("y"))))
    assert(assertCovers(q) == Vector(Vector(q.edges.head)))
  }

  test("chain decomposes into exactly one covering path") {
    val q = QueryPattern(1, Vector(
      pe(v("a"), "knows", v("b")), pe(v("b"), "posted", c("pst1")), pe(c("pst1"), "containedIn", v("d"))))
    val paths = assertCovers(q)
    assert(paths.size == 1)
    assert(paths.head == q.edges)
  }

  test("out-star of k spokes decomposes into k single-edge paths") {
    val q = QueryPattern(2, Vector(
      pe(v("c"), "likes", c("po1")), pe(v("c"), "likes", c("po2")), pe(v("c"), "posted", c("po3"))))
    val paths = assertCovers(q)
    assert(paths.size == 3)
    assert(paths.forall(_.size == 1))
  }

  test("cycle decomposes into one closed path returning to the start term") {
    val q = QueryPattern(3, Vector(
      pe(v("a"), "knows", v("b")), pe(v("b"), "knows", v("c")), pe(v("c"), "knows", v("a"))))
    val paths = assertCovers(q)
    assert(paths.size == 1)
    assert(paths.head.head.src == paths.head.last.dst)
  }

  test("paper Fig. 5 Q1: tree query yields the three covering paths of Fig. 5(b)") {
    // ?a -hasMod-> ?b ; ?b -posted-> pst1 ; ?b -posted-> pst2 ; ?c -reply-> pst2
    val q = QueryPattern(4, Vector(
      pe(v("a"), "hasMod", v("b")),
      pe(v("b"), "posted", c("pst1")),
      pe(v("b"), "posted", c("pst2")),
      pe(v("c"), "reply", c("pst2"))))
    val paths = assertCovers(q)
    assert(paths.size == 3)
    val sizes = paths.map(_.size).sorted
    assert(sizes == Vector(1, 2, 2)) // two hasMod→posted paths and the reply edge
  }

  test("paper Fig. 5 Q3: chain with literals start/end stays one path") {
    val q = QueryPattern(5, Vector(
      pe(c("com1"), "hasCreator", v("a")),
      pe(v("a"), "posted", c("pst1")),
      pe(c("pst1"), "containedIn", v("b"))))
    assert(assertCovers(q).size == 1)
  }

  test("diamond requires two paths sharing the sink") {
    val q = QueryPattern(6, Vector(
      pe(v("a"), "x", v("b")), pe(v("a"), "y", v("c")),
      pe(v("b"), "z", v("d")), pe(v("c"), "z", v("d"))))
    val paths = assertCovers(q)
    assert(paths.size == 2)
    assert(paths.forall(_.size == 2))
  }

  test("dropSubPaths removes contained duplicates only") {
    val e1 = pe(v("a"), "x", v("b")); val e2 = pe(v("b"), "y", v("c"))
    assert(CoveringPaths.dropSubPaths(Vector(Vector(e1, e2), Vector(e1))) == Vector(Vector(e1, e2)))
    assert(CoveringPaths.dropSubPaths(Vector(Vector(e1), Vector(e1))) == Vector(Vector(e1)))
    assert(CoveringPaths.dropSubPaths(Vector(Vector(e1), Vector(e2))).size == 2)
  }

  // property sweep: decomposition covers arbitrary generated patterns
  for (seed <- 0 until 25) {
    test(s"random pattern coverage property (seed=$seed)") {
      val rng = new scala.util.Random(seed)
      val nV = 3 + rng.nextInt(5)
      val terms: Vector[Term] =
        Vector.tabulate(nV)(i => if (rng.nextBoolean()) v(s"v$i") else c(s"k$i"))
      val nE = 2 + rng.nextInt(6)
      val edges = Vector.tabulate(nE) { i =>
        pe(terms(rng.nextInt(nV)), s"l${rng.nextInt(3)}", terms(rng.nextInt(nV)))
      }.distinct
      assertCovers(QueryPattern(100 + seed, edges))
    }
  }
}
