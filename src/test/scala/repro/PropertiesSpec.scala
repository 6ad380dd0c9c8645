package repro

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Harness
import repro.core.TricEngine
import repro.engine.{ContinuousEngine, JoinCache, PathEval}
import repro.graph.Edge
import repro.inv.InvEngine
import repro.query._

/** ScalaCheck property sweep over randomly generated patterns and streams:
  * structural invariants of the covering-path decomposition and end-to-end
  * agreement of the engines with the brute-force reference.
  */
class PropertiesSpec extends AnyFunSuite {

  private def check(name: String, prop: Prop, min: Int = 60): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, s"$name: $res")
  }

  private val genTerm: Gen[Term] = Gen.oneOf(
    Gen.choose(0, 5).map(i => Vr(s"v$i")),
    Gen.choose(0, 5).map(i => Cst(s"k$i")))

  private val genPattern: Gen[QueryPattern] = for {
    n     <- Gen.choose(1, 7)
    edges <- Gen.listOfN(n, for {
      s <- genTerm; l <- Gen.choose(0, 2).map(i => s"l$i"); t <- genTerm
    } yield PatternEdge(s, l, t))
  } yield QueryPattern(0, edges.toVector.distinct)

  private val genStream: Gen[Vector[Edge]] = for {
    n  <- Gen.choose(1, 60)
    es <- Gen.listOfN(n, for {
      s <- Gen.choose(0, 7).map(i => s"k$i")
      l <- Gen.choose(0, 2).map(i => s"l$i")
      t <- Gen.choose(0, 7).map(i => s"k$i")
    } yield Edge(s, l, t))
  } yield es.toVector.distinct

  // Adversarial workloads: few variables, vertices and labels, so the
  // queries share trie prefixes and repeat variables; streams draw from a
  // small edge pool (duplicates) whose edges are often self-loops.
  private val genSmallTerm: Gen[Term] = Gen.oneOf(
    Gen.choose(0, 3).map(i => Vr(s"v$i")),
    Gen.choose(0, 3).map(i => Cst(s"k$i")))

  private val genSmallPattern: Gen[Vector[PatternEdge]] = for {
    n     <- Gen.choose(1, 4)
    edges <- Gen.listOfN(n, for {
      s <- genSmallTerm; l <- Gen.choose(0, 1).map(i => s"l$i")
      t <- Gen.frequency(1 -> Gen.const(s), 3 -> genSmallTerm)
    } yield PatternEdge(s, l, t))
  } yield edges.toVector.distinct

  /** A query of at least two groups of covering paths (Q12's shape on
    * BIO): edges from fresh variables to constants, one of them a hub that
    * two or three variables and maybe a constant point to, and a second
    * edge from the first variable. No edge leaves a constant for a
    * variable, so each covering path holds one variable.
    */
  private val genMultiGroup: Gen[Vector[PatternEdge]] = for {
    hub    <- Gen.choose(0, 3).map(i => Cst(s"k$i"))
    leaves <- Gen.choose(2, 3)
    labels <- Gen.listOfN(leaves + 2, Gen.choose(0, 1).map(i => s"l$i"))
    other  <- Gen.choose(0, 3).map(i => Cst(s"k$i"))
    nConst <- Gen.choose(0, 1)
    consts <- Gen.listOfN(nConst, Gen.choose(0, 3).map(i => PatternEdge(Cst(s"k$i"), labels(leaves + 1), hub)))
  } yield ((0 until leaves).map(i => PatternEdge(Vr(s"w$i"), labels(i), hub)).toVector ++
    Vector(PatternEdge(Vr("w0"), labels(leaves), other)) ++ consts).distinct

  /** Two or three edges of one label out of one variable: covering paths
    * of one group that a single update can all take, so that the seeds of
    * one update can give the same answer.
    */
  private val genStar: Gen[Vector[PatternEdge]] = for {
    l    <- Gen.choose(0, 1).map(i => s"l$i")
    k    <- Gen.choose(2, 3)
    dsts <- Gen.listOfN(k, genSmallTerm)
  } yield dsts.toVector.map(PatternEdge(Vr("s"), l, _)).distinct

  private val genQuerySet: Gen[Vector[QueryPattern]] = for {
    k     <- Gen.choose(2, 4)
    ps    <- Gen.listOfN(k, genSmallPattern)
    multi <- genMultiGroup
    star  <- genStar
  } yield (ps.toVector :+ ps.head.take((ps.head.size + 1) / 2) :+ multi :+ star).zipWithIndex.map {
    case (es, i) => QueryPattern(i, es)
  }

  private val genDupStream: Gen[Vector[Edge]] = for {
    n    <- Gen.choose(1, 40)
    pool <- Gen.listOfN(n / 3 + 1, for {
      s <- Gen.choose(0, 4).map(i => s"k$i")
      l <- Gen.choose(0, 1).map(i => s"l$i")
      t <- Gen.frequency(1 -> Gen.const(s), 2 -> Gen.choose(0, 4).map(i => s"k$i"))
    } yield Edge(s, l, t))
    picks <- Gen.listOfN(n, Gen.choose(0, pool.size - 1))
  } yield picks.toVector.map(pool)

  test("property: all engines report the same queries per update on adversarial streams") {
    check("adversarial", Prop.forAll(genQuerySet, genDupStream) { (qs, es) =>
      val groups  = qs.map(q => new repro.engine.PathEval.FinalJoin(CoveringPaths.cover(q)).groups.size)
      val engines = Harness.allEngines.map(_())
      engines.foreach(_.indexAll(qs))
      val outs = engines.map(e => es.map(e.onUpdate(_).toSet))
      groups.exists(_ > 1) && outs.forall(_ == outs.head) &&
        qs.forall(q => engines.forall(_.bindings(q.id) == BruteForce.bindings(es, q))) &&
        engines.forall(e => qs.forall(q => e.storedRows(q.id) == e.bindings(q.id).size))
    }, min = 40)
  }

  /** Every trie node of `t`, depth first from each root. */
  private def trieNodes(t: TricEngine): Iterator[t.Node] = {
    def below(n: t.Node): Iterator[t.Node] = Iterator.single(n) ++ n.children.iterator.flatMap(below)
    t.rootInd.valuesIterator.flatMap(below)
  }

  test("property: replaying a stream a second time reports nothing and changes no view") {
    check("replay-twice", Prop.forAll(genQuerySet, genDupStream) { (qs, es) =>
      val engines: Seq[ContinuousEngine] = Seq(new TricEngine(false), new TricEngine(true),
        new InvEngine(false, false), new InvEngine(false, true), new InvEngine(true, false), new InvEngine(true, true))
      def views(e: ContinuousEngine): (Map[GEdge, Int], Vector[Int]) = e match {
        case t: TricEngine => (t.edgeMat.view.mapValues(_.size).toMap, trieNodes(t).map(_.matV.size).toVector)
        case i: InvEngine  => (i.edgeMat.view.mapValues(_.size).toMap, Vector.empty)
      }
      engines.forall { e =>
        e.indexAll(qs)
        e.replay(es)
        val before = (views(e), qs.map(q => e.bindings(q.id)))
        es.forall(e.onUpdate(_).isEmpty) && (views(e), qs.map(q => e.bindings(q.id))) == before
      }
    }, min = 40)
  }

  /** Every row of the generic path `gs` over the distinct edges `es`: the
    * vertices of a walk whose i-th edge matches `gs(i)`.
    */
  private def pathRows(gs: Seq[GEdge], es: Seq[Edge]): Set[Vector[String]] =
    gs.tail.foldLeft(es.filter(gs.head.matches).map(e => Vector(e.src, e.dst)).toSet) { (rows, g) =>
      for (r <- rows; e <- es if g.matches(e) && e.src == r.last) yield r :+ e.dst
    }

  for (caching <- Seq(false, true)) {
    test(s"property: ${if (caching) "TRIC+" else "TRIC"} trie views hold each row of their generic prefix once") {
      check("trie-views", Prop.forAll(genQuerySet, genDupStream) { (qs, es) =>
        val t     = new TricEngine(caching)
        val paths = qs.flatMap(CoveringPaths.cover)
        t.indexAll(qs)
        // after each update e, a path's delta holds each of its rows that
        // take e at a position whose generic edge matches e, once
        val deltas = es.indices.forall { k =>
          val e = es(k)
          t.onUpdate(e)
          val seen = es.take(k + 1).distinct
          paths.forall { p =>
            val gs   = Generic.ofPath(p)
            val eq   = PathEval.eqClass(PathEval.pathTerms(p))
            val rows = PathEval.evalPathDelta(p, t.edgeMat.get, new JoinCache(false), e).rows.map(_.toVector)
            rows.distinct.size == rows.size && rows.toSet == pathRows(gs, seen).filter { r =>
              PathEval.consistent(r.toArray, eq) &&
                gs.indices.exists(i => gs(i).matches(e) && r(i) == e.src && r(i + 1) == e.dst)
            }
          }
        }
        val distinct = es.distinct
        def prefix(n: t.Node): List[GEdge] = if (n == null) Nil else prefix(n.parent) :+ n.key
        val views = trieNodes(t).forall { n =>
          val rows = n.matV.rows.map(_.toVector)
          rows.distinct.size == rows.size && rows.toSet == pathRows(prefix(n), distinct)
        }
        val full = paths.forall { p =>
          val rows = PathEval.evalPathFull(p, t.edgeMat.get, new JoinCache(false)).rows.map(_.toVector)
          val eq   = PathEval.eqClass(PathEval.pathTerms(p))
          rows.distinct.size == rows.size &&
            rows.toSet == pathRows(Generic.ofPath(p), distinct).filter(r => PathEval.consistent(r.toArray, eq))
        }
        deltas && views && full
      }, min = 40)
    }
  }

  test("property: covering paths cover every edge and vertex of any pattern") {
    check("cover", Prop.forAll(genPattern) { q =>
      val paths = CoveringPaths.cover(q)
      paths.flatten.toSet == q.edges.toSet &&
        paths.flatMap(p => p.flatMap(e => Seq(e.src, e.dst))).toSet == q.terms.toSet
    })
  }

  test("property: covering paths are connected chains in the pattern") {
    check("connected", Prop.forAll(genPattern) { q =>
      CoveringPaths.cover(q).forall(p =>
        p.size < 2 || p.sliding(2).forall { case Vector(a, b) => a.dst == b.src; case _ => true })
    })
  }

  test("property: genericization preserves path length and literal positions") {
    check("generic", Prop.forAll(genPattern) { q =>
      CoveringPaths.cover(q).forall { p =>
        val gs = Generic.ofPath(p)
        gs.size == p.size && gs.zip(p).forall { case (g, pe) =>
          g.label == pe.label &&
            g.src.isDefined == !pe.src.isVar && g.dst.isDefined == !pe.dst.isVar
        }
      }
    })
  }

  test("property: every stream edge matches all four of its generalizations") {
    check("generalize", Prop.forAll(genStream) { es =>
      es.forall(e => Generic.generalizations(e).forall(_.matches(e)))
    })
  }

  test("property: TRIC replay equals brute force on random streams and patterns") {
    check("tric-vs-brute", Prop.forAll(genPattern, genStream) { (q, es) =>
      val t = new TricEngine(false)
      t.indexQuery(q)
      es.foreach(t.onUpdate)
      t.bindings(0) == BruteForce.bindings(es, q)
    }, min = 40)
  }

  test("property: TRIC+ replay equals brute force on random streams and patterns") {
    check("tricplus-vs-brute", Prop.forAll(genPattern, genStream) { (q, es) =>
      val t = new TricEngine(true)
      t.indexQuery(q)
      es.foreach(t.onUpdate)
      t.bindings(0) == BruteForce.bindings(es, q)
    }, min = 40)
  }

  test("property: INC replay equals brute force on random streams and patterns") {
    check("inc-vs-brute", Prop.forAll(genPattern, genStream) { (q, es) =>
      val e = new InvEngine(true, false)
      e.indexQuery(q)
      es.foreach(e.onUpdate)
      e.bindings(0) == BruteForce.bindings(es, q)
    }, min = 40)
  }

  test("property: INV replay equals brute force on random streams and patterns") {
    check("inv-vs-brute", Prop.forAll(genPattern, genStream) { (q, es) =>
      val e = new InvEngine(false, false)
      e.indexQuery(q)
      es.foreach(e.onUpdate)
      e.bindings(0) == BruteForce.bindings(es, q)
    }, min = 40)
  }

  test("property: satisfaction is monotone — once satisfied, always satisfied") {
    check("monotone", Prop.forAll(genPattern, genStream) { (q, es) =>
      val t = new TricEngine(false)
      t.indexQuery(q)
      var wasSat = false
      es.forall { e =>
        t.onUpdate(e)
        val sat = t.satisfied.contains(0)
        val ok = !wasSat || sat
        wasSat = sat
        ok
      }
    }, min = 40)
  }
}
