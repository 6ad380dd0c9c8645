package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.query.Vr

/** Unit tests for relations, hash indexes and the incremental join cache. */
class RelSpec extends AnyFunSuite {

  test("Rel deduplicates rows on insert") {
    val r = new Rel(2)
    assert(r.add(Array("a", "b")))
    assert(!r.add(Array("a", "b")))
    assert(r.add(Array("a", "c")))
    assert(r.size == 2)
  }

  test("Rel rejects rows of wrong arity") {
    val r = new Rel(2)
    intercept[IllegalArgumentException](r.add(Array("a")))
  }

  test("Rel.contains reflects inserted rows") {
    val r = new Rel(3)
    r.add(Array("a", "b", "c"))
    assert(r.contains(Array("a", "b", "c")))
    assert(!r.contains(Array("a", "b", "d")))
  }

  test("Rel keeps 10 000 distinct rows through its growths, in insertion order") {
    val r    = new Rel(2)
    val rows = (0 until 10000).map(i => Array(s"v${i % 97}", s"w$i"))
    assert(rows.forall(r.add))
    assert(rows.forall(row => !r.add(row.clone)))
    assert(rows.forall(row => r.contains(row.clone)))
    assert(!r.contains(Array("v0", "w1")))
    assert(r.size == 10000 && r.rows.indices.forall(i => r.rows(i) eq rows(i)))
  }

  test("Rel keeps rows whose hashes are equal") {
    assert("Aa".hashCode == "BB".hashCode)
    val r = new Rel(1)
    assert(r.add(Array("Aa")) && r.add(Array("BB")))
    assert(!r.add(Array("Aa")) && !r.add(Array("BB")))
    assert(r.contains(Array("BB")) && !r.contains(Array("Ab")))
    assert(r.rows.map(_.toVector) == Seq(Vector("Aa"), Vector("BB")))
  }

  test("Rel's row hash keeps a grid of similar names apart") {
    val names  = (0 until 100).map(i => s"v$i")
    val hashes = for (a <- names; b <- names) yield Rel.hash(Array(a, b))
    assert(hashes.distinct.size >= 9900)
  }

  test("an arity-0 Rel holds exactly one row") {
    val r = new Rel(0)
    assert(!r.contains(Array.empty[String]))
    assert(r.add(Array.empty[String]))
    assert(!r.add(Array.empty[String]))
    assert(r.size == 1 && r.contains(Array.empty[String]))
  }

  test("HashIdx probes rows by column value") {
    val r = Rel.of(Seq(Array("a", "1"), Array("a", "2"), Array("b", "3")), 2)
    val idx = new HashIdx(r, IdxSpec.column(0)).refresh()
    assert(idx.probe("a").map(_(1)).toSet == Set("1", "2"))
    assert(idx.probe("b").map(_(1)).toSet == Set("3"))
    assert(idx.probe("z").isEmpty)
  }

  test("HashIdx refresh picks up rows appended after construction") {
    val r = new Rel(2)
    r.add(Array("a", "1"))
    val idx = new HashIdx(r, IdxSpec.column(0)).refresh()
    assert(idx.probe("a").size == 1)
    r.add(Array("a", "2"))
    assert(idx.probe("a").size == 1) // stale until refreshed
    idx.refresh()
    assert(idx.probe("a").size == 2)
  }

  test("HashIdx can index the second column") {
    val r = Rel.of(Seq(Array("a", "x"), Array("b", "x")), 2)
    val idx = new HashIdx(r, IdxSpec.column(1)).refresh()
    assert(idx.probe("x").map(_(0)).toSet == Set("a", "b"))
  }

  test("a two-column HashIdx with an eq spec indexes only consistent rows") {
    // rows of a path ?x -> ?y -> ?x: position 2 repeats position 0
    val r = Rel.of(Seq(Array("a", "b", "a"), Array("a", "b", "c"), Array("a", "d", "a")), 3)
    val idx = new HashIdx(r, IdxSpec(Vector(0, 1), PathEval.eqClass(Vector(Vr("x"), Vr("y"), Vr("x"))))).refresh()
    val probe = (x: String, y: String) => idx.probe(Rel.key(Array(x, y), Array(0, 1))).map(_.toVector)
    assert(probe("a", "b") == Seq(Vector("a", "b", "a")))
    assert(probe("a", "d") == Seq(Vector("a", "d", "a")))
    assert(probe("b", "a").isEmpty)
    r.add(Array("e", "f", "g"))
    r.add(Array("e", "f", "e"))
    assert(probe("e", "f").isEmpty) // stale until refreshed
    idx.refresh()
    assert(probe("e", "f") == Seq(Vector("e", "f", "e")))
  }

  test("JoinCache keeps separate indexes for the same columns under different eq") {
    val jc   = new JoinCache(true)
    val r    = Rel.of(Seq(Array("a", "a"), Array("a", "b")), 2)
    val loop = jc.index(r, IdxSpec(Vector(0), Vector(0, 0))) // ?x -> ?x
    val all  = jc.index(r, 0)
    assert(jc.builds == 2 && jc.size == 2)
    assert(loop.probe("a").map(_.toVector) == Seq(Vector("a", "a")))
    assert(all.probe("a").size == 2)
    assert(jc.index(r, IdxSpec(Vector(0), Vector(0, 0))) eq loop) // equal specs share one index
    assert(jc.builds == 2)
  }

  test("JoinCache disabled rebuilds the index on every call") {
    val jc = new JoinCache(false)
    val r  = Rel.of(Seq(Array("a", "1")), 2)
    jc.index(r, 0); jc.index(r, 0); jc.index(r, 0)
    assert(jc.builds == 3)
  }

  test("JoinCache enabled builds once per (rel, col) and refreshes incrementally") {
    val jc = new JoinCache(true)
    val r  = Rel.of(Seq(Array("a", "1")), 2)
    val i1 = jc.index(r, 0)
    r.add(Array("a", "2"))
    val i2 = jc.index(r, 0)
    assert(i1 eq i2)
    assert(jc.builds == 1)
    assert(i2.probe("a").size == 2)
    jc.index(r, 1)
    assert(jc.builds == 2) // different column = different build structure
  }

  test("JoinCache distinguishes relations by identity, not content") {
    val jc = new JoinCache(true)
    val r1 = Rel.of(Seq(Array("a", "1")), 2)
    val r2 = Rel.of(Seq(Array("a", "1")), 2)
    jc.index(r1, 0); jc.index(r2, 0)
    assert(jc.builds == 2)
  }
}
