package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.query.Vr

/** Unit tests for relations, hash indexes and the incremental join cache. */
class RelSpec extends AnyFunSuite {

  /** The rows of `idx`'s chain from row index `first` on, newest first. */
  private def chain(idx: HashIdx, first: Int): Seq[Array[String]] =
    Iterator.iterate(first)(idx.next).takeWhile(_ >= 0).map(idx.rel.rows(_)).toSeq

  /** A relation of the distinct `rows`, in order. */
  private def rel(arity: Int, rows: Array[String]*): Rel = {
    val r = new Rel(arity)
    rows.foreach(r.append)
    r
  }

  /** The rows of a one-column `idx` whose key is `v`. */
  private def probe(idx: HashIdx, v: String): Seq[Array[String]] = chain(idx, idx.first(v))

  test("an appended Rel allocates no table and keeps insertion order") {
    val r    = new Rel(2)
    val rows = (0 until 1000).map(i => Array(s"v${i % 7}", s"w$i"))
    rows.foreach(r.append)
    assert(r.size == 1000 && r.rows.indices.forall(i => r.rows(i) eq rows(i)))
    intercept[IllegalArgumentException](r.append(Array("a")))
  }

  test("a HashIdx over an appended Rel probes and refreshes as before") {
    val r = new Rel(2)
    Seq(Array("a", "1"), Array("a", "2"), Array("b", "3")).foreach(r.append)
    val idx = new HashIdx(r, IdxSpec.column(0)).refresh()
    assert(probe(idx, "a").map(_(1)) == Seq("2", "1"))
    assert(probe(idx, "b").map(_(1)) == Seq("3"))
    r.append(Array("a", "4"))
    assert(probe(idx, "a").size == 2) // stale until refreshed
    idx.refresh()
    assert(probe(idx, "a").map(_(1)) == Seq("4", "2", "1"))
  }

  test("Rel rejects rows of wrong arity") {
    val r = new Rel(2)
    intercept[IllegalArgumentException](r.append(Array("a")))
  }

  test("Rel keeps 10 000 distinct rows through its growths, in insertion order") {
    val r    = new Rel(2)
    val rows = (0 until 10000).map(i => Array(s"v${i % 97}", s"w$i"))
    rows.foreach(r.append)
    assert(r.size == 10000 && r.rows.indices.forall(i => r.rows(i) eq rows(i)))
  }

  test("Rel's row hash keeps a grid of similar names apart") {
    val names  = (0 until 100).map(i => s"v$i")
    val hashes = for (a <- names; b <- names) yield Rel.hash(Array(a, b), Array(0, 1))
    assert(hashes.distinct.size >= 9900)
  }

  test("HashIdx probes rows by column value") {
    val r = rel(2, Array("a", "1"), Array("a", "2"), Array("b", "3"))
    val idx = new HashIdx(r, IdxSpec.column(0)).refresh()
    assert(probe(idx, "a").map(_(1)).toSet == Set("1", "2"))
    assert(probe(idx, "b").map(_(1)).toSet == Set("3"))
    assert(probe(idx, "z").isEmpty)
  }

  test("HashIdx refresh picks up rows appended after construction") {
    val r = new Rel(2)
    r.append(Array("a", "1"))
    val idx = new HashIdx(r, IdxSpec.column(0)).refresh()
    assert(probe(idx, "a").size == 1)
    r.append(Array("a", "2"))
    assert(probe(idx, "a").size == 1) // stale until refreshed
    idx.refresh()
    assert(probe(idx, "a").size == 2)
  }

  test("HashIdx can index the second column") {
    val r = rel(2, Array("a", "x"), Array("b", "x"))
    val idx = new HashIdx(r, IdxSpec.column(1)).refresh()
    assert(probe(idx, "x").map(_(0)).toSet == Set("a", "b"))
  }

  test("a two-column HashIdx with an eq spec indexes only consistent rows") {
    // rows of a path ?x -> ?y -> ?x: position 2 repeats position 0
    val r = rel(3, Array("a", "b", "a"), Array("a", "b", "c"), Array("a", "d", "a"))
    val idx = new HashIdx(r, IdxSpec(Vector(0, 1), PathEval.eqClass(Vector(Vr("x"), Vr("y"), Vr("x"))))).refresh()
    val probe2 = (x: String, y: String) => chain(idx, idx.first(Array(x, y), Array(0, 1))).map(_.toVector)
    assert(probe2("a", "b") == Seq(Vector("a", "b", "a")))
    assert(probe2("a", "d") == Seq(Vector("a", "d", "a")))
    assert(probe2("b", "a").isEmpty)
    r.append(Array("e", "f", "g"))
    r.append(Array("e", "f", "e"))
    assert(probe2("e", "f").isEmpty) // stale until refreshed
    idx.refresh()
    assert(probe2("e", "f") == Seq(Vector("e", "f", "e")))
  }

  test("HashIdx keeps keys with equal hashCode apart, in one column and in two") {
    assert("Aa".hashCode == "BB".hashCode)
    val one = rel(2, Array("Aa", "1"), Array("BB", "2"), Array("Aa", "3"))
    val idx = new HashIdx(one, IdxSpec.column(0)).refresh()
    assert(probe(idx, "Aa").map(_(1)) == Seq("3", "1"))
    assert(probe(idx, "BB").map(_(1)) == Seq("2"))
    assert(probe(idx, "Ab").isEmpty)
    // every pair of Aa and BB has one hash under the per-value mix
    val pairs = for (x <- Seq("Aa", "BB"); y <- Seq("Aa", "BB")) yield Array(x, y)
    assert(pairs.map(p => Rel.hash(p, Array(0, 1))).distinct.size == 1)
    val two  = rel(3, pairs.zipWithIndex.map { case (p, i) => p :+ s"$i" }: _*)
    val idx2 = new HashIdx(two, IdxSpec(Vector(0, 1), null)).refresh()
    for ((p, i) <- pairs.zipWithIndex)
      assert(chain(idx2, idx2.first(p, Array(0, 1))).map(_(2)) == Seq(s"$i"), p.toVector)
    assert(idx2.first(Array("Aa", "Ab"), Array(0, 1)) == -1)
  }

  test("HashIdx keeps 10 000 keys through its growths, each chain newest first") {
    val r   = new Rel(2)
    val idx = new HashIdx(r, IdxSpec.column(0)).refresh() // built empty, grown by refreshes
    assert(idx.first("k0") == -1)
    for (batch <- 0 until 20) {
      (batch * 1000 until (batch + 1) * 1000).foreach(i => r.append(Array(s"k${i % 10000}", s"v$i")))
      idx.refresh()
    }
    for (k <- 0 until 10000)
      assert(probe(idx, s"k$k").map(_(1)) == Seq(s"v${k + 10000}", s"v$k"), s"k$k")
    assert(idx.first("k10000") == -1)
  }

  test("HashIdx never returns a row that breaks its spec's eq") {
    // rows of a path ?x -> ?y -> ?x keyed on ?x alone
    val r = rel(3, Array("a", "b", "a"), Array("a", "c", "d"), Array("a", "e", "a"), Array("b", "c", "d"))
    val idx = new HashIdx(r, IdxSpec(Vector(0), PathEval.eqClass(Vector(Vr("x"), Vr("y"), Vr("x"))))).refresh()
    assert(probe(idx, "a").map(_.toVector) == Seq(Vector("a", "e", "a"), Vector("a", "b", "a")))
    assert(idx.first("b") == -1)
    r.append(Array("b", "x", "y"))
    idx.refresh()
    assert(idx.first("b") == -1)
  }

  test("HashIdx shows rows appended after a refresh only after the next one") {
    val r = rel(3, Array("a", "b", "1"))
    val idx = new HashIdx(r, IdxSpec(Vector(0, 1), null)).refresh()
    val ab = Array("a", "b")
    (2 to 50).foreach(i => r.append(Array("a", "b", s"$i")))
    r.append(Array("c", "d", "0"))
    assert(chain(idx, idx.first(ab, Array(0, 1))).map(_(2)) == Seq("1"))
    assert(idx.first(Array("c", "d"), Array(0, 1)) == -1)
    idx.refresh()
    assert(chain(idx, idx.first(ab, Array(0, 1))).map(_(2)) == (50 to 1 by -1).map(_.toString))
    assert(chain(idx, idx.first(Array("x", "c", "d"), Array(1, 2))).map(_(2)) == Seq("0"))
  }

  test("a key's hash is the hash of its values as a row, wherever they sit") {
    val row = Array("x", "a", "y", "b")
    assert(Rel.hash(row, Array(1, 3)) == Rel.hash(Array("a", "b"), Array(0, 1)))
    assert(Rel.hash1("y") == Rel.hash(row, Array(2)) && Rel.hash1("y") == Rel.hash(Array("y"), Array(0)))
  }

  test("JoinCache keeps separate indexes for the same columns under different eq") {
    val jc   = new JoinCache(true)
    val r    = rel(2, Array("a", "a"), Array("a", "b"))
    val loop = jc.index(r, IdxSpec(Vector(0), Vector(0, 0))) // ?x -> ?x
    val all  = jc.index(r, 0)
    assert(jc.builds == 2 && jc.size == 2)
    assert(probe(loop, "a").map(_.toVector) == Seq(Vector("a", "a")))
    assert(probe(all, "a").size == 2)
    assert(jc.index(r, IdxSpec(Vector(0), Vector(0, 0))) eq loop) // equal specs share one index
    assert(jc.builds == 2)
  }

  test("JoinCache disabled rebuilds the index on every call") {
    val jc = new JoinCache(false)
    val r  = rel(2, Array("a", "1"))
    jc.index(r, 0); jc.index(r, 0); jc.index(r, 0)
    assert(jc.builds == 3)
  }

  test("JoinCache enabled builds once per (rel, col) and refreshes incrementally") {
    val jc = new JoinCache(true)
    val r  = rel(2, Array("a", "1"))
    val i1 = jc.index(r, 0)
    r.append(Array("a", "2"))
    val i2 = jc.index(r, 0)
    assert(i1 eq i2)
    assert(jc.builds == 1)
    assert(probe(i2, "a").size == 2)
    jc.index(r, 1)
    assert(jc.builds == 2) // different column = different build structure
  }

  test("JoinCache distinguishes relations by identity, not content") {
    val jc = new JoinCache(true)
    val r1 = rel(2, Array("a", "1"))
    val r2 = rel(2, Array("a", "1"))
    jc.index(r1, 0); jc.index(r2, 0)
    assert(jc.builds == 2)
  }
}
