package repro.engine

import scala.collection.mutable

/** An in-memory relation of fixed arity over vertex labels — the paper's
  * materialized view (`matV`). Rows are appended as they are and must not
  * be mutated once stored; nothing here deduplicates them. Every relation
  * holds distinct rows by construction: an edge view gets each stream edge
  * once (its engine drops a repeated edge before any view sees it), a trie
  * view derives each row once (`TricEngine`), and `PathEval`'s path
  * relations fix the edge row taken at every position.
  */
final class Rel(val arity: Int) {
  val rows = new mutable.ArrayBuffer[Array[String]]

  /** Store a row known to differ from every row stored, with no check. */
  def append(row: Array[String]): Unit = {
    require(row.length == arity, s"arity mismatch: ${row.length} vs $arity")
    rows += row
  }

  def size: Int        = rows.size
  def isEmpty: Boolean = rows.isEmpty
  def nonEmpty: Boolean = rows.nonEmpty

  override def toString: String =
    rows.iterator.take(5).map(_.mkString("(", ",", ")")).mkString(s"Rel[$arity,n=$size]{", " ", if (size > 5) " …}" else "}")
}

/** What a [[HashIdx]] keys on: the columns `cols` of the rows that satisfy
  * a path's repeated-variable classes `eq` (as computed by
  * `PathEval.eqClass`; null keeps every row). Specs key the cached indexes,
  * so the hash is computed once: every cached join looks it up. The key
  * columns are also kept as an array here, shared by every index of a spec.
  */
final case class IdxSpec(cols: Vector[Int], eq: Vector[Int]) {
  override val hashCode: Int = (cols, eq).##
  private[engine] val colArray: Array[Int] = cols.toArray
}

object IdxSpec {
  private val columns = Array.tabulate(32)(c => IdxSpec(Vector(c), null))

  /** Every row, keyed on column `col` (shared instances for small `col`). */
  def column(col: Int): IdxSpec = if (col < columns.length) columns(col) else IdxSpec(Vector(col), null)
}

/** A hash index of a relation — the build side of every hash join, path
  * joins and final joins alike. Rows failing the spec's `eq` are skipped
  * once, when they are indexed.
  *
  * The table is open-addressed over the distinct keys: a key's slot holds
  * its newest row's index + 1 (0 = empty) and `hashes` the key's hash, and
  * `chain(i)` links indexed row `i` to the next older row with its key (-1
  * ends a chain). A key's hash (`Rel.hash`) is computed from the probing
  * row in place; keys are compared column by column. A probe is a cursor
  * over row indexes of `rel`, newest first — `first`, then `next` until -1
  * — and allocates nothing; since the indexes fall, "rows below index m" is
  * one comparison per hit.
  *
  * Supports incremental refresh so the caching variants (TRIC+, INV+, INC+)
  * can reuse the build structure across updates instead of rebuilding it
  * (paper §4.2 "Caching").
  */
final class HashIdx(val rel: Rel, val spec: IdxSpec) {
  private val cols   = spec.colArray
  private var slots  = new Array[Int](Rel.tableSize(rel.size))
  private var hashes = new Array[Int](slots.length)
  private var keys   = 0
  private var chain  = new Array[Int](math.max(rel.size, 4))
  private var indexed = 0

  /** Index any rows appended to `rel` since the last refresh. */
  def refresh(): this.type = {
    if (chain.length < rel.size) chain = java.util.Arrays.copyOf(chain, math.max(rel.size, 2 * chain.length))
    while (indexed < rel.size) {
      val r = rel.rows(indexed)
      if (spec.eq == null || PathEval.consistent(r, spec.eq)) {
        val h = Rel.hash(r, cols)
        val s = slot(h, r, cols)
        if (slots(s) == 0) {
          chain(indexed) = -1
          hashes(s) = h
          keys += 1
        } else chain(indexed) = slots(s) - 1
        slots(s) = indexed + 1
        if (2 * keys > slots.length) grow()
      }
      indexed += 1
    }
    this
  }

  /** The newest indexed row whose key equals `row`'s values at `at` (as
    * many columns as the spec's), as an index into `rel.rows`; -1 if none.
    */
  def first(row: Array[String], at: Array[Int]): Int = slots(slot(Rel.hash(row, at), row, at)) - 1

  /** `first` for a one-column key equal to `v`. */
  def first(v: String): Int = {
    val h    = Rel.hash1(v)
    val c    = cols(0)
    val mask = slots.length - 1
    var s    = h & mask
    while (slots(s) != 0 && (hashes(s) != h || rel.rows(slots(s) - 1)(c) != v)) s = (s + 1) & mask
    slots(s) - 1
  }

  /** The next older indexed row with row `i`'s key; -1 if none. */
  def next(i: Int): Int = chain(i)

  /** The slot of the key equal to `row`'s values at `at`, else the empty
    * slot where it belongs.
    */
  private def slot(h: Int, row: Array[String], at: Array[Int]): Int = {
    val mask = slots.length - 1
    var s = h & mask
    while (slots(s) != 0 && (hashes(s) != h || !sameKey(rel.rows(slots(s) - 1), row, at))) s = (s + 1) & mask
    s
  }

  private def sameKey(indexedRow: Array[String], row: Array[String], at: Array[Int]): Boolean = {
    var j = 0
    while (j < cols.length) {
      if (indexedRow(cols(j)) != row(at(j))) return false
      j += 1
    }
    true
  }

  private def grow(): Unit = {
    val (s, h) = Rel.grown(slots, hashes)
    slots = s
    hashes = h
  }
}

object Rel {
  /** The smallest power-of-two table, at least 8, holding `capacity` keys
    * at load 1/2.
    */
  private[engine] def tableSize(capacity: Int): Int =
    math.max(8, Integer.highestOneBit(math.max(1, 2 * capacity - 1)) << 1)

  /** An open-addressed table of row indexes (+ 1, 0 = empty) and their
    * stored hashes at twice the size, its entries placed by their hashes
    * with linear probing.
    */
  private[engine] def grown(slots: Array[Int], hashes: Array[Int]): (Array[Int], Array[Int]) = {
    val newSlots  = new Array[Int](2 * slots.length)
    val newHashes = new Array[Int](2 * slots.length)
    val mask = newSlots.length - 1
    var j = 0
    while (j < slots.length) {
      if (slots(j) != 0) {
        var i = hashes(j) & mask
        while (newSlots(i) != 0) i = (i + 1) & mask
        newSlots(i) = slots(j)
        newHashes(i) = hashes(j)
      }
      j += 1
    }
    (newSlots, newHashes)
  }

  /** The hash of a key, `row`'s values at `cols`: per value, add its hash
    * and multiply by the golden-ratio constant; then fold the high bits
    * into the low ones that pick a slot. `Arrays.hashCode` multiplies by
    * 31, the weight a `String` hash gives a name's next-to-last character,
    * so keys of similar names collide: ("a1","b0") and ("a0","c0") hash
    * alike there, and a grid of 100×100 names "v0".."v99" gets 2 800
    * distinct hashes.
    */
  private[engine] def hash(row: Array[String], cols: Array[Int]): Int = {
    var h = 0
    var i = 0
    while (i < cols.length) { h = mix(h, row(cols(i))); i += 1 }
    spread(h)
  }

  /** The hash of the one value `v`, as `hash` of a key of `v` alone. */
  private[engine] def hash1(v: String): Int = spread(mix(0, v))

  private def mix(h: Int, v: String): Int = (h + v.hashCode) * 0x9e3779b9
  private def spread(h: Int): Int = h ^ (h >>> 16)

  /** `row` with `v` appended, as a fresh array. */
  def extend(row: Array[String], v: String): Array[String] = {
    val r = java.util.Arrays.copyOf(row, row.length + 1)
    r(row.length) = v
    r
  }
}

/** The caching policy of every hash join: the one place TRIC differs from
  * TRIC+ (and INV/INC from INV+/INC+), paper §4.2 "Caching".
  *
  * It provides the build structures of the path joins and of the final
  * joins: a [[HashIdx]] per (relation, spec). With `enabled = true` each
  * index is memoized and refreshed incrementally, shared by every join with
  * that relation and spec; with `enabled = false` every call builds it from
  * scratch. `builds` counts from-scratch constructions, so the rebuilding
  * policy pays, and shows, one build per join while the caching one stays
  * at one per index.
  */
final class JoinCache(val enabled: Boolean) {
  /** Per relation, its indexes, one per spec. A `Rel` hashes and compares
    * by identity and holds few specs, so a lookup allocates no key.
    */
  private val indexes = mutable.HashMap.empty[Rel, mutable.ArrayBuffer[HashIdx]]
  var builds: Long = 0L

  /** A hash index of `rel` under `spec`, refreshed to `rel`'s last row. */
  def index(rel: Rel, spec: IdxSpec): HashIdx = {
    val idx =
      if (enabled) {
        val ofRel = indexes.getOrElseUpdate(rel, new mutable.ArrayBuffer[HashIdx](1))
        var i = 0
        while (i < ofRel.size && !(ofRel(i).spec eq spec) && ofRel(i).spec != spec) i += 1
        if (i == ofRel.size) { builds += 1; ofRel += new HashIdx(rel, spec) }
        ofRel(i)
      } else { builds += 1; new HashIdx(rel, spec) }
    idx.refresh()
  }

  /** A hash index of every row of `rel` on column `col`. */
  def index(rel: Rel, col: Int): HashIdx = index(rel, IdxSpec.column(col))

  /** Indexes held for reuse (always 0 under the rebuilding policy). */
  def size: Int = indexes.valuesIterator.map(_.size).sum

  /** The specs of the indexes held for reuse. */
  private[repro] def specs: Iterator[IdxSpec] = indexes.valuesIterator.flatten.map(_.spec)
}
