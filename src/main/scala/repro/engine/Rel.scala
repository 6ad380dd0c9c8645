package repro.engine

import scala.collection.mutable

/** An in-memory relation of fixed arity over vertex labels — the paper's
  * materialized view (`matV`), and the set that removes the answers two
  * seed paths of one query both produced in an update. Rows are
  * deduplicated on insert, which makes delta propagation idempotent (the
  * same tuple reached through two trie routes is stored once). Rows must not
  * be mutated once added.
  *
  * The dedup set is an open-addressed table of row indexes: `slots` holds a
  * row's index + 1 (0 = empty) and `hashes` that row's hash, so a row costs
  * no key object, and growing never rehashes its strings. Linear probing,
  * load at most 1/2; `capacity` rows fit before the first growth.
  */
final class Rel(val arity: Int, capacity: Int = 4) {
  val rows = new mutable.ArrayBuffer[Array[String]]
  private var slots  = new Array[Int](Rel.tableSize(capacity))
  private var hashes = new Array[Int](slots.length)

  /** Insert a row; returns true iff the row was new. */
  def add(row: Array[String]): Boolean = {
    require(row.length == arity, s"arity mismatch: ${row.length} vs $arity")
    val h = Rel.hash(row)
    val i = slot(row, h)
    if (slots(i) != 0) false
    else {
      rows += row
      slots(i) = rows.size
      hashes(i) = h
      if (2 * rows.size > slots.length) grow()
      true
    }
  }

  def contains(row: Array[String]): Boolean = slots(slot(row, Rel.hash(row))) != 0
  def size: Int        = rows.size
  def isEmpty: Boolean = rows.isEmpty
  def nonEmpty: Boolean = rows.nonEmpty

  /** The slot holding `row`, else the empty slot where it belongs. */
  private def slot(row: Array[String], h: Int): Int = {
    val mask = slots.length - 1
    var i = h & mask
    while (slots(i) != 0 && (hashes(i) != h || !Rel.same(rows(slots(i) - 1), row))) i = (i + 1) & mask
    i
  }

  private def grow(): Unit = {
    val (oldSlots, oldHashes) = (slots, hashes)
    slots = new Array[Int](2 * oldSlots.length)
    hashes = new Array[Int](2 * oldSlots.length)
    val mask = slots.length - 1
    var j = 0
    while (j < oldSlots.length) {
      if (oldSlots(j) != 0) {
        var i = oldHashes(j) & mask
        while (slots(i) != 0) i = (i + 1) & mask
        slots(i) = oldSlots(j)
        hashes(i) = oldHashes(j)
      }
      j += 1
    }
  }

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
  * once, when they are indexed; the key of a row is `Rel.key(row, cols)`.
  * Supports incremental refresh so the caching variants (TRIC+, INV+, INC+)
  * can reuse the build structure across updates instead of rebuilding it
  * (paper §4.2 "Caching").
  */
final class HashIdx(val rel: Rel, val spec: IdxSpec) {
  private val idx = mutable.HashMap.empty[AnyRef, mutable.ArrayBuffer[Array[String]]]
  private var indexed = 0

  /** Index any rows appended to `rel` since the last refresh. */
  def refresh(): this.type = {
    while (indexed < rel.size) {
      val r = rel.rows(indexed)
      if (spec.eq == null || PathEval.consistent(r, spec.eq))
        idx.getOrElseUpdate(Rel.key(r, spec.colArray), new mutable.ArrayBuffer[Array[String]]) += r
      indexed += 1
    }
    this
  }

  /** The indexed rows whose key is `k`, as built by `Rel.key`. */
  def probe(k: AnyRef): collection.Seq[Array[String]] =
    idx.getOrElse(k, Rel.noRows)
}

object Rel {
  private[engine] val noRows: collection.Seq[Array[String]] = Vector.empty

  /** The smallest power-of-two table, at least 8, holding `capacity` rows
    * at load 1/2.
    */
  private def tableSize(capacity: Int): Int =
    math.max(8, Integer.highestOneBit(math.max(1, 2 * capacity - 1)) << 1)

  /** A row's hash: per value, add its hash and multiply by the golden-ratio
    * constant; then fold the high bits into the low ones that pick a slot.
    * `Arrays.hashCode` multiplies by 31, the weight a `String` hash gives a
    * name's next-to-last character, so rows of similar names collide:
    * ("a1","b0") and ("a0","c0") hash alike there, and a grid of 100×100
    * names "v0".."v99" gets 2 800 distinct hashes.
    */
  private[engine] def hash(row: Array[String]): Int = {
    var h = 0
    var i = 0
    while (i < row.length) { h = (h + row(i).hashCode) * 0x9e3779b9; i += 1 }
    h ^ (h >>> 16)
  }

  private def same(a: Array[String], b: Array[String]): Boolean =
    java.util.Arrays.equals(a.asInstanceOf[Array[AnyRef]], b.asInstanceOf[Array[AnyRef]])

  /** The hash key of `row`'s values at `cols`: the bare value for one
    * column, else the selected values, compared element-wise, so no
    * separator can make two keys collide.
    */
  def key(row: Array[String], cols: Array[Int]): AnyRef =
    if (cols.length == 1) row(cols(0)) else scala.collection.immutable.ArraySeq.unsafeWrapArray(select(row, cols))

  /** A fresh array of `row`'s values at `cols`. */
  def select(row: Array[String], cols: Array[Int]): Array[String] = {
    val s = new Array[String](cols.length)
    var i = 0
    while (i < cols.length) { s(i) = row(cols(i)); i += 1 }
    s
  }

  /** `row` with `v` appended, as a fresh array. */
  def extend(row: Array[String], v: String): Array[String] = {
    val r = java.util.Arrays.copyOf(row, row.length + 1)
    r(row.length) = v
    r
  }

  /** The distinct rows of `rowSeq`, sized for them when their count is known. */
  def of(rowSeq: Iterable[Array[String]], arity: Int): Rel = {
    val r = new Rel(arity, math.max(rowSeq.knownSize, 4)); rowSeq.foreach(r.add); r
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
}
