package repro.engine

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** An in-memory relation of fixed arity over vertex labels — the paper's
  * materialized view (`matV`). Rows are deduplicated on insert, which makes
  * delta propagation idempotent (the same tuple reached through two trie
  * routes is stored once). Rows must not be mutated once added.
  */
final class Rel(val arity: Int) {
  val rows = new mutable.ArrayBuffer[Array[String]]
  private val seen = mutable.HashSet.empty[Rel.Key]

  /** Insert a row; returns true iff the row was new. */
  def add(row: Array[String]): Boolean = {
    require(row.length == arity, s"arity mismatch: ${row.length} vs $arity")
    if (seen.add(Rel.key(row))) { rows += row; true } else false
  }

  def contains(row: Array[String]): Boolean = seen.contains(Rel.key(row))
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

  /** The hash key of a row or of some of its columns: the values themselves,
    * compared element-wise, so no separator can make two keys collide.
    */
  type Key = ArraySeq[String]

  def key(row: Array[String]): Key = ArraySeq.unsafeWrapArray(row)

  /** The key of `row`'s values at `cols`: the bare value for one column,
    * else a [[Key]] over the selected values.
    */
  def key(row: Array[String], cols: Array[Int]): AnyRef =
    if (cols.length == 1) row(cols(0)) else ArraySeq.unsafeWrapArray(select(row, cols))

  /** A fresh array of `row`'s values at `cols`. */
  def select(row: Array[String], cols: Array[Int]): Array[String] = {
    val s = new Array[String](cols.length)
    var i = 0
    while (i < cols.length) { s(i) = row(cols(i)); i += 1 }
    s
  }

  def of(rowSeq: Iterable[Array[String]], arity: Int): Rel = {
    val r = new Rel(arity); rowSeq.foreach(r.add); r
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
  private val indexes = mutable.HashMap.empty[(Rel, IdxSpec), HashIdx]
  var builds: Long = 0L

  /** A hash index of `rel` under `spec`, refreshed to `rel`'s last row. */
  def index(rel: Rel, spec: IdxSpec): HashIdx = {
    val idx =
      if (enabled) indexes.getOrElseUpdate((rel, spec), { builds += 1; new HashIdx(rel, spec) })
      else { builds += 1; new HashIdx(rel, spec) }
    idx.refresh()
  }

  /** A hash index of every row of `rel` on column `col`. */
  def index(rel: Rel, col: Int): HashIdx = index(rel, IdxSpec.column(col))

  /** Indexes held for reuse (always 0 under the rebuilding policy). */
  def size: Int = indexes.size
}
