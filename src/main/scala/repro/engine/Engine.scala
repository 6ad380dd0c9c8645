package repro.engine

import repro.graph.Edge
import repro.query.QueryPattern
import repro.query.QueryPattern.Binding

import scala.collection.mutable

/** Common interface of all continuous multi-query engines (TRIC/TRIC+,
  * INV/INV+, INC/INC+, GraphDb): index queries up front, then consume the
  * graph stream one update at a time, reporting which queries are satisfied.
  *
  * `onUpdate` returns the ids of the queries that gained at least one new
  * binding because of the update (the paper's `mark_Matched`), the same ids
  * from every engine; `satisfied` accumulates them and `bindings` holds
  * every distinct variable binding discovered, so that at end-of-stream the
  * engines can be diffed against the DuckDB oracle. Delta engines append
  * the answers an update adds (`recordNew`); recomputing engines hand over
  * every answer so far (`recordAll`).
  */
trait ContinuousEngine {
  def name: String
  def indexQuery(q: QueryPattern): Unit
  def onUpdate(e: Edge): collection.Set[Int]

  /** The retained data structures accounted as the engine's memory footprint
    * (paper Table 1); measured with Spark's `SizeEstimator` by the bench.
    */
  def memoryRoots: Seq[AnyRef]

  protected val satisfiedSet = mutable.LinkedHashSet.empty[Int]

  /** A query's answers: its variables, the column order of its rows, and
    * each answer found so far, once, in the order found.
    */
  private final class Answers(val vars: Vector[String], val rows: mutable.ArrayBuffer[Array[String]])

  /** Per query, its answers. Append-only: nothing here deduplicates against
    * the whole history, so an update pays for the rows it adds. Maps are
    * built only by `bindings`.
    */
  private val answers = mutable.LongMap.empty[Answers]

  final def satisfied: collection.Set[Int] = satisfiedSet
  final def bindings(qid: Int): Set[Binding] = answers.get(qid) match {
    case Some(a) => a.rows.iterator.map(r => a.vars.iterator.zip(r.iterator).toMap).toSet
    case None    => Set.empty
  }

  /** The number of answer rows stored for `qid`. */
  private[repro] def storedRows(qid: Int): Int = answers.get(qid).fold(0)(_.rows.size)

  private def answersOf(qid: Int, vars: Vector[String]): Option[Answers] = {
    val a = answers.get(qid)
    a.foreach(a => require(a.vars == vars, s"query $qid: rows over $vars, stored over ${a.vars}"))
    a
  }

  /** Append `rows`, answers of `qid` that are new in this update and
    * distinct, one value per variable of `vars` in that order; true iff
    * there was one (the paper's `mark_Matched`), which is when `onUpdate`
    * reports `qid`. The delta engines' final joins seed with rows their
    * views accepted in this update, so each row they give is new; only two
    * seed paths of one query can give the same answer. TRIC limits each
    * seed's reads of the paths seeded before it so that none does; INC
    * removes the repeats itself.
    */
  protected final def recordNew(qid: Int, vars: Vector[String], rows: IterableOnce[Array[String]]): Boolean = {
    val it = rows.iterator
    if (!it.hasNext) return false
    answersOf(qid, vars) match {
      case Some(a) => a.rows ++= it
      case None    => answers(qid) = new Answers(vars, mutable.ArrayBuffer.from(it))
    }
    satisfiedSet += qid
    true
  }

  /** Replace the answers of `qid` with `rows`, every answer so far, each
    * once, in `vars` order; true iff there are more than before. The stream
    * only inserts, so a query's answers only grow, and the recomputing
    * engines (INV, INV+, Neo4j) report `qid` exactly when it gained one.
    */
  protected final def recordAll(qid: Int, vars: Vector[String], rows: IterableOnce[Array[String]]): Boolean = {
    val all = mutable.ArrayBuffer.from(rows)
    val grew = all.size > answersOf(qid, vars).fold(0)(_.rows.size)
    if (grew) {
      answers(qid) = new Answers(vars, all)
      satisfiedSet += qid
    }
    grew
  }

  /** `recordAll` for every answer so far given as maps, stored in the
    * column order of the query's earlier answers, else in its variables'
    * sorted order.
    */
  protected final def record(qid: Int, bs: IterableOnce[Binding]): Boolean = {
    val it = bs.iterator.buffered
    if (!it.hasNext) return false
    val vars = answers.get(qid).fold(it.head.keys.toVector.sorted)(_.vars)
    recordAll(qid, vars, it.map(b => vars.iterator.map(b).toArray))
  }

  final def indexAll(qs: Iterable[QueryPattern]): Unit = qs.foreach(indexQuery)
  final def replay(stream: Iterable[Edge]): Unit = stream.foreach(onUpdate)
}
