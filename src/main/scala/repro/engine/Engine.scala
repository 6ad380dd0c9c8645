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
  * engines can be diffed against the DuckDB oracle.
  *
  * A query's answers are stored factorized, as the answers of each of its
  * groups (`PathEval.FinalJoin.groups`: covering paths connected by shared
  * variables); its bindings are their product, expanded only by `bindings`.
  * Delta engines append the rows an update adds to a group (`recordNew`,
  * then `matched`); recomputing engines hand over every group's rows so far
  * (`recordAll`).
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

  /** A query's answers: the variables of each of its groups, the column
    * order of that group's rows, and each group's answers found so far,
    * once, in the order found.
    */
  private final class Answers(val vars: Vector[Vector[String]]) {
    val rows = Array.fill(vars.size)(new mutable.ArrayBuffer[Array[String]])
    def complete: Boolean = rows.forall(_.nonEmpty)
  }

  /** Per query, its answers. Append-only: nothing here deduplicates against
    * the whole history, so an update pays for the group rows it adds. Maps
    * are built only by `bindings`.
    */
  private val answers = mutable.LongMap.empty[Answers]

  final def satisfied: collection.Set[Int] = satisfiedSet

  /** Every binding of `qid` so far: the product of its groups' answers. */
  final def bindings(qid: Int): Set[Binding] = answers.get(qid) match {
    case Some(a) if a.complete =>
      val out = Set.newBuilder[Binding]
      val at  = new Array[Int](a.rows.length) // the row of each group, an odometer
      var g   = 0
      while (g >= 0) {
        val b = Map.newBuilder[String, String]
        var k = 0
        while (k < at.length) {
          val r = a.rows(k)(at(k))
          var j = 0
          while (j < r.length) { b += a.vars(k)(j) -> r(j); j += 1 }
          k += 1
        }
        out += b.result()
        g = at.length - 1
        while (g >= 0 && { at(g) += 1; at(g) == a.rows(g).size }) { at(g) = 0; g -= 1 }
      }
      out.result()
    case _ => Set.empty
  }

  /** The number of bindings of `qid`: the product of its group sizes. */
  private[repro] def storedRows(qid: Int): Long =
    answers.get(qid).fold(0L)(_.rows.foldLeft(1L)((n, g) => Math.multiplyExact(n, g.size.toLong)))

  /** The number of group rows stored for `qid`: the sum of its group sizes. */
  private[repro] def groupRows(qid: Int): Long = answers.get(qid).fold(0L)(_.rows.map(_.size.toLong).sum)

  /** Whether answers of `qid` are stored: a delta engine computed every
    * group of it in full once, and appends to them from then on.
    */
  protected final def active(qid: Int): Boolean = answers.contains(qid)

  private def answersOf(qid: Int, vars: Vector[Vector[String]]): Answers = {
    val a = answers.getOrElseUpdate(qid, new Answers(vars))
    require((a.vars eq vars) || a.vars == vars, s"query $qid: rows over $vars, stored over ${a.vars}")
    a
  }

  /** Append `rows`, answers of group `g` of `qid` that are new in this
    * update and distinct, one value per variable of `vars(g)` in that
    * order; true iff there was one. Stores the query's answers, its groups
    * over `vars`, on first use. The delta engines' final joins seed with
    * rows their paths gained in this update, so each row they give is new;
    * two seed paths of one group could give the same answer, but TRIC and
    * INC limit each seed's reads of the paths seeded before it to their
    * rows from before the update (`FinalJoin.from`), so none does.
    */
  protected final def recordNew(qid: Int, vars: Vector[Vector[String]], g: Int,
                                rows: IterableOnce[Array[String]]): Boolean = {
    val a  = answersOf(qid, vars)
    val n0 = a.rows(g).size
    a.rows(g) ++= rows
    a.rows(g).size > n0
  }

  /** Whether `qid` gained a binding in this update, given whether some
    * group of it `gained` a row: so it did iff every group now has one (the
    * paper's `mark_Matched`), which is when `onUpdate` reports `qid`.
    */
  protected final def matched(qid: Int, gained: Boolean): Boolean = {
    val m = gained && answers.get(qid).exists(_.complete)
    if (m) satisfiedSet += qid
    m
  }

  /** Replace the answers of `qid` with `rows`, every answer so far of each
    * group over `vars`, each once; true iff there are more bindings than
    * before. The stream only inserts, so a group's answers only grow, and
    * the recomputing engines (INV, INV+, Neo4j) report `qid` exactly when
    * every group has a row and one gained a row.
    */
  protected final def recordAll(qid: Int, vars: Vector[Vector[String]],
                                rows: Seq[IterableOnce[Array[String]]]): Boolean = {
    val all  = rows.map(mutable.ArrayBuffer.from(_))
    val old  = answers.get(qid)
    val grew = all.forall(_.nonEmpty) && all.indices.exists(g => all(g).size > old.fold(0)(_.rows(g).size))
    if (grew) {
      val a = answersOf(qid, vars)
      all.indices.foreach(g => a.rows(g) = all(g))
      satisfiedSet += qid
    }
    grew
  }

  /** `recordAll` for every answer so far given as maps, stored as one group
    * in the column order of the query's earlier answers, else in its
    * variables' sorted order.
    */
  protected final def record(qid: Int, bs: IterableOnce[Binding]): Boolean = {
    val it = bs.iterator.buffered
    if (!it.hasNext) return false
    val vars = answers.get(qid).fold(Vector(it.head.keys.toVector.sorted))(_.vars)
    recordAll(qid, vars, Seq(it.map(b => vars.head.iterator.map(b).toArray)))
  }

  final def indexAll(qs: Iterable[QueryPattern]): Unit = qs.foreach(indexQuery)
  final def replay(stream: Iterable[Edge]): Unit = stream.foreach(onUpdate)
}
