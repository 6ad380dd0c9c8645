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
  * from every engine; `satisfied` accumulates them and `bindings`
  * accumulates every distinct variable binding discovered, so that at
  * end-of-stream the engines can be diffed against the DuckDB oracle.
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

  /** Per query: its variables, the column order of its answer rows, and the
    * distinct rows found so far. Maps are built only by `bindings`.
    */
  private val bindingStore = mutable.HashMap.empty[Int, (Vector[String], Rel)]

  final def satisfied: collection.Set[Int] = satisfiedSet
  final def bindings(qid: Int): Set[Binding] = bindingStore.get(qid) match {
    case Some((vars, rel)) => rel.rows.iterator.map(r => vars.iterator.zip(r.iterator).toMap).toSet
    case None              => Set.empty
  }

  /** Store the answer rows `rows` found for `qid`, one value per variable of
    * `vars` in that order; true iff one of them was new, which is when
    * `onUpdate` reports `qid`.
    */
  protected final def record(qid: Int, vars: Vector[String], rows: IterableOnce[Array[String]]): Boolean = {
    val it = rows.iterator
    if (!it.hasNext) return false
    val (known, store) = bindingStore.getOrElseUpdate(qid, (vars, new Rel(vars.size)))
    require(known == vars, s"query $qid: rows over $vars, stored over $known")
    var gained = false
    while (it.hasNext) gained |= store.add(it.next())
    if (gained) satisfiedSet += qid
    gained
  }

  /** `record` for bindings given as maps, stored in the column order of the
    * query's earlier answers, else in its variables' sorted order.
    */
  protected final def record(qid: Int, bs: IterableOnce[Binding]): Boolean = {
    val it = bs.iterator.buffered
    if (!it.hasNext) return false
    val vars = bindingStore.get(qid).fold(it.head.keys.toVector.sorted)(_._1)
    record(qid, vars, it.map(b => vars.iterator.map(b).toArray))
  }

  final def indexAll(qs: Iterable[QueryPattern]): Unit = qs.foreach(indexQuery)
  final def replay(stream: Iterable[Edge]): Unit = stream.foreach(onUpdate)
}
