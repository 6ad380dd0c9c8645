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
  protected val bindingStore = mutable.HashMap.empty[Int, mutable.HashSet[Binding]]

  final def satisfied: collection.Set[Int] = satisfiedSet
  final def bindings(qid: Int): Set[Binding] =
    bindingStore.get(qid).map(_.toSet).getOrElse(Set.empty)

  /** Store the bindings `bs` found for `qid`; true iff one of them was new,
    * which is when `onUpdate` reports `qid`.
    */
  protected final def record(qid: Int, bs: IterableOnce[Binding]): Boolean = {
    if (!bs.iterator.hasNext) return false
    val store = bindingStore.getOrElseUpdate(qid, mutable.HashSet.empty)
    val known = store.size
    store ++= bs // reuses the hashes of an immutable HashSet
    val gained = store.size > known
    if (gained) satisfiedSet += qid
    gained
  }

  final def indexAll(qs: Iterable[QueryPattern]): Unit = qs.foreach(indexQuery)
  final def replay(stream: Iterable[Edge]): Unit = stream.foreach(onUpdate)
}
