package repro.inv

import repro.engine.{ContinuousEngine, JoinCache, PathEval, Rel}
import repro.engine.PathEval.FinalJoin
import repro.graph.Edge
import repro.query.{CoveringPaths, GEdge, Generic, QueryPattern}

import scala.collection.mutable

/** The paper's advanced inverted-index baselines (§5.1–§5.2).
  *
  * INV indexes queries at edge granularity: `edgeInd` maps each generic edge
  * to the queries containing it, `queryInd` keeps each query's covering paths,
  * and `sourceInd`/`targetInd` link edges through shared vertices (here the
  * per-query path lists subsume the recursive source/target walk — the walk's
  * result is exactly the query's own covering paths, which `queryInd` stores).
  *
  * Per update, the affected queries are found through `edgeInd`; a query whose
  * edges all have non-empty views is then answered by re-joining the per-edge
  * materialized views along every covering path — a full recompute, with no
  * sharing across queries. That full recompute is what TRIC's shared trie
  * views eliminate, and why INV degrades steeply with graph size.
  *
  * @param incremental true = INC — the path(s) containing the update edge are
  *                    evaluated starting from just the update tuple (§5.2);
  *                    other paths are still fully recomputed.
  * @param caching     true = the "+" variants — hash-join build structures
  *                    over the persistent per-edge views are cached and
  *                    refreshed incrementally instead of rebuilt.
  */
final class InvEngine(incremental: Boolean, caching: Boolean) extends ContinuousEngine {

  private[repro] val jc = new JoinCache(caching)

  /** The final joins' policy: always rebuild. Their path relations are
    * recomputed per update, so a cache keyed on them would only grow.
    */
  private val rebuild = new JoinCache(false)

  def name: String =
    (if (incremental) "INC" else "INV") + (if (jc.enabled) "+" else "")

  /** edgeInd: generic edge → ids of queries having it on a covering path. */
  val edgeInd = mutable.HashMap.empty[GEdge, mutable.LinkedHashSet[Int]]

  /** queryInd: query id → (pattern, its final join over the covering paths,
    * the generic edges used).
    */
  val queryInd = mutable.LinkedHashMap.empty[Int, (QueryPattern, FinalJoin, Vector[GEdge])]

  /** Per-generic-edge materialized views (shared across queries, as in TRIC —
    * the difference is what is done with them per update).
    */
  val edgeMat = mutable.HashMap.empty[GEdge, Rel]

  /** Queries that passed the gate: every view of theirs has a row. Views
    * only grow, so a query passes once and for all.
    */
  private val passed = mutable.HashSet.empty[Int]

  /** Whether `onUpdate` was called: the graph is no longer empty. */
  private var started = false

  /** Index `q`. Every query must be indexed before the first update: a
    * view created later would miss the edges before it.
    */
  def indexQuery(q: QueryPattern): Unit = {
    require(!started, s"query ${q.id} indexed after the first update; index every query before the stream starts")
    val paths = CoveringPaths.cover(q)
    val gs    = paths.flatMap(Generic.ofPath).distinct
    gs.foreach { g =>
      edgeInd.getOrElseUpdate(g, mutable.LinkedHashSet.empty) += q.id
      edgeMat.getOrElseUpdate(g, new Rel(2))
    }
    queryInd(q.id) = (q, new FinalJoin(paths), gs)
  }

  def onUpdate(e: Edge): collection.Set[Int] = {
    started = true
    val views = Generic.generalizations(e).flatMap(g => edgeMat.get(g).map(g -> _))
    val edge  = Array(e.src, e.dst)
    var fresh = false
    for ((_, v) <- views) fresh |= v.add(edge)
    val matchedNow = mutable.LinkedHashSet.empty[Int]
    if (!fresh) return matchedNow

    // Step 1: locate affected queries, keep those whose views are all non-empty
    val affected = views.flatMap { case (g, _) => edgeInd(g) }.distinct
    for (qid <- affected) {
      val (_, join, gs) = queryInd(qid)
      if (passed(qid) || gs.forall(g => edgeMat(g).nonEmpty) && passed.add(qid)) {
        // Steps 2–3: materialize each covering path, then join the paths
        // of each group
        val paths = join.paths
        val fullCache = mutable.HashMap.empty[Int, Rel]
        def full(i: Int): Rel =
          fullCache.getOrElseUpdate(i, PathEval.evalPathFull(paths(i), edgeMat.get, jc))
        // every answer of group g, from its first path's full relation
        def whole(g: Int): Iterator[Array[String]] = {
          val t = join.groups(g).head
          join.from(t, full(t).rows, full, rebuild)
        }

        val gained =
          if (!incremental) {
            paths.indices.foreach(full)
            recordAll(qid, join.groupVars, join.groups.indices.map(whole))
          } else {
            // INC: a new answer must use the update tuple on some touched
            // path, so the touched path is seeded with just the update tuple
            // — but, per the paper (INC is only ~54% faster than INV), the
            // OTHER covering paths are still materialized in full from the
            // per-edge views on every affected update; only the number of
            // tuples examined on the touched path shrinks. The update edge
            // is fresh, so every answer using it is new; two touched paths
            // of one group can both give one, which is removed here. The
            // first update past the gate computes every group in full
            // instead, since a group could have answers while another's
            // view was empty.
            val touched = paths.indices.filter(i => paths(i).exists(pe => Generic.of(pe).matches(e)))
            paths.indices.filterNot(touched.contains).foreach(full)
            def seeded(t: Int) = {
              val seed = PathEval.evalPathDelta(paths(t), edgeMat.get, jc, e)
              join.from(t, seed.rows, i => if (i == t) seed else full(i), rebuild)
            }
            val gains =
              if (!active(qid)) join.groups.indices.map(g => recordNew(qid, join.groupVars, g, whole(g)))
              else touched.groupBy(join.groupOf(_)).map { case (g, ts) =>
                val rows =
                  if (ts.size == 1) seeded(ts.head)
                  else Rel.of(ts.flatMap(seeded), join.groupVars(g).size).rows
                recordNew(qid, join.groupVars, g, rows)
              }
            matched(qid, gains.exists(identity))
          }
        if (gained) matchedNow += qid
      }
    }
    matchedNow
  }

  /** Structures whose size constitutes the engine's memory footprint. */
  def memoryRoots: Seq[AnyRef] = Seq(edgeInd, queryInd, edgeMat, jc)
}
