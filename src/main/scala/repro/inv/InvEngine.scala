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

  /** The stream edges some view accepted, each once: a repeated edge is
    * dropped here, before any view sees it, so the views hold distinct rows
    * and every edge they are given is new.
    */
  private[repro] val edgeSet = mutable.HashSet.empty[Edge]

  /** Per query, its final join and generic edges, as `queryInd` holds them;
    * `passed` once every view of the query has a row (views only grow, so
    * for good). The rest is what answering the query computes of each
    * covering path `t` in update `e`, allocated here once and released
    * when the query is answered: `deltas(t)`, the path's rows that take
    * `e`; `rels(t)`, its rows — for INC, `marks(t)` rows without `e`, then
    * the delta, so `limit` can read its rows from before `e` alone — and
    * `seeded(t)`, whether INC seeded the final join with the delta.
    */
  private final class Entry(val join: FinalJoin, val gs: Vector[GEdge]) {
    var passed = false
    var e: Edge = null
    private val gens   = join.paths.map(Generic.ofPath)
    private val deltas = new Array[Rel](gens.size)
    private val rels   = new Array[Rel](gens.size)
    private val marks  = new Array[Int](gens.size)
    val seeded         = new Array[Boolean](gens.size)

    /** Whether a generic edge of path `t` matches `e`. */
    def touched(t: Int): Boolean = gens(t).exists(_.matches(e))

    def delta(t: Int): Rel = {
      if (deltas(t) == null) deltas(t) = PathEval.evalPathDelta(join.paths(t), edgeMat.get, jc, e)
      deltas(t)
    }

    val rel: Int => Rel = t => {
      if (rels(t) == null) rels(t) =
        if (!incremental) PathEval.evalPathFull(join.paths(t), edgeMat.get, jc)
        else {
          val r = PathEval.evalPathFull(join.paths(t), edgeMat.get, jc, without = e)
          marks(t) = r.size
          if (touched(t)) delta(t).rows.foreach(r.append)
          r
        }
      rels(t)
    }

    val limit: Int => Int = t => if (seeded(t)) { rel(t); marks(t) } else Int.MaxValue

    def release(): Unit = {
      java.util.Arrays.fill(deltas.asInstanceOf[Array[AnyRef]], null)
      java.util.Arrays.fill(rels.asInstanceOf[Array[AnyRef]], null)
      java.util.Arrays.fill(seeded, false)
      e = null
    }
  }
  private val entries = mutable.LongMap.empty[Entry]

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
    val join = new FinalJoin(paths)
    queryInd(q.id) = (q, join, gs)
    entries(q.id) = new Entry(join, gs)
  }

  def onUpdate(e: Edge): collection.Set[Int] = {
    started = true
    val views = Generic.generalizations(e).flatMap(g => edgeMat.get(g).map(g -> _))
    val matchedNow = mutable.LinkedHashSet.empty[Int]
    if (views.isEmpty || !edgeSet.add(e)) return matchedNow // no view, or a repeated edge: no-op
    val edge = Array(e.src, e.dst)
    for ((_, v) <- views) v.append(edge)

    // Step 1: locate affected queries, keep those whose views are all non-empty
    val affected = views.flatMap { case (g, _) => edgeInd(g) }.distinct
    for (qid <- affected) {
      val en = entries(qid)
      if (en.passed || en.gs.forall(g => edgeMat(g).nonEmpty) && { en.passed = true; true }) {
        // Steps 2–3: materialize the covering paths, then join the paths of
        // each group; every answer of group g comes from its first path
        val join = en.join
        en.e = e
        def whole(g: Int): Iterator[Array[String]] = {
          val t = join.groups(g).head
          join.from(t, en.rel(t).rows, en.rel, rebuild)
        }
        val gained =
          if (!incremental) {
            join.paths.indices.foreach(en.rel)
            recordAll(qid, join.groupVars, join.groups.indices.map(whole))
          } else if (!active(qid))
            // the first update past the gate computes every group in full:
            // a group could have answers while another's view was empty
            matched(qid, join.groups.indices.map(g => recordNew(qid, join.groupVars, g, whole(g))).exists(identity))
          else {
            // INC: a new answer takes the update on a touched path, so
            // each touched path is seeded with its delta alone — but, per
            // the paper (INC is only ~54% faster than INV), the OTHER
            // covering paths are still materialized in full. The update is
            // new, so every answer that takes it is new; each seed reads
            // the paths seeded before it without the update (semi-naive,
            // as in `FinalJoin.from`), so no two seeds give one answer.
            for (t <- join.paths.indices if !en.touched(t)) en.rel(t)
            var any = false
            for (t <- join.paths.indices if en.touched(t) && en.delta(t).nonEmpty) {
              any |= recordNew(qid, join.groupVars, join.groupOf(t), join.from(t, en.delta(t).rows, en.rel, rebuild, en.limit))
              en.seeded(t) = true
            }
            matched(qid, any)
          }
        en.release()
        if (gained) matchedNow += qid
      }
    }
    matchedNow
  }

  /** Structures whose size constitutes the engine's memory footprint. */
  def memoryRoots: Seq[AnyRef] = Seq(edgeInd, queryInd, edgeMat, edgeSet, jc)
}
