package repro.core

import repro.engine.{ContinuousEngine, JoinCache, Rel}
import repro.engine.PathEval.FinalJoin
import repro.graph.Edge
import repro.query.{CoveringPaths, GEdge, Generic, QueryPattern}

import scala.collection.mutable

/** TRIC — TRIe-based Clustering (paper §4), the paper's primary contribution.
  *
  * Indexing (§4.1): each query is decomposed into covering paths; each path is
  * genericized (variables → `?var`) and threaded into a forest of tries whose
  * nodes are generic edges, so queries sharing path prefixes share trie nodes
  * — and therefore share the per-node materialized views built at answering
  * time. `rootInd` finds the trie for a path's first edge, `edgeInd` maps a
  * generic edge to the tries (nodes) indexing it, and `queryInd` remembers for
  * every query the last trie node of each of its covering paths.
  *
  * Answering (§4.2): for an update, the affected trie nodes are located via
  * `edgeInd`; the node's view is extended by joining its parent's view with
  * just the update tuple (incremental, not a full re-join), and the delta is
  * propagated down the sub-trie — a sub-trie whose delta join comes up empty
  * is pruned. Both steps follow the semi-naive rule
  * Δn = (Δparent ⋈ E) ∪ (parentᵒˡᵈ ⋈ ΔE), so every view row is derived
  * once and appended as it is. Queries registered at reached path-end nodes
  * are then answered by the shared [[FinalJoin]], seeded with the delta
  * (applying the variable-equality constraints the genericization dropped).
  *
  * Every hash join — parent step, propagation and final join — takes its
  * build structure from the engine's [[JoinCache]], which alone decides
  * between TRIC and TRIC+.
  *
  * @param caching true = TRIC+ — reuse and incrementally refresh the hash-join
  *                build structures instead of rebuilding them per join.
  */
final class TricEngine(caching: Boolean) extends ContinuousEngine {

  private[repro] val jc = new JoinCache(caching)

  def name: String = if (jc.enabled) "TRIC+" else "TRIC"

  /** One trie node: a generic edge at a given depth. Its materialized view
    * has one column per path position 0..depth+1. Queries are registered at
    * the node ending one of their covering paths: `ends` holds (query slot,
    * path index) pairs packed as `slot << 32 | index`. A node holds
    * integers where it could hold references (its edge view is
    * `keyViews(id)`, a query is `entries(slot)`), so nothing outside the
    * trie is reachable from it.
    * `stamp` is the last update that gave the node a delta, and `mark` the
    * size of its view before that update: the update's delta is
    * `matV.rows` from `mark` on, and its rows before it are those below
    * `mark`. Every row of `matV` is derived once, so the view is built by
    * `Rel.append` and holds no dedup table.
    */
  final class Node(val key: GEdge, val depth: Int, val parent: Node, private[TricEngine] val id: Int) {
    val children = new mutable.ArrayBuffer[Node]
    val matV     = new Rel(depth + 2)
    private[TricEngine] var ends  = Array.emptyLongArray
    private[TricEngine] var stamp = 0
    private[TricEngine] var mark  = 0
  }

  /** rootInd: first generic edge of a path → trie root. */
  val rootInd = mutable.HashMap.empty[GEdge, Node]

  /** edgeInd: generic edge → every trie node keyed by it. The paper stores
    * trie roots and DFS-walks to the node; we keep direct node references —
    * the same lookups with the constant-factor walk removed.
    */
  val edgeInd = mutable.HashMap.empty[GEdge, mutable.ArrayBuffer[Node]]

  /** Per-edge materialized views shared by the whole query set: all stream
    * edges matching each generic edge seen in any indexed path.
    */
  val edgeMat = mutable.HashMap.empty[GEdge, Rel]

  /** The stream edges some view accepted, each once: a repeated edge is
    * dropped here, before any view sees it, so the edge views hold
    * distinct rows and every edge they are given is new.
    */
  private[repro] val edgeSet = mutable.HashSet.empty[Edge]

  /** queryInd: query id → (original pattern, its final join over the
    * covering paths, last trie node of each path) — everything needed for
    * the final per-query join.
    */
  val queryInd = mutable.LinkedHashMap.empty[Int, (QueryPattern, FinalJoin, Vector[Node])]

  /** A query's final join and the last node of each covering path, as
    * `queryInd` holds them, at the query's slot in `entries`. For the update
    * that last touched it (`stamp`), `seeds(0 until nSeeds)` are the paths
    * whose end nodes received a delta. `limits(t)` is how many rows of path
    * `t`'s view the final join reads: every one, but while the update's
    * later seeds are joined, only those from before the update for a path
    * already seeded.
    */
  private final class Entry(val qid: Int, val join: FinalJoin, val lasts: Vector[Node]) {
    val views: Int => Rel = lasts(_).matV
    val limits = Array.fill(lasts.size)(Int.MaxValue)
    val limit: Int => Int = limits(_)
    val seeds  = new Array[Int](lasts.size)
    var nSeeds = 0
    var stamp  = 0
  }
  private val entries = new mutable.ArrayBuffer[Entry]

  /** Each node's edge view, by node id. */
  private val keyViews = new mutable.ArrayBuffer[Rel]

  /** Updates that changed the graph so far: the stamp of the current one. */
  private var updates = 0

  /** Whether `onUpdate` was called: the graph is no longer empty. */
  private var started = false

  /** Index `q`. Every query must be indexed before the first update: a
    * view created later would miss the edges before it, and views are
    * extended only by deltas.
    */
  def indexQuery(q: QueryPattern): Unit = {
    require(!started, s"query ${q.id} indexed after the first update; index every query before the stream starts")
    require(!queryInd.contains(q.id), s"query ${q.id} is already indexed")
    val slot  = entries.size
    val paths = CoveringPaths.cover(q)
    val lasts = paths.indices.map { t =>
      val gs = Generic.ofPath(paths(t))
      var node: Node = rootInd.getOrElseUpdate(gs.head, mkNode(gs.head, 0, null))
      for (g <- gs.tail) {
        node = node.children.find(_.key == g).getOrElse {
          val n = mkNode(g, node.depth + 1, node)
          node.children += n
          n
        }
      }
      node.ends = java.util.Arrays.copyOf(node.ends, node.ends.length + 1)
      node.ends(node.ends.length - 1) = slot.toLong << 32 | t
      node
    }.toVector
    val join = new FinalJoin(paths)
    queryInd(q.id) = (q, join, lasts)
    entries += new Entry(q.id, join, lasts)
  }

  private def mkNode(g: GEdge, depth: Int, parent: Node): Node = {
    val n  = new Node(g, depth, parent, keyViews.size)
    keyViews += edgeMat.getOrElseUpdate(g, new Rel(2))
    edgeInd.getOrElseUpdate(g, new mutable.ArrayBuffer[Node]) += n
    n
  }

  def onUpdate(e: Edge): collection.Set[Int] = {
    started = true
    // 1. extend the shared per-edge views with the update; ΔE = {e} for
    //    the nodes of every view it matches
    val views = new mutable.ArrayBuffer[Rel](4)
    val lists = new mutable.ArrayBuffer[mutable.ArrayBuffer[Node]](4)
    for (g <- Generic.generalizations(e)) edgeMat.get(g).foreach { v =>
      views += v
      lists += edgeInd(g)
    }
    val matchedNow = mutable.LinkedHashSet.empty[Int]
    if (views.isEmpty || !edgeSet.add(e)) return matchedNow // no view, or a repeated edge: no-op
    updates += 1
    val edge = Array(e.src, e.dst)
    views.foreach(_.append(edge))

    // 2. extend the trie views by Δn = (Δparent ⋈ E) ∪ (parentᵒˡᵈ ⋈ ΔE):
    //    `joinUpdate` adds the second term at every node whose edge view
    //    accepted e, and `propagate` pushes each node's new rows down the
    //    sub-trie, the first term at its children. The two terms are
    //    disjoint and neither repeats a row, so rows are appended as they
    //    are and the order of the visits does not matter. While
    //    propagating, collect the path-end nodes reached: the paper's final
    //    joins use "only the updated part of a materialized view" (Fig. 11),
    //    never the full view, and a node's view gained exactly its rows
    //    from `mark` on.
    val reached = new mutable.ArrayBuffer[Node]
    for (ns <- lists; n <- ns) {
      val lo = n.matV.size
      joinUpdate(n, e, edge)
      if (n.matV.size > lo) propagate(n, lo, reached)
    }

    // 3. final joins: for every query registered at a path-end node that
    //    received a delta, join that DELTA against the other paths of its
    //    group — new answers of the group only, like the paper's
    //    incremental-view joins. A delta row was not in its view before,
    //    and the views are complete, so every earlier answer's row of that
    //    path was: each answer a delta gives is new. When several paths of
    //    a group are seeded, each seed reads the paths seeded before it
    //    only up to their marks (the semi-naive rule
    //    ΔQ = ⋃ₖ V₁ᵒˡᵈ…Vₖ₋₁ᵒˡᵈ Δₖ Vₖ₊₁ⁿᵉʷ…Vₙⁿᵉʷ), so an answer comes only
    //    from the seed of its first new row, and no seed repeats another's
    //    answer. On the first update to pass a query's gate, a group whose
    //    paths all had rows before it could have answers that were never
    //    recorded (another group's view was still empty): it is computed in
    //    full instead, from the smallest of its paths' views.
    val touched = new mutable.ArrayBuffer[Entry]
    for (n <- reached) {
      var k = 0
      while (k < n.ends.length) {
        val en = entries((n.ends(k) >>> 32).toInt)
        if (en.stamp != updates) {
          en.stamp = updates
          en.nSeeds = 0
          touched += en
        }
        en.seeds(en.nSeeds) = n.ends(k).toInt
        en.nSeeds += 1
        k += 1
      }
    }
    for (en <- touched if en.lasts.forall(_.matV.nonEmpty)) {
      val join   = en.join
      val fresh  = !active(en.qid)
      var gained = false
      var k = 0
      while (k < en.nSeeds) {
        val t = en.seeds(k)
        val n = en.lasts(t)
        if (!fresh || !filledBefore(en, join.groupOf(t))) {
          val delta = n.matV.rows.view.slice(n.mark, n.matV.size)
          gained |= recordNew(en.qid, join.groupVars, join.groupOf(t), join.from(t, delta, en.views, jc, en.limit))
          en.limits(t) = n.mark
        }
        k += 1
      }
      k = 0
      while (k < en.nSeeds) { en.limits(en.seeds(k)) = Int.MaxValue; k += 1 }
      if (fresh) for (g <- join.groups.indices if filledBefore(en, g)) {
        val t = join.groups(g).minBy(en.lasts(_).matV.size)
        gained |= recordNew(en.qid, join.groupVars, g, join.from(t, en.lasts(t).matV.rows, en.views, jc))
      }
      if (matched(en.qid, gained)) matchedNow += en.qid
    }
    matchedNow
  }

  /** Append to `n`'s view the second term of the semi-naive rule: its
    * parent's rows from before the update (below `mark` if the parent has
    * a delta, all of them if it has none yet) joined with the update
    * alone, with no index built when there are none; for a root, the
    * update itself.
    */
  private def joinUpdate(n: Node, e: Edge, edge: Array[String]): Unit = {
    val p = n.parent
    if (p == null) n.matV.append(edge)
    else {
      val old = if (p.stamp == updates) p.mark else p.matV.size
      if (old > 0) {
        val idx = jc.index(p.matV, n.depth)
        var h   = idx.first(e.src)
        while (h >= old) h = idx.next(h)
        while (h >= 0) {
          n.matV.append(Rel.extend(p.matV.rows(h), e.dst))
          h = idx.next(h)
        }
      }
    }
  }

  /** Whether every path of group `g` of `en` had rows before this update.
    * Only such a group can have answers that were never recorded when the
    * query first passes its gate; any other group's answers all use a row
    * of a path whose rows are all new, so its delta holds them all.
    */
  private def filledBefore(en: Entry, g: Int): Boolean =
    en.join.groups(g).forall { t =>
      val n = en.lasts(t)
      (if (n.stamp == updates) n.mark else n.matV.size) > 0
    }

  /** Push the rows `n` just gained, its view's rows from `lo` on, down the
    * sub-trie, pruning branches whose join is empty: each child joins them
    * with its edge view as it is after the update (the first term of
    * Δc = (Δn ⋈ E) ∪ (nᵒˡᵈ ⋈ ΔE)), probing the view's hash index from `jc`.
    * The first time in an update that `n` gains rows, it records the
    * update as `stamp` and its earlier size `lo` as `mark`; path-end nodes
    * are then collected for the final joins. Distinct delta rows of `n`,
    * each extended by distinct edge rows, give distinct rows that `c` did
    * not hold, so they are appended.
    */
  private def propagate(n: Node, lo: Int, reached: mutable.ArrayBuffer[Node]): Unit = {
    if (n.stamp != updates) {
      n.stamp = updates
      n.mark = lo
      if (n.ends.length > 0) reached += n
    }
    val rows = n.matV.rows
    val hi   = rows.size
    var ci = 0
    while (ci < n.children.size) {
      val c    = n.children(ci)
      val cLo  = c.matV.size
      val eIdx = jc.index(keyViews(c.id), 0)
      var i = lo
      while (i < hi) {
        val row = rows(i)
        var h   = eIdx.first(row(n.depth + 1))
        while (h >= 0) {
          c.matV.append(Rel.extend(row, eIdx.rel.rows(h)(1)))
          h = eIdx.next(h)
        }
        i += 1
      }
      if (c.matV.size > cLo) propagate(c, cLo, reached)
      ci += 1
    }
  }

  /** Structures whose size constitutes the engine's memory footprint: the
    * trie, its views, the edges they accepted and whatever the join cache
    * holds for reuse.
    */
  def memoryRoots: Seq[AnyRef] = Seq(rootInd, edgeInd, edgeMat, edgeSet, queryInd, jc)
}
