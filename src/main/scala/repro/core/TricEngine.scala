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
  * is pruned. Queries registered at reached path-end nodes are then answered
  * by the shared [[FinalJoin]], seeded with the delta (applying the
  * variable-equality constraints the genericization dropped).
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

  /** The rows a view gained in one update. */
  private type Rows = mutable.ArrayBuffer[Array[String]]

  /** One trie node: a generic edge at a given depth. Its materialized view
    * has one column per path position 0..depth+1. Query ids are registered at
    * the node ending one of their covering paths.
    */
  final class Node(val key: GEdge, val depth: Int, val parent: Node) {
    val children = new mutable.ArrayBuffer[Node]
    val matV     = new Rel(depth + 2)
    val queries  = new mutable.ArrayBuffer[Int]
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

  /** queryInd: query id → (original pattern, its final join over the
    * covering paths, last trie node of each path) — everything needed for
    * the final per-query join.
    */
  val queryInd = mutable.LinkedHashMap.empty[Int, (QueryPattern, FinalJoin, Vector[Node])]

  def indexQuery(q: QueryPattern): Unit = {
    val paths = CoveringPaths.cover(q)
    val lasts = paths.map { p =>
      val gs = Generic.ofPath(p)
      var node: Node = rootInd.getOrElseUpdate(gs.head, mkNode(gs.head, 0, null))
      for (g <- gs.tail) {
        node = node.children.find(_.key == g).getOrElse {
          val n = mkNode(g, node.depth + 1, node)
          node.children += n
          n
        }
      }
      node.queries += q.id
      node
    }
    queryInd(q.id) = (q, new FinalJoin(paths), lasts)
  }

  private def mkNode(g: GEdge, depth: Int, parent: Node): Node = {
    val n = new Node(g, depth, parent)
    edgeInd.getOrElseUpdate(g, new mutable.ArrayBuffer[Node]) += n
    edgeMat.getOrElseUpdate(g, new Rel(2))
    n
  }

  def onUpdate(e: Edge): collection.Set[Int] = {
    val gens = Generic.generalizations(e).filter(edgeMat.contains)
    // 1. extend the shared per-edge views with the update
    var fresh = false
    for (g <- gens) fresh |= edgeMat(g).add(Array(e.src, e.dst))
    val matchedNow = mutable.LinkedHashSet.empty[Int]
    if (gens.isEmpty || !fresh) return matchedNow // duplicate edge: no-op

    // 2. locate affected nodes (shallowest first so parents see their deltas
    //    before deeper occurrences of the same edge are processed). While
    //    propagating, collect the delta that reaches each path-end node: the
    //    paper's final joins use "only the updated part of a materialized
    //    view" (Fig. 11), never the full view.
    val affectedNodes = gens.flatMap(edgeInd(_)).sortBy(_.depth)
    val endDeltas = mutable.LinkedHashMap.empty[Node, Rows]

    for (n <- affectedNodes) {
      // a root's rows are the update itself; a deeper node joins its
      // parent's view with just the update tuple (parent rows whose tail
      // vertex is the update's source)
      val rows =
        if (n.parent == null) Iterator.single(Array(e.src, e.dst))
        else jc.index(n.parent.matV, n.depth).probe(e.src).iterator.map(_ :+ e.dst)
      val delta = new Rows
      rows.foreach(r => if (n.matV.add(r)) delta += r)
      if (delta.nonEmpty) propagate(n, delta, endDeltas)
    }

    // 3. final joins: for every query registered at a path-end node that
    //    received a delta, join that DELTA against the other paths' full
    //    views — new answers only, like the paper's incremental-view joins.
    val touched = mutable.LinkedHashMap.empty[Int, mutable.LinkedHashSet[Int]] // qid -> path indices
    for ((node, _) <- endDeltas; qid <- node.queries) {
      val (_, _, lasts) = queryInd(qid)
      val idxs = touched.getOrElseUpdate(qid, mutable.LinkedHashSet.empty)
      lasts.indices.foreach(i => if (lasts(i) eq node) idxs += i)
    }
    for ((qid, pathIdxs) <- touched) {
      val (_, join, lasts) = queryInd(qid)
      if (lasts.forall(_.matV.nonEmpty)) {
        val rows = pathIdxs.iterator.flatMap(t => join.from(t, endDeltas(lasts(t)), lasts(_).matV, jc))
        if (record(qid, join.vars, rows)) matchedNow += qid
      }
    }
    matchedNow
  }

  /** Push a delta down the sub-trie, pruning branches whose join is empty:
    * each child joins the delta with its edge view, probing the view's hash
    * index from `jc`. Deltas reaching path-end nodes (nodes with registered
    * queries) are accumulated into `endDeltas` for the final joins. A delta
    * holds the rows `matV.add` just accepted, so it needs no dedup of its own.
    */
  private def propagate(n: Node, delta: Rows, endDeltas: mutable.LinkedHashMap[Node, Rows]): Unit = {
    if (n.queries.nonEmpty) endDeltas.getOrElseUpdate(n, new Rows) ++= delta
    for (c <- n.children) {
      val childDelta = new Rows
      val eIdx = jc.index(edgeMat(c.key), 0)
      for (row <- delta; hit <- eIdx.probe(row(n.depth + 1))) {
        val r = row :+ hit(1)
        if (c.matV.add(r)) childDelta += r
      }
      if (childDelta.nonEmpty) propagate(c, childDelta, endDeltas)
    }
  }

  /** Structures whose size constitutes the engine's memory footprint: the
    * trie, its views and whatever the join cache holds for reuse.
    */
  def memoryRoots: Seq[AnyRef] = Seq(rootInd, edgeInd, edgeMat, queryInd, jc)
}
