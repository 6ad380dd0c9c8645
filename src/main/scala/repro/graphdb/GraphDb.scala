package repro.graphdb

import repro.engine.ContinuousEngine
import repro.graph.Edge
import repro.query.QueryPattern.Binding
import repro.query.{Cst, GEdge, Generic, PatternEdge, QueryPattern, Term, Vr}

import scala.collection.mutable

/** In-memory property-graph store with the index structure a graph database
  * (the paper's Neo4j 3.4 baseline) relies on: adjacency lists per vertex and
  * a label index over edges. This is the Neo4j substitution documented in
  * DESIGN.md — the closed-source comparator replaced by a native store with
  * equivalent access paths.
  */
final class GraphStore {
  val out     = mutable.HashMap.empty[String, mutable.ArrayBuffer[Edge]]
  val in      = mutable.HashMap.empty[String, mutable.ArrayBuffer[Edge]]
  val byLabel = mutable.HashMap.empty[String, mutable.ArrayBuffer[Edge]]
  private val edgeSet = mutable.HashSet.empty[Edge]

  /** Apply an update; returns false for duplicate edges (multigraph dedup). */
  def add(e: Edge): Boolean =
    edgeSet.add(e) && {
      out.getOrElseUpdate(e.src, new mutable.ArrayBuffer) += e
      in.getOrElseUpdate(e.dst, new mutable.ArrayBuffer) += e
      byLabel.getOrElseUpdate(e.label, new mutable.ArrayBuffer) += e
      true
    }

  def contains(e: Edge): Boolean = edgeSet.contains(e)
  def outOf(v: String): collection.Seq[Edge]   = out.getOrElse(v, Nil)
  def inOf(v: String): collection.Seq[Edge]    = in.getOrElse(v, Nil)
  def ofLabel(l: String): collection.Seq[Edge] = byLabel.getOrElse(l, Nil)
  def edgeCount: Int = edgeSet.size
}

/** Backtracking sub-graph pattern matcher over a [[GraphStore]] — the role
  * Cypher execution plays in the paper's Neo4j baseline. Pattern edges are
  * ordered greedily by estimated candidate count (label-index cardinality,
  * bound/literal endpoints first), mirroring a cost-based graph-db planner;
  * matching is homomorphism-based like the join-based engines.
  */
object Matcher {

  /** Every match of `q`: the anchored search with no anchor and nothing
    * bound yet.
    */
  def matchPattern(store: GraphStore, q: QueryPattern): Set[Binding] =
    matchAnchored(store, q, anchorIdx = -1, Map.empty)

  /** Parameterized execution, the way the paper drives Neo4j: the query is
    * executed with one pattern edge bound to the incoming update's endpoints
    * (Cypher parameter syntax + cached query plans), so only embeddings that
    * use the new edge are searched for. Returns the matches extending `b0`
    * over the remaining pattern edges (all of them when `anchorIdx` names
    * no pattern edge).
    */
  def matchAnchored(store: GraphStore, q: QueryPattern, anchorIdx: Int, b0: Binding): Set[Binding] = {
    val rest    = q.edges.zipWithIndex.collect { case (pe, i) if i != anchorIdx => pe }
    val order   = planOrder(store, rest, b0.keySet)
    val results = mutable.HashSet.empty[Binding]

    def resolve(t: Term, b: Binding): Option[String] = t match {
      case Cst(l) => Some(l)
      case Vr(n)  => b.get(n)
    }
    def bindEndpoint(t: Term, v: String, b: Binding): Option[Binding] = t match {
      case Cst(l) => if (l == v) Some(b) else None
      case Vr(n)  => b.get(n) match {
        case Some(x) => if (x == v) Some(b) else None
        case None    => Some(b + (n -> v))
      }
    }
    def rec(i: Int, b: Binding): Unit =
      if (i == order.length) results += b
      else {
        val pe = order(i)
        val candidates: Iterator[Edge] = (resolve(pe.src, b), resolve(pe.dst, b)) match {
          case (Some(s), Some(t)) =>
            val e = Edge(s, pe.label, t)
            if (store.contains(e)) Iterator.single(e) else Iterator.empty
          case (Some(s), None) => store.outOf(s).iterator.filter(_.label == pe.label)
          case (None, Some(t)) => store.inOf(t).iterator.filter(_.label == pe.label)
          case (None, None)    => store.ofLabel(pe.label).iterator
        }
        for (e <- candidates)
          bindEndpoint(pe.src, e.src, b).flatMap(bindEndpoint(pe.dst, e.dst, _)).foreach(rec(i + 1, _))
      }

    rec(0, b0)
    results.toSet
  }

  /** Greedy join ordering: repeatedly pick the cheapest pattern edge, where
    * edges connected to already-planned ones (or with literal endpoints) are
    * cheap, and cost falls back to label-index cardinality.
    */
  private[graphdb] def planOrder(store: GraphStore, edges: Vector[PatternEdge],
                                 preBound: Set[String] = Set.empty): Vector[PatternEdge] = {
    val planned = mutable.ArrayBuffer.empty[PatternEdge]
    val bound   = mutable.HashSet.empty[String] ++= preBound // variable names bound so far
    val left    = mutable.ArrayBuffer.from(edges)

    def isBound(t: Term): Boolean = t match {
      case Cst(_) => true
      case Vr(n)  => bound.contains(n)
    }
    def cost(pe: PatternEdge): Long = {
      val labelCard = store.ofLabel(pe.label).size.toLong max 1L
      (isBound(pe.src), isBound(pe.dst)) match {
        case (true, true)   => 1L
        case (true, false)  => pe.src match {
          case Cst(l) => store.outOf(l).size.toLong max 1L
          case _      => labelCard / 4 max 1L
        }
        case (false, true)  => pe.dst match {
          case Cst(l) => store.inOf(l).size.toLong max 1L
          case _      => labelCard / 4 max 1L
        }
        case (false, false) => labelCard
      }
    }

    while (left.nonEmpty) {
      val next = left.minBy(cost)
      left -= next
      planned += next
      Seq(next.src, next.dst).foreach { case Vr(n) => bound += n; case _ => () }
    }
    planned.toVector
  }
}

/** The paper's Neo4j baseline (§5.3) as a [[ContinuousEngine]]: queries are
  * indexed in an inverted `edgeInd` plus a `queryInd` matrix; each update is
  * applied to the database, the affected queries are looked up through
  * `edgeInd`, and every affected query is re-executed natively by the store's
  * matcher — no cross-query sharing and no incremental views.
  */
final class GraphDbEngine extends ContinuousEngine {

  def name: String = "Neo4j"

  val store    = new GraphStore
  val edgeInd  = mutable.HashMap.empty[GEdge, mutable.LinkedHashSet[Int]]
  val queryInd = mutable.LinkedHashMap.empty[Int, QueryPattern]

  def indexQuery(q: QueryPattern): Unit = {
    queryInd(q.id) = q
    q.edges.map(Generic.of).distinct.foreach { g =>
      edgeInd.getOrElseUpdate(g, mutable.LinkedHashSet.empty) += q.id
    }
  }

  def onUpdate(e: Edge): collection.Set[Int] = {
    val matchedNow = mutable.LinkedHashSet.empty[Int]
    if (!store.add(e)) return matchedNow
    val affected = Generic.generalizations(e).flatMap(edgeInd.get).flatten.distinct
    for (qid <- affected) {
      // Full re-execution of the affected query, as §5.3 describes: Neo4j
      // runs the (plan-cached) Cypher query against the updated database.
      // [Matcher.matchAnchored] would instead anchor the execution at the
      // update; the paper's measurements match full re-execution, so that
      // variant is not used here.
      val bs = Matcher.matchPattern(store, queryInd(qid))
      if (record(qid, bs)) matchedNow += qid
    }
    matchedNow
  }

  /** Structures whose size constitutes the engine's memory footprint (the
    * full graph store included — a database retains the whole graph).
    */
  def memoryRoots: Seq[AnyRef] = Seq(store, edgeInd, queryInd)
}
