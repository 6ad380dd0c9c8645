package repro.query

import repro.graph.{Edge, GraphStream}

import scala.collection.mutable
import scala.util.Random

/** Knobs of the paper's query-set configuration (§6.1): `n` = |Q_DB|,
  * `avgLen` = ℓ (average edges per query), `selectivity` = σ (fraction of
  * queries ultimately satisfied by the stream), `overlap` = o (fraction of
  * queries sharing a sub-pattern with another query).
  */
final case class QueryConfig(
    n: Int,
    avgLen: Int = 5,
    selectivity: Double = 0.25,
    overlap: Double = 0.35,
    seed: Long = 42,
)

/** Generates the continuous query workload of the paper's evaluation:
  * chain, star and cycle patterns chosen equiprobably (§6.1), sampled from
  * the FINAL graph so that σ is exact by construction — satisfied queries are
  * concrete subgraphs of the stream's end state (generalized with variables,
  * which only widens them), unsatisfied queries have one vertex renamed to a
  * label that never occurs in any stream (`zz…`), pinned as a literal.
  * Overlapping queries share a concrete sub-structure with a previously
  * generated query of the same class before variable assignment, which is
  * precisely what TRIC's trie clustering exploits.
  */
object QueryGenerator {

  private final case class Concrete(cls: String, edges: Vector[Edge])

  /** Probability that a vertex is generalized to a variable. */
  private val VarRate = 0.5

  /** The longest run of consecutive variables along a covering path. */
  private val MaxVarRun = 2

  def generate(adj: GraphStream.Adjacency, cfg: QueryConfig): Vector[QueryPattern] = {
    require(adj.edges.nonEmpty, "cannot sample queries from an empty graph")
    val rng  = new Random(cfg.seed)
    val nSat = math.round(cfg.n * cfg.selectivity).toInt
    val bases = mutable.HashMap.empty[String, mutable.ArrayBuffer[Concrete]]

    val raw = (0 until cfg.n).map { i =>
      val wantSat = i < nSat
      val cls     = Vector("chain", "star", "cycle")(i % 3)
      val len     = (cfg.avgLen - 2 + rng.nextInt(5)) max 2 // ℓ-2 .. ℓ+2
      val pool    = bases.getOrElseUpdate(cls, mutable.ArrayBuffer.empty)

      val concrete: Concrete =
        if (rng.nextDouble() < cfg.overlap && pool.nonEmpty)
          deriveOverlapping(adj, rng, pool(rng.nextInt(pool.size)), len)
        else {
          val c = sample(adj, rng, cls, len)
          pool += c
          c
        }

      val edges = if (wantSat) concrete.edges else poison(concrete.edges, rng, i)
      val pes = toPattern(edges, rng, poisonTag = if (wantSat) None else Some(s"zz$i"))
      anchor(pes, edges)
    }

    // shuffle so satisfied/unsatisfied and classes interleave, then re-id
    rng.shuffle(raw.toVector).zipWithIndex.map { case (es, id) => QueryPattern(id, es) }
  }

  /** Rename one vertex of the structure (all its occurrences, consistently)
    * to a label no generator ever emits — the query can never be satisfied.
    */
  private def poison(edges: Vector[Edge], rng: Random, qid: Int): Vector[Edge] = {
    val verts = edges.flatMap(e => Seq(e.src, e.dst)).distinct
    val victim = verts(rng.nextInt(verts.size))
    val fresh  = s"zz$qid"
    edges.map { e =>
      Edge(if (e.src == victim) fresh else e.src, e.label, if (e.dst == victim) fresh else e.dst)
    }
  }

  /** Assign variables: each distinct vertex becomes a variable with
    * probability `VarRate` (consistently across its occurrences); the
    * poisoned vertex, if any, always stays a literal so unsatisfiability is
    * preserved.
    */
  private def toPattern(edges: Vector[Edge], rng: Random, poisonTag: Option[String]): Vector[PatternEdge] = {
    val verts = edges.flatMap(e => Seq(e.src, e.dst)).distinct
    var k = 0
    val term: Map[String, Term] = verts.map { v =>
      val t: Term =
        if (poisonTag.contains(v)) Cst(v)
        else if (rng.nextDouble() < VarRate) { val vr = Vr(s"v$k"); k += 1; vr }
        else Cst(v)
      v -> t
    }.toMap
    edges.map(e => PatternEdge(term(e.src), e.label, term(e.dst)))
  }

  /** Derive a query overlapping `base`: chains keep the base's first half and
    * re-extend it through the graph; stars keep the center and half the
    * spokes and add fresh ones; cycles are shared wholesale (their structure
    * cannot be partially re-routed and stay both closed and satisfiable).
    * The shared concrete sub-structure is what genericization later clusters.
    */
  private def deriveOverlapping(adj: GraphStream.Adjacency, rng: Random,
                                base: Concrete, len: Int): Concrete = base.cls match {
    case "chain" =>
      val keep   = ((base.edges.size + 1) / 2) min len
      val prefix = base.edges.take(keep)
      val used   = mutable.HashSet.from(prefix)
      val walk   = mutable.ArrayBuffer.from(prefix)
      var cur    = prefix.last.dst
      var stuck  = false
      while (walk.size < len && !stuck) {
        val nexts = adj.outOf(cur).filterNot(used)
        if (nexts.isEmpty) stuck = true
        else {
          val e = nexts(rng.nextInt(nexts.size))
          walk += e; used += e; cur = e.dst
        }
      }
      Concrete("chain", if (walk.size > prefix.size) walk.toVector else base.edges)
    case "star" =>
      val keep    = ((base.edges.size + 1) / 2) min len
      val kept    = base.edges.take(keep)
      val outward = base.edges.forall(_.src == base.edges.head.src)
      val center  = if (outward) base.edges.head.src else base.edges.head.dst
      val pool    = (if (outward) adj.outOf(center) else adj.inOf(center)).filterNot(kept.contains)
      Concrete("star", kept ++ rng.shuffle(pool.toVector).take((len - keep) max 0))
    case _ =>
      base // cycles overlap by sharing the whole ring
  }

  /** Bound the length of all-variable runs along covering paths to
    * `MaxVarRun` by flipping run-middle variables back to their concrete
    * vertex labels. Long unanchored generic sub-paths make materialized-view
    * sizes grow with the walk count of the graph (exponential in run length
    * on hub-heavy graphs); real workloads — like the paper's SNB-derived
    * queries — are literal-anchored, and this keeps ours so. Flipping a
    * variable to its sampled concrete vertex preserves satisfiability
    * (satisfied queries remain concrete subgraphs) and unsatisfiability (the
    * poisoned literal is untouched).
    */
  private def anchor(pes: Vector[PatternEdge], concrete: Vector[Edge]): Vector[PatternEdge] = {
    val concreteOf: Map[Term, String] =
      pes.zip(concrete).flatMap { case (pe, e) => Seq(pe.src -> e.src, pe.dst -> e.dst) }.toMap

    var cur = pes
    var changed = true
    while (changed) {
      changed = false
      val paths = CoveringPaths.cover(QueryPattern(0, cur))
      val offending: Option[Term] = paths.iterator.flatMap { p =>
        val terms = p.head.src +: p.map(_.dst)
        // find the first run of > MaxVarRun consecutive variables
        var run = Vector.empty[Term]
        var hit: Option[Term] = None
        terms.foreach {
          case v: Vr if hit.isEmpty =>
            run :+= v
            if (run.size > MaxVarRun) hit = Some(run(run.size / 2))
          case _ => run = Vector.empty
        }
        hit
      }.nextOption()
      offending.foreach { t =>
        val c = Cst(concreteOf(t))
        cur = cur.map(pe => PatternEdge(
          if (pe.src == t) c else pe.src, pe.label, if (pe.dst == t) c else pe.dst))
        changed = true
      }
    }
    cur
  }

  // ---------------------------------------------------------------- sampling

  private def sample(adj: GraphStream.Adjacency, rng: Random, cls: String, len: Int): Concrete =
    cls match {
      case "chain" => Concrete("chain", sampleChain(adj, rng, len))
      case "star"  => Concrete("star", sampleStar(adj, rng, len))
      case "cycle" =>
        sampleCycle(adj, rng, len) match {
          case Some(es) => Concrete("cycle", es)
          case None     => Concrete("chain", sampleChain(adj, rng, len)) // graph has no cycle of that size
        }
    }

  private def randomEdge(adj: GraphStream.Adjacency, rng: Random): Edge =
    adj.edges(rng.nextInt(adj.edges.size))

  /** Random directed walk of (up to) `len` distinct edges; best of 40 tries. */
  private def sampleChain(adj: GraphStream.Adjacency, rng: Random, len: Int): Vector[Edge] = {
    var best = Vector.empty[Edge]
    var tries = 0
    while (best.size < len && tries < 40) {
      tries += 1
      val walk = mutable.ArrayBuffer(randomEdge(adj, rng))
      val used = mutable.HashSet(walk.head)
      var cur  = walk.head.dst
      var stuck = false
      while (walk.size < len && !stuck) {
        val nexts = adj.outOf(cur).filterNot(used)
        if (nexts.isEmpty) stuck = true
        else {
          val e = nexts(rng.nextInt(nexts.size))
          walk += e; used += e; cur = e.dst
        }
      }
      if (walk.size > best.size) best = walk.toVector
    }
    best
  }

  /** A star: `len` distinct edges around one center (out-star, or in-star
    * half of the time), from the best-connected of 30 probed vertices.
    */
  private def sampleStar(adj: GraphStream.Adjacency, rng: Random, len: Int): Vector[Edge] = {
    val outward = rng.nextBoolean()
    def spokes(v: String): IndexedSeq[Edge] = if (outward) adj.outOf(v) else adj.inOf(v)
    var best = spokes(if (outward) randomEdge(adj, rng).src else randomEdge(adj, rng).dst)
    var tries = 0
    while (best.size < len && tries < 30) {
      tries += 1
      val cand = spokes(if (outward) randomEdge(adj, rng).src else randomEdge(adj, rng).dst)
      if (cand.size > best.size) best = cand
    }
    rng.shuffle(best.toVector).take(len max 1)
  }

  /** A directed cycle of ~`len` edges: random walks that return to their
    * start vertex; falls back to the best (shortest ≥3) closure found.
    */
  private def sampleCycle(adj: GraphStream.Adjacency, rng: Random, len: Int): Option[Vector[Edge]] = {
    var fallback: Option[Vector[Edge]] = None
    var tries = 0
    while (tries < 200) {
      tries += 1
      val start = randomEdge(adj, rng).src
      val walk  = mutable.ArrayBuffer.empty[Edge]
      val seen  = mutable.HashSet(start)
      var cur   = start
      var stuck = false
      while (walk.size < len - 1 && !stuck) {
        val nexts = adj.outOf(cur).filter(e => !seen(e.dst) || e.dst == start)
        if (nexts.isEmpty) stuck = true
        else {
          val e = nexts(rng.nextInt(nexts.size))
          walk += e; cur = e.dst; seen += cur
          if (cur == start) stuck = true // closed early
        }
      }
      if (walk.nonEmpty && walk.last.dst == start && walk.size >= 3)
        return Some(walk.toVector)
      // try to close the walk back to start with one existing edge
      if (walk.size >= 2) {
        adj.outOf(cur).find(_.dst == start).foreach { closing =>
          val cyc = walk.toVector :+ closing
          if (cyc.size == len) return Some(cyc)
          if (fallback.forall(_.size < cyc.size)) fallback = Some(cyc)
        }
      }
    }
    fallback
  }
}
