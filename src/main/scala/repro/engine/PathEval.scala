package repro.engine

import repro.graph.Edge
import repro.query.CoveringPaths.Path
import repro.query.{Generic, GEdge, Term, Vr}

import scala.collection.mutable

/** Shared relational machinery for evaluating covering paths against per-edge
  * materialized views and re-assembling per-query answers from per-path views
  * (paper §4.1 "Materialization" / §4.2 step 2 final joins).
  *
  * A path of k edges materializes into a relation of arity k+1 (one column
  * per path vertex position). Constant positions are enforced by the generic
  * edge views themselves (a `GEdge` retains literals); what the views do NOT
  * enforce is equality between repeated variables — that is the per-query
  * information TRIC keeps aside ("intersection of the paths") and applies
  * when producing final answers.
  */
object PathEval {

  /** The vertex terms at path positions 0..k. */
  def pathTerms(path: Path): Vector[Term] = path.head.src +: path.map(_.dst)

  /** For each position holding a repeated variable, the earliest position of
    * that same variable (identity for first occurrences and constants).
    */
  def eqClass(terms: Vector[Term]): Vector[Int] =
    terms.zipWithIndex.map {
      case (v: Vr, i) => terms.indexOf(v) min i
      case (_, i)     => i
    }

  /** Does a row satisfy the repeated-variable equalities of a path? */
  def consistent(row: Array[String], eq: Vector[Int]): Boolean = {
    var i = 0
    while (i < row.length) {
      if (eq(i) != i && row(eq(i)) != row(i)) return false
      i += 1
    }
    true
  }

  /** Fully recompute the matches of a covering path from the generic per-edge
    * views (Algorithm INV's per-update path materialization). Returns a
    * relation of arity path.size+1 with repeated-variable equality enforced.
    * A row fixes the edge row it took at each position, so distinct choices
    * give distinct rows: they are appended, with no dedup table. With
    * `without` set, no position takes that edge: the path's rows from
    * before the update `without`, read off views that already hold it.
    */
  def evalPathFull(path: Path, matOf: GEdge => Option[Rel], jc: JoinCache, without: Edge = null): Rel = {
    val terms = pathTerms(path)
    val eq    = eqClass(terms)
    val out   = new Rel(path.size + 1)
    val gs    = path.map(Generic.of)
    def skips(i: Int, s: String, t: String): Boolean =
      without != null && t == without.dst && s == without.src && gs(i).matches(without)
    val m0    = matOf(gs.head).getOrElse(return out)
    var cur: mutable.ArrayBuffer[Array[String]] =
      m0.rows.collect { case r if (eq(1) == 1 || r(0) == r(1)) && !skips(0, r(0), r(1)) => Array(r(0), r(1)) }
    var i = 1
    while (i < path.size && cur.nonEmpty) {
      val mi  = matOf(gs(i)).getOrElse(return out)
      val idx = jc.index(mi, 0)
      val next = new mutable.ArrayBuffer[Array[String]]
      for (row <- cur) {
        var h = idx.first(row(i))
        while (h >= 0) {
          val t = mi.rows(h)(1)
          if ((eq(i + 1) == i + 1 || row(eq(i + 1)) == t) && !skips(i, row(i), t)) next += Rel.extend(row, t)
          h = idx.next(h)
        }
      }
      cur = next
      i += 1
    }
    if (i == path.size) cur.foreach(out.append)
    out
  }

  /** Incrementally compute the NEW matches of a covering path contributed by
    * update `e` (Algorithm INC / TRIC delta joins): seed every path position
    * whose generic edge matches `e` with the single update tuple and extend
    * left and right through the (already updated) generic edge views. A row
    * is credited to the leftmost position that takes `e`: seed p's left
    * extension never takes `e`, so no two seeds give one row, and the rows
    * are appended as they are. `e` must be new to the views: the rows that
    * take it are then exactly the path's rows the update added.
    */
  def evalPathDelta(path: Path, matOf: GEdge => Option[Rel], jc: JoinCache, e: Edge): Rel = {
    val terms = pathTerms(path)
    val eq    = eqClass(terms)
    val out   = new Rel(path.size + 1)
    val gs    = path.map(Generic.of)

    for (p <- path.indices if gs(p).matches(e)) {
      // rows covering positions p..p+1, extended rightward then leftward
      var frontier = mutable.ArrayBuffer[Array[String]](Array(e.src, e.dst))
      var i = p + 1
      while (i < path.size && frontier.nonEmpty) {
        val mi  = matOf(gs(i)).getOrElse(new Rel(2))
        val idx = jc.index(mi, 0)
        val next = new mutable.ArrayBuffer[Array[String]]
        for (row <- frontier) {
          var h = idx.first(row.last)
          while (h >= 0) { next += Rel.extend(row, mi.rows(h)(1)); h = idx.next(h) }
        }
        frontier = next
        i += 1
      }
      var j = p - 1
      while (j >= 0 && frontier.nonEmpty) {
        val mj  = matOf(gs(j)).getOrElse(new Rel(2))
        val idx = jc.index(mj, 1) // probe by destination: extending to the left
        val own = gs(j).matches(e) // then position j's own seed takes e
        val next = new mutable.ArrayBuffer[Array[String]]
        for (row <- frontier) {
          var h = idx.first(row.head)
          while (h >= 0) {
            val s = mj.rows(h)(0)
            if (!(own && s == e.src && row.head == e.dst)) next += (s +: row)
            h = idx.next(h)
          }
        }
        frontier = next
        j -= 1
      }
      frontier.foreach(r => if (consistent(r, eq)) out.append(r))
    }
    out
  }

  /** The paths that share variables, transitively: each query's groups,
    * in the order of their first paths, each listing its paths in order. A
    * query's answers are the product of its groups' answers; a path with no
    * variable is a group of its own, with one answer when its edges exist.
    */
  def groupsOf(termVecs: Vector[Vector[Term]]): Vector[Vector[Int]] = {
    val group = Array.fill(termVecs.size)(-1)
    val out   = new mutable.ArrayBuffer[Vector[Int]]
    for (t <- termVecs.indices if group(t) < 0) {
      group(t) = out.size
      val members = mutable.ArrayBuffer(t)
      var k = 0
      while (k < members.size) {
        val vs = termVecs(members(k)).collect { case v: Vr => v }
        for (i <- termVecs.indices if group(i) < 0 && termVecs(i).exists(vs.contains)) {
          group(i) = out.size
          members += i
        }
        k += 1
      }
      out += members.sorted.toVector
    }
    out.toVector
  }

  /** Seed-first ordering of the paths `members` of one group by
    * shared-variable connectivity: every path after the first shares a
    * variable with one before it, so no probe is a cross product.
    */
  def orderByConnectivity(termVecs: Vector[Vector[Term]], members: Vector[Int], startIdx: Int): Vector[Int] = {
    val order = mutable.ArrayBuffer(startIdx)
    val left  = mutable.ArrayBuffer.from(members.filter(_ != startIdx))
    while (left.nonEmpty) {
      val bound = order.flatMap(i => termVecs(i).collect { case Vr(n) => n }).toSet
      val next  = left.find(i => termVecs(i).exists { case Vr(n) => bound(n); case _ => false })
        .getOrElse(throw new IllegalStateException(s"paths ${left.mkString(",")} share no variable with $order"))
      order += next
      left  -= next
    }
    order.toVector
  }

  /** The final join of one query across its covering paths (paper Fig. 9
    * lines 8–13, incremental per Fig. 11) of TRIC(+), INV(+) and INC(+),
    * factorized: the paths split into groups connected by shared variables
    * (`groups`), and the join of each group is computed apart, over the
    * group's variables. The query's answers are the product of its groups'
    * answers, which the engines store as its factors; nothing here expands
    * that product. The paths' terms are computed when the query is indexed;
    * the rest of the plan — the groups, where each path's variables sit in
    * its rows and, per seed path, the probe order and the index spec of
    * every probe — once, on first use, so that indexing stays cheap and
    * queries that never reach a final join hold no plan.
    */
  final class FinalJoin(val paths: Vector[Path]) {
    private val terms = paths.map(pathTerms)
    private lazy val pathVars = terms.map(_.collect { case Vr(n) => n }.distinct)

    /** The paths of each group (see `groupsOf`). */
    lazy val groups: Vector[Vector[Int]] = groupsOf(terms)

    private lazy val groupIdx: Array[Int] = {
      val g = new Array[Int](paths.size)
      for (k <- groups.indices; t <- groups(k)) g(t) = k
      g
    }

    /** The group of path `t`. */
    def groupOf(t: Int): Int = groupIdx(t)

    /** Each group's variables, sorted: the column order of the rows `from`
      * returns for a seed path of that group. A query of one group has its
      * variables in `QueryPattern.varNames` order.
      */
    lazy val groupVars: Vector[Vector[String]] = groups.map(_.flatMap(pathVars).distinct.sorted)

    /** Each path's repeated-variable classes, null when it has none. */
    private lazy val eqs = terms.map { ts =>
      val eq = eqClass(ts)
      if (eq.indices.forall(i => eq(i) == i)) null else eq
    }

    /** Each path's first row position of each of its variables. */
    private lazy val pos = terms.indices.map(i => pathVars(i).map(n => terms(i).indexOf(Vr(n))).toArray)

    /** Probe path `path`'s rows, indexed under `spec`, with the group row's
      * `accKey` columns; a hit writes its values at `newPos` into the group
      * row's columns `newCols`.
      */
    private final class Probe(val path: Int, val spec: IdxSpec, val accKey: Array[Int],
                              val newPos: Array[Int], val newCols: Array[Int])

    /** The probes from seed path `t`, and the group row's column of each of
      * `t`'s variables.
      */
    private final class Plan(val seedCols: Array[Int], val probes: Vector[Probe])
    private val plans = new Array[Plan](paths.size)

    private def plan(t: Int): Plan = {
      if (plans(t) == null) {
        val g    = groupOf(t)
        val cols = groupVars(g)
        var bound = pathVars(t).toSet
        val probes = orderByConnectivity(terms, groups(g), t).tail.map { i =>
          val vs = pathVars(i)
          val (shared, fresh) = vs.indices.partition(j => bound(vs(j)))
          val spec  = IdxSpec(shared.map(pos(i)).toVector, eqs(i))
          val probe = new Probe(i, spec, shared.map(j => cols.indexOf(vs(j))).toArray,
            fresh.map(pos(i)).toArray, fresh.map(j => cols.indexOf(vs(j))).toArray)
          bound ++= fresh.map(vs)
          probe
        }
        plans(t) = new Plan(pathVars(t).map(cols.indexOf).toArray, probes)
      }
      plans(t)
    }

    /** Join `seed`, rows of path `t` (its delta, or its full relation),
      * with the rows of every other path `i` of `t`'s group, its relation
      * `rel(i)` below index `limit(i)`, whose indexes come from `jc`.
      * Returns one fresh row per answer of the group, its values in
      * `groupVars(groupOf(t))` order, each written straight into its
      * column. Distinct seed rows give distinct answers, so nothing is
      * deduplicated here.
      *
      * The limits make the seeds of one update disjoint (semi-naive
      * evaluation): when the paths seeded before seed k are limited to
      * their rows from before the update, seed k gives exactly the new
      * answers whose first new row, in seed order, is on its path. So a
      * path's relation holds its rows from before the update first and its
      * new rows after them: TRIC's trie views do, and INC builds each such
      * relation that way (`evalPathFull` without the update, then the
      * path's `evalPathDelta`).
      */
    def from(t: Int, seed: Iterable[Array[String]], rel: Int => Rel, jc: JoinCache,
             limit: Int => Int = FinalJoin.noLimit): Iterator[Array[String]] = {
      val pl    = plan(t)
      val eq    = eqs(t)
      val at    = pos(t)
      val width = groupVars(groupOf(t)).size
      var acc = new mutable.ArrayBuffer[Array[String]]
      for (r <- seed if eq == null || consistent(r, eq)) {
        val a = new Array[String](width)
        var j = 0
        while (j < at.length) { a(pl.seedCols(j)) = r(at(j)); j += 1 }
        acc += a
      }
      for (p <- pl.probes if acc.nonEmpty) {
        val idx  = jc.index(rel(p.path), p.spec)
        val rows = idx.rel.rows
        val lim  = limit(p.path)
        val out  = new mutable.ArrayBuffer[Array[String]]
        for (ar <- acc) {
          var h = idx.first(ar, p.accKey)
          while (h >= lim) h = idx.next(h)
          while (h >= 0) {
            // a path row is fixed by its variables, so a probe binding no
            // new one has at most one hit and keeps the row as it is
            val pr = rows(h)
            val r  = if (p.newPos.length == 0) ar else ar.clone()
            var j  = 0
            while (j < p.newPos.length) { r(p.newCols(j)) = pr(p.newPos(j)); j += 1 }
            out += r
            h = idx.next(h)
          }
        }
        acc = out
      }
      acc.iterator
    }
  }

  object FinalJoin {
    /** Every row of every path. */
    val noLimit: Int => Int = _ => Int.MaxValue
  }
}
