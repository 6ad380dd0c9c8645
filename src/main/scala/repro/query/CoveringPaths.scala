package repro.query

import scala.collection.mutable

/** Step 1 of TRIC's indexing phase (paper §4.1, Definitions 5–6): decompose a
  * query graph pattern into a set of covering paths — directed paths such that
  * every vertex and every edge of the pattern lies on at least one path.
  *
  * The paper solves the path-cover problem greedily: from each vertex run a
  * depth-first walk over not-yet-visited edges until a leaf is reached or no
  * new edge can be taken; repeat until all edges are covered; finally drop
  * paths that are sub-paths of already discovered ones.
  */
object CoveringPaths {

  /** A covering path: a sequence of pattern edges where the destination term
    * of edge i is the source term of edge i+1 (edges are connected through
    * the *pattern's* vertices, so a cycle revisits its start term).
    */
  type Path = Vector[PatternEdge]

  /** Extract the covering-path set of `q` (deterministic for a given query).
    *
    * Walks prefer unvisited edges but may re-traverse a visited edge when an
    * unvisited one is reachable beyond it — this keeps paths anchored at
    * source-like vertices and reproduces the paper's Fig. 5 decomposition
    * (Q1's P1 and P2 both re-use the shared `hasMod` edge), which is what
    * lets the trie cluster their common prefix.
    */
  def cover(q: QueryPattern): Vector[Path] = {
    val edges = q.edges
    val visited = mutable.Set.empty[Int] // indices into q.edges
    val outIdx: Map[Term, Vector[Int]] = edges.indices.toVector.groupBy(i => edges(i).src)
    val inDeg: Map[Term, Int] = edges.groupBy(_.dst).view.mapValues(_.size).toMap

    // Deterministic start order: prefer source-like vertices (no incoming
    // edge) so chains yield a single root-anchored path; then all remaining
    // vertices in first-appearance order (covers cycles).
    val starts: Vector[Term] =
      (q.terms.filter(t => inDeg.getOrElse(t, 0) == 0) ++ q.terms).distinct

    /** Is any unvisited edge reachable from `t` along directed edges? */
    def reachesUnvisited(t: Term): Boolean = {
      val seen = mutable.Set.empty[Term]
      def rec(v: Term): Boolean =
        seen.add(v) && outIdx.getOrElse(v, Vector.empty).exists { i =>
          !visited(i) || rec(edges(i).dst)
        }
      rec(t)
    }

    def walk(from: Term): Path = {
      val path = mutable.ArrayBuffer.empty[PatternEdge]
      var lastNewLen = 0 // trim trailing visited-only detours (cycle guards)
      var cur = from
      var steps = 0
      var continue = true
      while (continue && steps <= 2 * edges.size + 4) {
        steps += 1
        val outs = outIdx.getOrElse(cur, Vector.empty)
        outs.find(i => !visited(i)) match {
          case Some(i) =>
            visited += i
            path += edges(i); cur = edges(i).dst
            lastNewLen = path.size
          case None =>
            // continue through an already-visited edge only toward new ones
            outs.find(i => reachesUnvisited(edges(i).dst)) match {
              case Some(i) => path += edges(i); cur = edges(i).dst
              case None    => continue = false
            }
        }
      }
      path.take(lastNewLen).toVector
    }

    val paths = mutable.ArrayBuffer.empty[Path]
    while (visited.size < edges.size) {
      // prefer the first source-like start that can still reach new edges —
      // this re-walks shared prefixes (Fig. 5: P2 re-uses hasMod) instead of
      // fragmenting the cover at interior vertices
      val s = starts.find(reachesUnvisited).get
      val p = walk(s)
      if (p.nonEmpty) paths += p
      else {
        // a visited-edge oscillation starved the walk: fall back to a start
        // with a direct unvisited out-edge, which must make progress
        val s2 = starts.find(t => outIdx.getOrElse(t, Vector.empty).exists(i => !visited(i))).get
        paths += walk(s2)
      }
    }
    // Every pattern vertex is an endpoint of some edge, so covering all edges
    // covers all vertices; q.edges.nonEmpty guarantees at least one path.
    assert(visited.size == edges.size, s"path cover missed edges of ${q.show}")

    dropSubPaths(paths.toVector)
  }

  /** Remove any path whose edge sequence is a contiguous subsequence of
    * another discovered path (paper's final clean-up step). The greedy walk
    * never reuses edges so this only fires on duplicate single-edge walks.
    */
  private[query] def dropSubPaths(paths: Vector[Path]): Vector[Path] =
    paths.zipWithIndex
      .filterNot { case (p, i) =>
        paths.zipWithIndex.exists { case (o, j) =>
          j != i && (o.size > p.size || (o.size == p.size && j < i)) && o.containsSlice(p)
        }
      }
      .map(_._1)
}
