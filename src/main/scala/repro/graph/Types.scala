package repro.graph

/** Core graph-stream data model (paper §3.1).
  *
  * The paper works on attribute graphs — directed labeled multigraphs where a
  * vertex is identified by its label (`l_V` is injective on entities: "we
  * denote an edge e as e=(s,t), where e, s and t are the labels"). We follow
  * that convention: a vertex IS its label string, an edge is a labeled ordered
  * pair of vertex labels.
  */
final case class Edge(src: String, label: String, dst: String) {
  override def toString: String = s"$src -[$label]-> $dst"
}

/** A stream (paper Definition 3) is an ordered `IndexedSeq[Edge]`; each
  * update (Definition 2) adds one edge. Deletions are out of scope in the
  * paper ("we focus on providing high performance query answering
  * algorithms"), and so here.
  */
object GraphStream {

  /** Adjacency view of a (final) graph, used by the query-workload generator
    * to sample satisfied patterns.
    */
  final class Adjacency(val edges: IndexedSeq[Edge]) {
    val out: Map[String, IndexedSeq[Edge]] = edges.groupBy(_.src)
    val in: Map[String, IndexedSeq[Edge]]  = edges.groupBy(_.dst)
    val vertices: IndexedSeq[String] =
      (edges.iterator.map(_.src) ++ edges.iterator.map(_.dst)).toVector.distinct

    def outOf(v: String): IndexedSeq[Edge] = out.getOrElse(v, Vector.empty)
    def inOf(v: String): IndexedSeq[Edge]  = in.getOrElse(v, Vector.empty)
  }
}
