package repro.tricbench

import repro.graph.Edge
import repro.graphdb.{GraphStore, Matcher}
import repro.query.QueryPattern

/** The correctness gate of one engine run. Every failed check fails the
  * whole workload.
  */
object Check {

  final case class Outcome(name: String, ok: Boolean, detail: String)

  /** Ids of the queries the reference matcher satisfies on the final graph. */
  def reference(stream: Seq[Edge], queries: Seq[QueryPattern]): Set[Int] = {
    val store = new GraphStore
    stream.foreach(store.add)
    queries.iterator.filter(q => Matcher.matchPattern(store, q).nonEmpty).map(_.id).toSet
  }

  /** An engine's satisfied set must equal the reference matcher's and hold
    * exactly round(σ·|Q_DB|) queries.
    */
  def satisfied(engine: collection.Set[Int], reference: Set[Int], expected: Int): Seq[Outcome] = Seq(
    Outcome("satisfied_equals_reference", engine == reference,
      s"engine ${engine.size}, reference ${reference.size}, " +
        s"missing ${(reference -- engine).toSeq.sorted.take(5)}, extra ${(engine.toSet -- reference).toSeq.sorted.take(5)}"),
    Outcome("satisfied_count_equals_selectivity", engine.size == expected,
      s"engine ${engine.size}, round(σ·|Q_DB|) $expected"),
  )

  /** Updates on which two answer sequences differ (a length difference
    * counts every missing update).
    */
  def disagreements(a: Seq[Seq[Int]], b: Seq[Seq[Int]]): Int =
    a.zip(b).count { case (x, y) => x != y } + math.abs(a.size - b.size)

  /** Every round of one engine must give the same per-update answers. */
  def stableAnswers(rounds: Seq[Seq[Seq[Int]]]): Outcome = {
    val bad = rounds.drop(1).map(disagreements(rounds.head, _)).sum
    Outcome("answers_equal_across_rounds", bad == 0, s"$bad differing updates over ${rounds.size} rounds")
  }
}
