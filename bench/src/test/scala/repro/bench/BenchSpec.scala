package repro.bench

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Harness.RunResult

/** Base for the table-reproduction bench suites: renders each table to the
  * test output AND to `bench-results/<name>.txt` at the root of the checkout
  * (collected into EXPERIMENTS.md), and provides robust shape-assertion
  * helpers — the suites assert orderings and rough factors, not absolute
  * times.
  */
trait BenchSpec extends AnyFunSuite {

  /** Render, print and persist a computed table. */
  def record(name: String, t: Experiments.Table): Experiments.Table = {
    val out = t.render()
    println(out)
    val dir = Paths.get(sys.props.getOrElse("repro.benchResults", "bench-results"))
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"$name.txt"), (out + "\n").getBytes("UTF-8"))
    t
  }

  /** `fast` beats `slow` if it processed more of the stream before the time
    * budget (outlasted a timeout) or needed less time per update.
    */
  def fasterOrOutlasts(fast: RunResult, slow: RunResult): Boolean =
    fast.processed > slow.processed ||
      (fast.processed == slow.processed && fast.overallAvgMs <= slow.overallAvgMs * 1.25)

  def assertFaster(t: Experiments.Table, fast: String, slow: String): Unit = {
    val f = t.run(fast); val s = t.run(slow)
    assert(fasterOrOutlasts(f, s),
      s"$fast (${f.processed} upd, ${Harness.fmt(f.overallAvgMs)} ms/upd) did not beat " +
        s"$slow (${s.processed} upd, ${Harness.fmt(s.overallAvgMs)} ms/upd)")
  }

  /** Speedup of `fast` over `slow` in ms/update, using budget-limited rates
    * for timed-out runs (their true cost is at least what was measured).
    */
  def speedup(t: Experiments.Table, fast: String, slow: String): Double =
    t.run(slow).overallAvgMs / t.run(fast).overallAvgMs
}
