package repro.tricbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def ramp(n: Int): Array[Double] = Array.tabulate(n)(i => (i + 1).toDouble)

  test("percentile interpolates between the order statistics around (n-1)p") {
    assert(Stats.percentile(ramp(11), 0.5) == 6.0)
    assert(math.abs(Stats.percentile(ramp(10), 0.5) - 5.5) < 1e-12)
    assert(math.abs(Stats.percentile(ramp(1000), 0.99) - 990.01) < 1e-9)
    assert(Stats.percentile(Array(3.0, 1.0, 2.0), 1.0) == 3.0)
    assert(Stats.percentile(Array(7.0), 0.5) == 7.0)
  }

  test("a percentile reports its sample count and the samples beyond it") {
    val rounds = Seq(ramp(600), ramp(600), ramp(600), ramp(600))
    val p99 = Stats.updatePercentile(rounds, 0.99)
    assert(math.abs(p99.value - 594.01) < 1e-9)
    assert(p99.samples == 2400 && p99.updates == 600 && p99.beyond == 24)
    val p50 = Stats.updatePercentile(Seq(ramp(10)), 0.5)
    assert(p50.samples == 10 && p50.beyond == 5)
  }

  test("mid-mean: mean of the middle half of the values") {
    assert(Stats.midMean(Seq(50.0, 1.0, 1.0, 1.0)) == 1.0)
    assert(Stats.midMean(Seq(3.0, 6.0, 3.0, 6.0)) == 4.5)
    assert(Stats.midMean(Seq(1.0, 2.0, 6.0)) == 3.0)
    intercept[IllegalArgumentException](Stats.midMean(Nil))
  }

  test("per-update mid-means drop a pause that hits an update in one round of four") {
    // 6 of 600 updates are slow (10); a pause hits another update in one
    // round of four: its mid-mean, and so p99, stay on the fast cluster
    def round(hit: Int) = Array.tabulate(600)(i => if (i >= 594) 10.0 else if (i == hit) 50.0 else 1.0)
    val rounds = Seq(round(100), round(-1), round(-1), round(-1))
    assert(Stats.perUpdateMidMeans(rounds)(100) == 1.0)
    assert(math.abs(Stats.updatePercentile(rounds, 0.99).value - 1.09) < 1e-9)
    // pooled, the pause is a 25th sample above the fast cluster and puts p99
    // on the slow one
    assert(Stats.percentile(rounds.flatten.toArray, 0.99) == 10.0)
    intercept[IllegalArgumentException](Stats.perUpdateMidMeans(Seq(ramp(3), ramp(4))))
  }

  test("an update's mid-mean moves with the share of fast rounds, not in one step") {
    // rounds run fast (3) or slow (6); the median over 8 rounds would read 6
    // with 3 fast rounds and 3 with 5
    def rounds(fast: Int) = Seq.tabulate(8)(r => Array(if (r < fast) 3.0 else 6.0))
    val means = (2 to 6).map(f => Stats.perUpdateMidMeans(rounds(f))(0))
    assert(means == Seq(6.0, 5.25, 4.5, 3.75, 3.0), means)
  }

  test("p99 needs 10 samples beyond it; fewer are refused") {
    assert(Stats.updatesBeyond(600, 0.99) == 6 && Stats.updatesBeyond(3000, 0.99) == 30)
    // one BIO round (600 updates) is not enough, two are; one SNB round is
    assert(Stats.roundsNeeded(600, 0.99) == 2 && Stats.roundsNeeded(3000, 0.99) == 1)
    assert(Stats.tailPercentile(Seq(ramp(600), ramp(600)), 0.99).beyond == 12)
    val e = intercept[IllegalArgumentException](Stats.tailPercentile(Seq(ramp(600)), 0.99))
    assert(e.getMessage.contains("needs 2 rounds of 600 updates"))
  }

  test("median over rounds: middle value, or mean of the two middle values") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
    intercept[IllegalArgumentException](Stats.median(Nil))
  }

  test("ratios keep their bases") {
    val r = Stats.Ratio(592, 3000)
    assert(r.num == 592 && r.base == 3000 && math.abs(r.value - 592.0 / 3000) < 1e-12)
    assert(Stats.Ratio(5, 0).value == 0.0)
    val tail = Stats.tailShare(Array(1.0, 1.0, 1.0, 97.0), 0.01)
    assert(tail.num == 97.0 && tail.base == 100.0 && tail.value == 0.97)
  }

  test("self time subtracts child spans once, clipped to the parent") {
    assert(Stats.selfTime(0, 100, Nil) == 100)
    assert(Stats.selfTime(0, 100, Seq((10L, 20L), (30L, 50L))) == 70)
    assert(Stats.selfTime(0, 100, Seq((10L, 40L), (30L, 50L))) == 60)  // overlap counts once
    assert(Stats.selfTime(0, 100, Seq((-10L, 20L), (90L, 120L))) == 70) // clipped
    assert(Stats.selfTime(0, 100, Seq((20L, 30L), (25L, 28L))) == 90)  // nested
    assert(Stats.selfTime(0, 100, Seq((200L, 300L))) == 100)
  }

  test("tracer self times come from recorded child spans") {
    val t = new Tracer(enabled = true)
    val root = t.record("stream.batch", 0L, 1L, 0L, 100L)
    t.record("engine.update", root, 2L, 10L, 30L)
    t.record("engine.update", root, 3L, 50L, 60L)
    assert(t.selfTimes("stream.batch") == Seq(70L))
    val off = new Tracer(enabled = false)
    assert(off.record("x", 0L, 0L, 0L, 1L) == 0L && off.spans.isEmpty)
  }
}
