package repro.tricbench

/** The benchmark's statistics: percentiles of per-update mid-means that
  * state how many samples lie beyond them, medians over rounds, ratios that keep
  * their bases, and span self time. Pure functions, unit-tested in
  * `StatsSpec`.
  */
object Stats {

  /** A percentile of per-update latencies over `rounds` replays of the same
    * `updates` updates: `samples` = updates × rounds latencies lie behind it,
    * `beyond` of them on the updates above its rank.
    */
  final case class Pct(p: Double, value: Double, samples: Int, updates: Int, beyond: Int)

  /** The p-percentile of `values`, interpolated linearly between the order
    * statistics around rank (n−1)·p, 0-based.
    */
  def percentile(values: Array[Double], p: Double): Double = {
    require(values.nonEmpty, "percentile of no samples")
    require(p >= 0 && p <= 1, s"percentile $p outside [0, 1]")
    val sorted = values.sorted
    val h      = (sorted.length - 1) * p
    val lo     = math.floor(h).toInt
    val hi     = math.min(lo + 1, sorted.length - 1)
    sorted(lo) + (h - lo) * (sorted(hi) - sorted(lo))
  }

  /** Updates above rank (n−1)·p of n. */
  def updatesBeyond(n: Int, p: Double): Int = n - 1 - math.floor((n - 1) * p).toInt

  /** Mean of the middle half: the values left after dropping the lowest and
    * the highest quarter (rounded down) of them.
    */
  def midMean(values: Seq[Double]): Double = {
    require(values.nonEmpty, "mid-mean of no values")
    val s = values.sorted
    val k = s.length / 4
    s.slice(k, s.length - k).sum / (s.length - 2 * k)
  }

  /** Each update's mid-mean latency over the rounds; `rounds(r)(i)` is update
    * i's latency in round r.
    */
  def perUpdateMidMeans(rounds: Seq[Array[Double]]): Array[Double] = {
    require(rounds.nonEmpty, "no rounds")
    val n = rounds.head.length
    require(rounds.forall(_.length == n), "rounds of different lengths")
    Array.tabulate(n)(i => midMean(rounds.map(_(i))))
  }

  /** The p-percentile of the per-update mid-means over `rounds`. A replay's
    * latencies form clusters at fixed stream positions (on BIO the 6 slowest
    * of 600 updates are exactly 1%), so a percentile of the pooled samples
    * jumps from one cluster to the next as single rounds move. An update's
    * mid-mean stays with the update, leaves out a pause that hits it in a
    * quarter of the rounds or fewer, and moves in proportion to the share of
    * rounds the machine ran fast or slow, where a median would jump from one
    * to the other at half.
    */
  def updatePercentile(rounds: Seq[Array[Double]], p: Double): Pct = {
    val means = perUpdateMidMeans(rounds)
    Pct(p, percentile(means, p), means.length * rounds.size, means.length,
      updatesBeyond(means.length, p) * rounds.size)
  }

  /** Fewest rounds of n updates that put `minBeyond` samples beyond the
    * p-percentile.
    */
  def roundsNeeded(n: Int, p: Double, minBeyond: Int = 10): Int = {
    val k = updatesBeyond(n, p)
    require(k > 0, s"no update of $n lies beyond p${p * 100}")
    (minBeyond + k - 1) / k
  }

  /** `updatePercentile`, refused unless at least `minBeyond` samples lie
    * beyond it: a tail percentile read off too few samples is a guess.
    */
  def tailPercentile(rounds: Seq[Array[Double]], p: Double, minBeyond: Int = 10): Pct = {
    val pct = updatePercentile(rounds, p)
    require(pct.beyond >= minBeyond,
      s"p${p * 100} needs ${roundsNeeded(pct.updates, p, minBeyond)} rounds of ${pct.updates} updates " +
        s"for $minBeyond samples beyond it, got ${rounds.size}")
    pct
  }

  /** Median: the middle value, or the mean of the two middle values. */
  def median(values: Seq[Double]): Double = {
    require(values.nonEmpty, "median of no values")
    val s = values.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** A ratio reported together with its numerator and base. */
  final case class Ratio(num: Double, base: Double) {
    def value: Double = if (base == 0) 0.0 else num / base
  }

  /** Share of `total` held by the slowest `share` of `values` (at least one). */
  def tailShare(values: Array[Double], share: Double): Ratio = {
    val sorted = values.sorted
    val k = math.ceil(sorted.length * share).toInt max 1
    Ratio(sorted.takeRight(k).sum, sorted.sum)
  }

  /** A span's self time: its duration minus the part of its interval covered
    * by its children (overlapping children count once; parts of a child
    * outside the parent do not count).
    */
  def selfTime(start: Long, end: Long, children: Seq[(Long, Long)]): Long = {
    val clipped = children.map { case (s, e) => (s max start, e min end) }.filter { case (s, e) => e > s }
    var covered = 0L
    var reach   = start
    for ((s, e) <- clipped.sortBy(_._1)) {
      if (e > reach) { covered += e - (s max reach); reach = e }
    }
    (end - start) - covered
  }
}
