//! Decision-latency metering (§5.5.3).
//!
//! The paper reports the mean time each algorithm spends "evaluating the
//! placement decision" (≈3 s for TOPO-AWARE(-P) vs ≈0.45 s for the greedy
//! baselines at 10 k jobs / 1 k machines). The scheduler wraps every
//! `decide()` call with a timer and aggregates here, in fixed memory however
//! many decisions a run makes.

use std::fmt;
use std::time::Duration;

/// Linear sub-buckets per power of two, as a bit count: 64 sub-buckets
/// keep every bucket narrower than 2⁻⁶ of the values it holds.
const SUB_BITS: u32 = 6;
/// Linear sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Buckets covering every `u64` nanosecond value: one per value below
/// `SUB`, then `SUB` equal sub-buckets for each octave `[2^e, 2^(e+1))`
/// with `e` from `SUB_BITS` to 63 — 3 776 counters, about 30 KB.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The histogram bucket holding `ns`.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    // `shift` = floor(log2 ns) − SUB_BITS, so `ns >> shift` ∈ [SUB, 2·SUB).
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    SUB + shift as usize * SUB + ((ns >> shift) as usize - SUB)
}

/// The smallest value bucket `b` holds.
fn bucket_floor(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let shift = ((b - SUB) / SUB) as u32;
    ((SUB + (b - SUB) % SUB) as u64) << shift
}

/// Aggregate statistics over placement-decision latencies. The count,
/// total, mean and maximum are exact. The p99 comes from a log-linear
/// histogram (64 sub-buckets per power of two, about 30 KB) and is exact
/// to its bucket: it reports the bucket's smallest value, below the true
/// sample by a relative error under 2⁻⁶.
#[derive(Clone)]
pub struct DecisionStats {
    count: u64,
    total_ns: u128,
    max: Duration,
    buckets: Box<[u64]>,
}

impl Default for DecisionStats {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            max: Duration::ZERO,
            buckets: vec![0; BUCKETS].into_boxed_slice(),
        }
    }
}

impl fmt::Debug for DecisionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecisionStats")
            .field("count", &self.count)
            .field("total", &self.total())
            .field("max", &self.max)
            .field("p99", &self.p99())
            .finish()
    }
}

impl DecisionStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decision latency.
    pub fn record(&mut self, d: Duration) {
        self.count += 1;
        self.total_ns += d.as_nanos();
        self.max = self.max.max(d);
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(ns)] += 1;
    }

    /// Number of decisions timed.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Mean latency, truncated to whole nanoseconds (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let ns = self.total_ns / u128::from(self.count);
        Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Maximum latency (zero when empty).
    pub fn max(&self) -> Duration {
        self.max
    }

    /// Total time spent deciding.
    pub fn total(&self) -> Duration {
        const NS_PER_S: u128 = 1_000_000_000;
        Duration::new(
            (self.total_ns / NS_PER_S) as u64,
            (self.total_ns % NS_PER_S) as u32,
        )
    }

    /// Mean latency in seconds, for report tables: the exact ratio of the
    /// total to the count, not truncated to whole nanoseconds, so that the
    /// total divided by it gives the count back.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e9
    }

    /// 99th-percentile latency (zero when empty): the histogram bucket of
    /// the sample at the ceil(0.99·n)-th rank of the sorted latencies — the
    /// tail a mean hides when most retries replay in O(1) and a few pay a
    /// full decision.
    pub fn p99(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = (self.count * 99).div_ceil(100);
        let mut seen = 0;
        let bucket = self
            .buckets
            .iter()
            .position(|&n| {
                seen += n;
                seen >= rank
            })
            .expect("bucket counts sum to the sample count");
        Duration::from_nanos(bucket_floor(bucket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `p99()` lands in the histogram bucket of the exact-rank
    /// sample `exact`.
    #[track_caller]
    fn assert_p99_in_bucket_of(s: &DecisionStats, exact: Duration) {
        let got = s.p99();
        assert_eq!(
            bucket_of(got.as_nanos() as u64),
            bucket_of(exact.as_nanos() as u64),
            "p99 {got:?} is outside the bucket of {exact:?}"
        );
        assert!(got <= exact, "p99 {got:?} above the exact sample {exact:?}");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DecisionStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        assert_eq!(s.total(), Duration::ZERO);
        assert_eq!(s.mean_s(), 0.0);
    }

    #[test]
    fn mean_and_max() {
        let mut s = DecisionStats::new();
        s.record(Duration::from_millis(10));
        s.record(Duration::from_millis(30));
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), Duration::from_millis(20));
        assert_eq!(s.max(), Duration::from_millis(30));
        assert_eq!(s.total(), Duration::from_millis(40));
    }

    #[test]
    fn total_and_max_stay_exact_past_the_bucket_resolution() {
        let mut s = DecisionStats::new();
        let odd = Duration::new(3, 123_456_789);
        for _ in 0..3 {
            s.record(odd);
        }
        s.record(Duration::from_nanos(1));
        assert_eq!(s.total(), Duration::new(9, 370_370_368));
        assert_eq!(s.max(), odd);
        assert_eq!(s.mean(), Duration::new(9, 370_370_368) / 4);
    }

    #[test]
    fn mean_s_keeps_the_fraction_of_a_nanosecond() {
        let mut s = DecisionStats::new();
        for ns in [1, 1, 2] {
            s.record(Duration::from_nanos(ns));
        }
        assert_eq!(s.mean(), Duration::from_nanos(1));
        assert!(
            (s.mean_s() * 1e9 - 4.0 / 3.0).abs() < 1e-12,
            "got {} s",
            s.mean_s()
        );
        let n = s.total().as_nanos() as f64 / (s.mean_s() * 1e9);
        assert_eq!(n.round(), 3.0, "the total over the mean is the count");
    }

    #[test]
    fn mean_survives_more_than_u32_max_decisions() {
        // A count of exactly 2^32 used to truncate to a zero divisor, and
        // 2^32 + 3 to a divisor of 3.
        for count in [1u64 << 32, (1u64 << 32) + 3] {
            let s = DecisionStats {
                count,
                total_ns: u128::from(count) * 250,
                ..DecisionStats::new()
            };
            assert_eq!(s.mean(), Duration::from_nanos(250), "count {count}");
            assert_eq!(s.mean_s(), 250e-9, "count {count}");
            assert_eq!(s.count(), count as usize);
        }
    }

    #[test]
    fn p99_tracks_the_tail_not_the_mean() {
        assert_eq!(DecisionStats::new().p99(), Duration::ZERO);
        let mut s = DecisionStats::new();
        s.record(Duration::from_millis(5));
        assert_p99_in_bucket_of(&s, Duration::from_millis(5));
        // 199 fast samples + 1 slow: rank = ceil(200*0.99) = 198 → still a
        // fast sample.
        let mut s = DecisionStats::new();
        for _ in 0..199 {
            s.record(Duration::from_micros(10));
        }
        s.record(Duration::from_millis(50));
        assert_p99_in_bucket_of(&s, Duration::from_micros(10));
        let mut s = DecisionStats::new();
        for _ in 0..99 {
            s.record(Duration::from_micros(10));
        }
        s.record(Duration::from_millis(50));
        // rank = ceil(100*0.99) = 99 → fast; add one more slow sample and
        // rank ceil(101*0.99) = 100 → the tail shows up.
        assert_p99_in_bucket_of(&s, Duration::from_micros(10));
        s.record(Duration::from_millis(50));
        assert_p99_in_bucket_of(&s, Duration::from_millis(50));
    }

    #[test]
    fn buckets_round_trip_from_a_nanosecond_to_hours() {
        // Every value below 2·SUB has a bucket of its own.
        for ns in 0..2 * SUB as u64 {
            assert_eq!(bucket_floor(bucket_of(ns)), ns);
        }
        let ten_hours = 10 * 3600 * 1_000_000_000u64;
        let mut ns = 1u64;
        let mut last = 0;
        while ns <= ten_hours {
            let b = bucket_of(ns);
            let floor = bucket_floor(b);
            assert!(b >= last, "buckets must not decrease: {ns} ns");
            assert!(floor <= ns, "{ns} ns: bucket floor {floor} above the value");
            assert_eq!(
                bucket_of(floor),
                b,
                "{ns} ns: floor {floor} leaves its bucket"
            );
            assert!(
                bucket_floor(b + 1) > ns,
                "{ns} ns: the next bucket starts too low"
            );
            assert!(
                (ns - floor) << SUB_BITS < ns,
                "{ns} ns: relative error ≥ 2⁻⁶"
            );
            last = b;
            ns += ns / 97 + 1;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_floor(BUCKETS - 1), 127 << 57);
    }
}
