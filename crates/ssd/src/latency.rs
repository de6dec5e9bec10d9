//! Latency recording and tail-percentile computation.
//!
//! [`LatencyRecorder`] is written to on the simulator's hot path (one
//! `record` per completed request) and read at report time. Recording is an
//! O(1) append that also maintains a running sum and maximum, so [`mean`]
//! and [`max`] never rescan the samples and merging recorders at a sweep
//! join is a cheap concatenation. Percentile queries sort lazily into an
//! interior cache, which keeps the read-side API on `&self` — reports and
//! comparisons no longer need to clone whole sample vectors just to rank
//! them.
//!
//! [`mean`]: LatencyRecorder::mean
//! [`max`]: LatencyRecorder::max

use std::cell::RefCell;

/// The tail percentiles bench tables report, fetched in one call via
/// [`LatencyRecorder::tails`] so bins stop hand-rolling percentile lookups.
///
/// With fewer samples than a percentile resolves, values saturate to the
/// maximum observed latency; an empty recorder yields all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailLatencies {
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p99_9_ns: u64,
    /// 99.99th percentile, nanoseconds.
    pub p99_99_ns: u64,
}

impl TailLatencies {
    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1_000.0
    }

    /// 99.9th percentile in microseconds.
    pub fn p99_9_us(&self) -> f64 {
        self.p99_9_ns as f64 / 1_000.0
    }

    /// 99.99th percentile in microseconds.
    pub fn p99_99_us(&self) -> f64 {
        self.p99_99_ns as f64 / 1_000.0
    }
}

/// Records per-request latencies (in nanoseconds) and computes percentiles.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    /// Samples in recording order.
    samples: Vec<u64>,
    /// Running sum of all samples, for O(1) means.
    sum_ns: u64,
    /// Running maximum, for O(1) max queries.
    max_ns: u64,
    /// Lazily maintained sorted copy of the first `cache.len()` samples.
    /// Samples are only ever appended, never removed, so the cache is
    /// always a sorted multiset of a prefix of `samples`; a query sorts
    /// just the new tail and merges it in, instead of re-sorting the whole
    /// vector (which made periodic snapshot percentiles O(n log n) each).
    /// Interior mutability keeps percentile queries on `&self`; `RefCell`
    /// makes the recorder `!Sync`, so the compiler still rules out
    /// cross-thread races on the cache.
    sorted_cache: RefCell<Vec<u64>>,
}

impl Clone for LatencyRecorder {
    fn clone(&self) -> Self {
        LatencyRecorder {
            samples: self.samples.clone(),
            sum_ns: self.sum_ns,
            max_ns: self.max_ns,
            sorted_cache: RefCell::new(self.sorted_cache.borrow().clone()),
        }
    }
}

/// Equality is over the recorded samples (and therefore the derived sum and
/// max); the interior sort cache is invisible.
impl PartialEq for LatencyRecorder {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
    }
}

impl Eq for LatencyRecorder {}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency_ns: u64) {
        self.samples.push(latency_ns);
        self.sum_ns += latency_ns;
        self.max_ns = self.max_ns.max(latency_ns);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Brings the sorted cache up to date: sorts the samples recorded since
    /// the cache was last built and merges them into the sorted prefix
    /// (two-pointer merge), leaving the cache a sorted copy of every
    /// sample. O(k log k + n) for k new samples instead of the former
    /// O(n log n) full re-sort per stale query.
    fn sync_sorted_cache(&self) {
        let mut cache = self.sorted_cache.borrow_mut();
        let prefix = cache.len();
        let total = self.samples.len();
        if prefix == total {
            return;
        }
        // Sort only the new tail into a scratch buffer (O(window), not
        // O(history)), then merge it into the sorted prefix backward: the
        // write cursor always sits above the unread prefix cursor
        // (`k - 1 = (i - 1) + j ≥ i` while `j > 0`), so the prefix merges
        // in place and the only allocation is the tail scratch.
        let mut tail = self.samples[prefix..].to_vec();
        tail.sort_unstable();
        if prefix == 0 {
            *cache = tail;
            return;
        }
        cache.resize(total, 0);
        let (mut i, mut j, mut k) = (prefix, tail.len(), total);
        while i > 0 && j > 0 {
            if cache[i - 1] > tail[j - 1] {
                cache[k - 1] = cache[i - 1];
                i -= 1;
            } else {
                cache[k - 1] = tail[j - 1];
                j -= 1;
            }
            k -= 1;
        }
        // A drained prefix leaves the smallest tail elements to place at the
        // bottom; a drained tail leaves the prefix remainder already in
        // position.
        cache[..j].copy_from_slice(&tail[..j]);
    }

    /// Pre-builds the sorted percentile cache (a no-op when already
    /// current). Called before cloning a recorder whose clone will be
    /// queried — e.g. [`crate::session::Simulation::snapshot`] — so the
    /// clone inherits a warm cache instead of re-ranking from scratch.
    pub fn warm_percentile_cache(&self) {
        self.sync_sorted_cache();
    }

    /// The `p`-th percentile (0 < p ≤ 100) using nearest-rank interpolation.
    /// Returns 0 for an empty recorder.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.samples.is_empty() {
            return 0;
        }
        self.sync_sorted_cache();
        let cache = self.sorted_cache.borrow();
        let rank = ((p / 100.0) * cache.len() as f64).ceil() as usize;
        cache[rank.clamp(1, cache.len()) - 1]
    }

    /// Mean latency in nanoseconds (0 for an empty recorder).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.sum_ns as f64 / self.samples.len() as f64
    }

    /// Maximum latency observed (0 for an empty recorder).
    pub fn max(&self) -> u64 {
        self.max_ns
    }

    /// The tail percentiles the paper reports: (99.9th, 99.99th, 99.9999th).
    /// With fewer samples than a percentile resolves, the value saturates to
    /// the maximum observed latency.
    pub fn tail_percentiles(&self) -> (u64, u64, u64) {
        (
            self.percentile(99.9),
            self.percentile(99.99),
            self.percentile(99.9999),
        )
    }

    /// The p99 / p99.9 / p99.99 tails in one call. Zero for an empty
    /// recorder; saturating to the maximum when samples are scarce.
    pub fn tails(&self) -> TailLatencies {
        if self.samples.is_empty() {
            return TailLatencies::default();
        }
        TailLatencies {
            p99_ns: self.percentile(99.0),
            p99_9_ns: self.percentile(99.9),
            p99_99_ns: self.percentile(99.99),
        }
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut r = LatencyRecorder::new();
        for i in 1..=1000u64 {
            r.record(i);
        }
        assert_eq!(r.len(), 1000);
        assert_eq!(r.percentile(50.0), 500);
        assert_eq!(r.percentile(99.0), 990);
        assert_eq!(r.percentile(100.0), 1000);
        assert_eq!(r.max(), 1000);
        assert!((r.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn tail_percentiles_saturate_to_max_for_small_samples() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(i);
        }
        let (p999, p9999, p999999) = r.tail_percentiles();
        assert_eq!(p999, 100);
        assert_eq!(p9999, 100);
        assert_eq!(p999999, 100);
    }

    #[test]
    fn tails_match_individual_percentile_calls() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100_000u64 {
            r.record(i);
        }
        let tails = r.tails();
        assert_eq!(tails.p99_ns, r.percentile(99.0));
        assert_eq!(tails.p99_9_ns, r.percentile(99.9));
        assert_eq!(tails.p99_99_ns, r.percentile(99.99));
        assert_eq!(tails.p99_ns, 99_000);
        assert_eq!(tails.p99_99_ns, 99_990);
        assert!((tails.p99_us() - 99_000.0 / 1_000.0).abs() < 1e-9);
        assert_eq!(LatencyRecorder::new().tails(), TailLatencies::default());
    }

    #[test]
    fn empty_recorder_is_zero() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.percentile(99.0), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.max(), 0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        a.record(10);
        let mut b = LatencyRecorder::new();
        b.record(20);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), 20);
        assert!((a.mean() - 15.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn invalid_percentile_rejected() {
        let mut r = LatencyRecorder::new();
        r.record(1);
        let _ = r.percentile(0.0);
    }

    #[test]
    fn unsorted_inserts_still_produce_correct_percentiles() {
        let mut r = LatencyRecorder::new();
        for v in [5u64, 1, 9, 3, 7] {
            r.record(v);
        }
        assert_eq!(r.percentile(50.0), 5);
        assert_eq!(r.percentile(100.0), 9);
    }

    #[test]
    fn recording_after_a_query_invalidates_the_cache() {
        let mut r = LatencyRecorder::new();
        r.record(100);
        assert_eq!(r.percentile(100.0), 100);
        r.record(900);
        r.record(50);
        assert_eq!(r.percentile(100.0), 900);
        assert_eq!(r.percentile(50.0), 100);
        assert_eq!(r.max(), 900);
    }

    /// The incremental tail-merge cache must produce byte-identical
    /// percentiles to a freshly sorted recorder, no matter how records and
    /// queries interleave (including duplicate values straddling the
    /// prefix/tail boundary).
    #[test]
    fn interleaved_records_and_queries_match_a_fresh_sort() {
        let mut incremental = LatencyRecorder::new();
        let mut recorded: Vec<u64> = Vec::new();
        // Deterministic pseudo-random values with plenty of duplicates.
        let mut x = 0x2545F491_u64;
        for round in 0..50 {
            for _ in 0..=(round % 7) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = x % 1000;
                incremental.record(v);
                recorded.push(v);
            }
            let mut fresh = LatencyRecorder::new();
            for &v in &recorded {
                fresh.record(v);
            }
            for p in [0.1, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    incremental.percentile(p),
                    fresh.percentile(p),
                    "round {round}, p{p}: tail-merge cache diverged from a full sort"
                );
            }
        }
    }

    /// Warming the cache is query-invisible: it changes neither the
    /// samples (equality) nor any subsequent percentile, and clones taken
    /// after warming answer identically.
    #[test]
    fn warming_is_query_invisible_and_clones_stay_warm() {
        let mut r = LatencyRecorder::new();
        for v in [40u64, 10, 30, 20, 50] {
            r.record(v);
        }
        let cold = r.clone();
        r.warm_percentile_cache();
        assert_eq!(r, cold, "warming must not affect equality");
        let warmed_clone = r.clone();
        for p in [20.0, 50.0, 80.0, 100.0] {
            assert_eq!(warmed_clone.percentile(p), cold.percentile(p));
        }
        // Records after warming land in the tail and still merge correctly.
        r.record(5);
        assert_eq!(r.percentile(1.0), 5, "new minimum merges to the bottom");
        assert_eq!(r.percentile(100.0), 50);
    }

    #[test]
    fn clone_and_equality_track_samples_only() {
        let mut a = LatencyRecorder::new();
        a.record(7);
        a.record(3);
        let b = a.clone();
        assert_eq!(a, b);
        // Querying one side's percentile (building its cache) must not
        // affect equality.
        let _ = b.percentile(50.0);
        assert_eq!(a, b);
        let mut c = b.clone();
        c.record(1);
        assert_ne!(a, c);
    }
}
