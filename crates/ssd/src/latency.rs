//! Latency recording and exact tail percentiles.
//!
//! [`LatencyRecorder`] is written to on the simulator's hot path (one
//! `record` per completed request) and read at report time. It stores each
//! sample once. A sample below 2³² ns (≈4.29 s) takes 4 bytes in a `u32`
//! run; a longer one, which only seconds of queueing produce (a tenant's
//! end-to-end latency behind a noisy neighbour, say), takes 8 bytes in a
//! `u64` run. Every `u64` sample ranks after every `u32` sample, so a
//! percentile indexes one run or the other and never both.
//!
//! Each run is a sorted prefix followed by the samples recorded since the
//! last query. A percentile query sorts that tail in place and merges it
//! into the prefix from the top, so a periodic poll costs O(k log k + n)
//! for k new samples and its only scratch is a copy of the tail; a tail at
//! least as long as the prefix is sorted together with it instead, so the
//! scratch never exceeds half the run. Recording also keeps a running sum
//! and maximum, so [`mean`] and [`max`] never rescan the samples and a
//! merge at a sweep join is a plain append. Recording order is not kept:
//! two recorders are equal when they hold the same multiset of samples.
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
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    /// Samples below 2³² ns.
    short: RefCell<Run<u32>>,
    /// Samples of 2³² ns or more; each ranks after every `short` sample.
    long: RefCell<Run<u64>>,
    /// Running sum of all samples, for O(1) means.
    sum_ns: u64,
    /// Running maximum, for O(1) max queries.
    max_ns: u64,
}

/// One run of samples: `values[..sorted_len]` is in ascending order, and the
/// rest are the samples recorded (or merged in) since the last sort.
/// Interior mutability lets percentile queries sort on `&self`; `RefCell`
/// keeps the recorder `!Sync`, so the compiler still rules out
/// cross-thread races on the in-place sort.
#[derive(Debug, Clone, Default)]
struct Run<T> {
    values: Vec<T>,
    sorted_len: usize,
}

impl<T: Copy + Ord> Run<T> {
    /// Sorts the samples recorded since the last call into place and
    /// returns the whole run, sorted. A tail at least as long as the
    /// sorted prefix is sorted together with it, with no scratch; a shorter
    /// one is sorted alone, copied out and merged in from the top, so the
    /// scratch never exceeds half the run.
    fn sorted(&mut self) -> &[T] {
        let (mid, len) = (self.sorted_len, self.values.len());
        if mid == len {
            return &self.values;
        }
        let v = &mut self.values[..];
        if len - mid >= mid {
            v.sort_unstable();
        } else {
            v[mid..].sort_unstable();
            let tail = v[mid..].to_vec();
            // Writes land at `i + j - 1`, at or above the unread prefix
            // `v[..i]` while `j > 0`.
            let (mut i, mut j) = (mid, tail.len());
            while j > 0 {
                if i > 0 && v[i - 1] > tail[j - 1] {
                    v[i + j - 1] = v[i - 1];
                    i -= 1;
                } else {
                    v[i + j - 1] = tail[j - 1];
                    j -= 1;
                }
            }
        }
        self.sorted_len = len;
        &self.values
    }
}

/// The 1-based nearest rank ⌈p·n/100⌉ of percentile `p` among `n ≥ 1`
/// samples, in integers with `p` in units of 10⁻⁷ percent. The float
/// product `(p / 100.0) * n` would land one rank high whenever p·n/100 is
/// whole but `p / 100.0` rounds up: 99.9 / 100 is 0.9990000000000001, which
/// would put p99.9 of 1,000 samples at rank 1,000 instead of 999.
fn nearest_rank(p: f64, n: usize) -> usize {
    let p_units = (p * 1e7).round() as u128;
    let rank = (p_units * n as u128).div_ceil(1_000_000_000);
    (rank as usize).clamp(1, n)
}

/// Equality is over the multiset of recorded samples (and therefore the
/// derived sum and max); recording order and how far each run is sorted
/// are invisible.
impl PartialEq for LatencyRecorder {
    fn eq(&self, other: &Self) -> bool {
        // Sorting first (a no-op when already sorted) makes both sides
        // canonical, so the comparison needs only shared borrows and works
        // when `self` and `other` are the same recorder.
        self.warm_percentile_cache();
        other.warm_percentile_cache();
        self.short.borrow().values == other.short.borrow().values
            && self.long.borrow().values == other.long.borrow().values
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
        match u32::try_from(latency_ns) {
            Ok(short) => self.short.get_mut().values.push(short),
            Err(_) => self.long.get_mut().values.push(latency_ns),
        }
        self.sum_ns += latency_ns;
        self.max_ns = self.max_ns.max(latency_ns);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.short.borrow().values.len() + self.long.borrow().values.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorts every sample recorded since the last query into place (a
    /// no-op when already sorted). Called before cloning a recorder whose
    /// clone will be queried — e.g. [`crate::session::Simulation::snapshot`]
    /// — so the clone starts sorted instead of ranking from scratch.
    pub fn warm_percentile_cache(&self) {
        self.short.borrow_mut().sorted();
        self.long.borrow_mut().sorted();
    }

    /// The `p`-th percentile (0 < p ≤ 100) by nearest rank: the smallest
    /// sample with at least `p`% of all samples at or below it, with `p`
    /// taken to 10⁻⁷ of a percent. Returns 0 for an empty recorder.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        let n = self.len();
        if n == 0 {
            return 0;
        }
        let index = nearest_rank(p, n) - 1;
        let shorts = self.short.borrow().values.len();
        if index < shorts {
            u64::from(self.short.borrow_mut().sorted()[index])
        } else {
            self.long.borrow_mut().sorted()[index - shorts]
        }
    }

    /// Mean latency in nanoseconds (0 for an empty recorder).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sum_ns as f64 / self.len() as f64
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
        if self.is_empty() {
            return TailLatencies::default();
        }
        TailLatencies {
            p99_ns: self.percentile(99.0),
            p99_9_ns: self.percentile(99.9),
            p99_99_ns: self.percentile(99.99),
        }
    }

    /// Merges another recorder's samples into this one. They join the
    /// unsorted tail of each run; the next query sorts them in.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        let (short, long) = (self.short.get_mut(), self.long.get_mut());
        short.values.extend_from_slice(&other.short.borrow().values);
        long.values.extend_from_slice(&other.long.borrow().values);
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

    /// Ramps whose length is a multiple of 1,000 hit every ladder rank
    /// exactly; p99.9 in particular is not pushed one rank high.
    #[test]
    fn ramp_percentiles_land_on_exact_ranks() {
        let ladder = [10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 99.9999, 100.0];
        let cases: [(u64, [u64; 8]); 2] = [
            (1_000, [100, 500, 900, 990, 999, 1_000, 1_000, 1_000]),
            (
                1_000_000,
                [
                    100_000, 500_000, 900_000, 990_000, 999_000, 999_900, 999_999, 1_000_000,
                ],
            ),
        ];
        for (n, expected) in cases {
            let mut r = LatencyRecorder::new();
            for i in 1..=n {
                r.record(i);
            }
            for (p, want) in ladder.into_iter().zip(expected) {
                assert_eq!(r.percentile(p), want, "p{p} of 1..={n}");
            }
        }
        // p99.9 of 1..=n is the least k with k / n ≥ 999 / 1000, for every n.
        let mut r = LatencyRecorder::new();
        for n in 1..=5_000u64 {
            r.record(n);
            assert_eq!(r.percentile(99.9), (999 * n).div_ceil(1_000), "n = {n}");
        }
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

    /// Incremental sorting into the sorted prefix must produce
    /// byte-identical percentiles to a freshly sorted recorder, no matter
    /// how records and queries interleave (including duplicate values
    /// straddling the prefix/tail boundary).
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
                    "round {round}, p{p}: incremental sort diverged from a full sort"
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

    /// Advances a xorshift64 state and returns it.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Sorting a run agrees with a full sort for every length of sorted
    /// prefix, on both sides of the whole-sort/merge choice, with
    /// duplicates straddling the split.
    #[test]
    fn a_run_sorts_like_a_full_sort_at_every_split() {
        let mut x = 0x2545_F491_u64;
        for len in 0..40 {
            let values: Vec<u32> = (0..len).map(|_| (xorshift(&mut x) % 12) as u32).collect();
            let mut expected = values.clone();
            expected.sort_unstable();
            for mid in 0..=len {
                let mut run = Run {
                    values: values.clone(),
                    sorted_len: mid,
                };
                run.values[..mid].sort_unstable();
                assert_eq!(run.sorted(), expected, "len {len}, split at {mid}");
                assert_eq!(run.sorted_len, len);
            }
        }
    }

    /// Samples of 2³² ns or more go to the `u64` run and rank after every
    /// shorter one; `u32::MAX` stays in the `u32` run and 2³² does not.
    #[test]
    fn samples_from_2_32_ns_up_rank_after_the_rest() {
        let boundary = 1u64 << 32;
        let values = [
            boundary + 5,
            7,
            u64::from(u32::MAX),
            boundary,
            3,
            5_700_000_000,
            u64::from(u32::MAX) - 1,
            boundary,
        ];
        let mut r = LatencyRecorder::new();
        for v in values {
            r.record(v);
        }
        assert_eq!(r.short.borrow().values.len(), 4);
        assert_eq!(r.long.borrow().values.len(), 4);
        assert_eq!(r.len(), 8);
        assert_eq!(r.max(), 5_700_000_000);
        assert_eq!(r.mean(), values.iter().sum::<u64>() as f64 / 8.0);
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for (k, &v) in sorted.iter().enumerate() {
            // Eight samples: p = 12.5·(k + 1) is exactly rank k + 1.
            assert_eq!(r.percentile(12.5 * (k + 1) as f64), v, "rank {}", k + 1);
        }
    }

    /// Each sample below 2³² ns is stored once, in 4 bytes: after 1,000,000
    /// of them the `u32` run's buffer is the only storage that grew,
    /// percentile queries sort it without growing it, and a clone holds
    /// exactly 4 bytes per sample.
    #[test]
    fn a_sample_below_2_32_ns_is_stored_once_in_four_bytes() {
        const N: usize = 1_000_000;
        let storage = |r: &LatencyRecorder| {
            let (short, long) = (r.short.borrow(), r.long.borrow());
            short.values.capacity() * std::mem::size_of::<u32>()
                + long.values.capacity() * std::mem::size_of::<u64>()
        };
        let mut r = LatencyRecorder::new();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in 0..N {
            r.record(xorshift(&mut x) % (1 << 32));
            if i % 100_000 == 99_999 {
                let _ = r.percentile(99.9);
            }
        }
        let recorded = storage(&r);
        assert_eq!(r.long.borrow().values.capacity(), 0);
        assert!(
            (4 * N..8 * N).contains(&recorded),
            "{recorded} bytes of samples for {N} samples"
        );
        r.warm_percentile_cache();
        let _ = r.tails();
        assert_eq!(storage(&r), recorded, "queries sort in place");
        assert_eq!(
            storage(&r.clone()),
            4 * N,
            "a clone holds 4 bytes per sample"
        );
    }

    /// Equality compares sample multisets: recording order, merges and how
    /// far each run is sorted are invisible, one extra sample is not.
    #[test]
    fn equality_is_over_the_sample_multiset() {
        let values = [30u64, 10, 1 << 33, 20, 10, u64::from(u32::MAX), 1 << 33];
        let mut forward = LatencyRecorder::new();
        let mut backward = LatencyRecorder::new();
        for &v in &values {
            forward.record(v);
        }
        for &v in values.iter().rev() {
            backward.record(v);
        }
        let _ = backward.percentile(50.0);
        assert_eq!(forward, backward);
        let alias = &forward;
        assert!(alias.eq(&forward), "a recorder equals itself");
        let (mut head, mut tail) = (LatencyRecorder::new(), LatencyRecorder::new());
        for &v in &values[..3] {
            head.record(v);
        }
        for &v in &values[3..] {
            tail.record(v);
        }
        head.merge(&tail);
        assert_eq!(head, forward);
        backward.record(10);
        assert_ne!(forward, backward);
    }
}
