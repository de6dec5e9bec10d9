//! Latency recording and tail percentiles in bounded memory.
//!
//! [`LatencyRecorder`] is written to on the simulator's hot path (one
//! `record` per completed request) and read at report time. It is a
//! log-linear histogram: a sample below 2¹¹ ns gets a bucket of its own,
//! and each power-of-two range above that splits into 1,024 equal buckets.
//! Counts live in a `Vec<u64>` that grows only as far as the highest bucket
//! used, so a recorder never holds more than 56,320 counts (440 KiB),
//! and at most 25,600 (200 KiB) while every sample is below 2³⁴ ns
//! (≈17 s), whatever the run length.
//!
//! A percentile is the highest value of the bucket holding the
//! nearest-rank sample, capped at the exact maximum. It is never below
//! that sample and never more than `sample >> 10` (0.098%) above it, and
//! it is exact below 2¹¹ ns. Recording is O(1), a percentile O(buckets),
//! and a merge adds counts, so it is exact. The sample count, the running
//! sum behind [`mean`] and [`max`] are kept exactly. Recording order is
//! not kept: two recorders are equal when their counts, sums and maxima
//! are.
//!
//! [`mean`]: LatencyRecorder::mean
//! [`max`]: LatencyRecorder::max

/// Values below `1 << EXACT_BITS` ns get a bucket each.
const EXACT_BITS: u32 = 11;
/// Each power-of-two range from 2¹¹ ns up splits into `1 << SUB_BITS`
/// buckets, so a bucket spans at most 2⁻¹⁰ of the values it holds.
const SUB_BITS: u32 = 10;

/// The bucket holding `value`: the value itself below 2¹¹. Otherwise
/// `e − 9` for the power-of-two range `e = ⌊log₂ value⌋`, followed by the
/// 10 bits below the leading one, so 2¹¹ lands in bucket 2,048, right
/// after the exact buckets.
fn bucket_of(value: u64) -> usize {
    if value < 1 << EXACT_BITS {
        return value as usize;
    }
    let e = 63 - value.leading_zeros();
    let sub = (value >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    (((e - (EXACT_BITS - 2)) as usize) << SUB_BITS) | sub as usize
}

/// The highest value that lands in `bucket`.
fn bucket_max(bucket: usize) -> u64 {
    if bucket < 1 << EXACT_BITS {
        return bucket as u64;
    }
    let e = (bucket >> SUB_BITS) as u32 + (EXACT_BITS - 2);
    let width_bits = e - SUB_BITS;
    let leading = ((1 << SUB_BITS) | (bucket & ((1 << SUB_BITS) - 1))) as u64;
    (leading << width_bits) | ((1 << width_bits) - 1)
}

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

/// Records per-request latencies (in nanoseconds) in a log-linear
/// histogram and computes percentiles; see the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyRecorder {
    /// Samples per bucket, up to the highest bucket used.
    counts: Vec<u64>,
    /// Number of samples recorded.
    len: u64,
    /// Running sum of all samples, for O(1) means; wide enough that no
    /// sequence of `u64` samples a run can record overflows it.
    sum_ns: u128,
    /// Running maximum, for O(1) max queries.
    max_ns: u64,
}

/// The 1-based nearest rank ⌈p·n/100⌉ of percentile `p` among `n ≥ 1`
/// samples, in integers with `p` in units of 10⁻⁷ percent. The float
/// product `(p / 100.0) * n` would land one rank high whenever p·n/100 is
/// whole but `p / 100.0` rounds up: 99.9 / 100 is 0.9990000000000001, which
/// would put p99.9 of 1,000 samples at rank 1,000 instead of 999.
fn nearest_rank(p: f64, n: u64) -> u64 {
    let p_units = (p * 1e7).round() as u128;
    let rank = (p_units * u128::from(n)).div_ceil(1_000_000_000);
    (rank as u64).clamp(1, n)
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency_ns: u64) {
        let bucket = bucket_of(latency_ns);
        if bucket >= self.counts.len() {
            self.grow(bucket + 1);
        }
        self.counts[bucket] += 1;
        self.len += 1;
        self.sum_ns += u128::from(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
    }

    /// Extends `counts` with zeros to `buckets` entries, off the hot path.
    /// `Vec`'s amortized growth keeps reallocations to O(log buckets).
    /// Growing to exact capacities instead fragments the heap: it raised
    /// `tenants_faulted`'s peak RSS from 11 to 15 MiB.
    #[cold]
    fn grow(&mut self, buckets: usize) {
        self.counts.resize(buckets, 0);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `p`-th percentile (0 < p ≤ 100) by nearest rank, with `p` taken
    /// to 10⁻⁷ of a percent: the highest value of the bucket holding the
    /// smallest sample with at least `p`% of all samples at or below it,
    /// capped at [`max`](Self::max). Never below that sample, at most
    /// `sample >> 10` above it, and exact below 2¹¹ ns. Returns 0 for an
    /// empty recorder.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.len == 0 {
            return 0;
        }
        let rank = nearest_rank(p, self.len);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_max(bucket).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean latency in nanoseconds (0 for an empty recorder).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sum_ns as f64 / self.len as f64
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

    /// Merges another recorder's samples into this one by adding bucket
    /// counts: exact, and O(buckets) whatever the sample counts.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        if other.counts.len() > self.counts.len() {
            self.grow(other.counts.len());
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.len += other.len;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts the histogram's error bound: `got` is never below the exact
    /// order statistic, at most `exact >> 10` above it, and equal to it
    /// below 2¹¹ ns.
    #[track_caller]
    fn assert_within_bound(got: u64, exact: u64, what: &str) {
        if exact < 1 << EXACT_BITS {
            assert_eq!(got, exact, "{what}: exact below 2^11 ns");
        } else {
            assert!(
                exact <= got && got - exact <= exact >> 10,
                "{what}: {got} is outside [{exact}, {exact} + {exact} >> 10]"
            );
        }
    }

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

    /// Ramps whose length is a multiple of 1,000 hit every ladder rank,
    /// exactly below 2¹¹ ns and within the bound above. Where values are
    /// exact, p99.9 in particular is not pushed one rank high.
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
                assert_within_bound(r.percentile(p), want, &format!("p{p} of 1..={n}"));
            }
        }
        // p99.9 of 1..=n is the least k with k / n ≥ 999 / 1000, for every n.
        let mut r = LatencyRecorder::new();
        for n in 1..=5_000u64 {
            r.record(n);
            let exact = (999 * n).div_ceil(1_000);
            assert_within_bound(r.percentile(99.9), exact, &format!("n = {n}"));
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
        assert_within_bound(tails.p99_ns, 99_000, "p99");
        assert_within_bound(tails.p99_99_ns, 99_990, "p99.99");
        assert!((tails.p99_us() - tails.p99_ns as f64 / 1_000.0).abs() < 1e-9);
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
    fn recording_after_a_query_still_counts() {
        let mut r = LatencyRecorder::new();
        r.record(100);
        assert_eq!(r.percentile(100.0), 100);
        r.record(900);
        r.record(50);
        assert_eq!(r.percentile(100.0), 900);
        assert_eq!(r.percentile(50.0), 100);
        assert_eq!(r.max(), 900);
    }

    /// Interleaving records and queries changes no percentile: a recorder
    /// queried after every round answers like one built fresh from the same
    /// samples, duplicates included.
    #[test]
    fn interleaved_records_and_queries_match_a_fresh_recorder() {
        let mut incremental = LatencyRecorder::new();
        let mut recorded: Vec<u64> = Vec::new();
        // Deterministic pseudo-random values with plenty of duplicates.
        let mut x = 0x2545F491_u64;
        for round in 0..50 {
            for _ in 0..=(round % 7) {
                let v = xorshift(&mut x) % 1000;
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
                    "round {round}, p{p}: interleaved queries changed a percentile"
                );
            }
        }
    }

    #[test]
    fn clone_and_equality_track_samples_only() {
        let mut a = LatencyRecorder::new();
        a.record(7);
        a.record(3);
        let b = a.clone();
        assert_eq!(a, b);
        // Querying one side's percentile must not affect equality.
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

    /// Buckets tile the `u64` range without gaps: below 2¹¹ each value is
    /// its own bucket, and from 2¹¹ up every power of two opens a new
    /// range of 1,024 buckets. Every value sits at most `value >> 10` below
    /// the top of its bucket, and `u64::MAX` tops the last bucket. A
    /// recorder holding all these edges ranks each one within the bound.
    #[test]
    fn bucket_edges_at_every_power_of_two() {
        assert_eq!(bucket_of(u64::MAX), 56_319);
        assert_eq!(bucket_of((1 << 34) - 1), 25_599);
        assert_eq!([2_047, 2_048, 2_049].map(bucket_of), [2_047, 2_048, 2_048]);
        assert_eq!([2_047, 2_048].map(bucket_max), [2_047, 2_049]);
        let mut edges = vec![2_047, 2_048, 2_049, u64::MAX];
        for e in 12..64 {
            let power = 1u64 << e;
            assert_eq!(bucket_of(power), (e - 9) << 10, "2^{e}");
            assert_eq!(bucket_of(power - 1), bucket_of(power) - 1, "2^{e} - 1");
            edges.extend([power - 1, power, power + 1]);
        }
        for &v in &edges {
            let bucket = bucket_of(v);
            assert!(
                bucket == 0 || bucket_max(bucket - 1) < v,
                "{v} above the bucket below"
            );
            assert!(v <= bucket_max(bucket), "{v} inside its bucket");
            assert_within_bound(bucket_max(bucket), v, "bucket top");
        }
        assert_eq!(bucket_max(bucket_of(u64::MAX)), u64::MAX);

        let mut r = LatencyRecorder::new();
        for &v in &edges {
            r.record(v);
        }
        edges.sort_unstable();
        let n = edges.len() as u64;
        assert_eq!(r.len() as u64, n);
        assert_eq!(r.max(), u64::MAX);
        assert_eq!(r.percentile(100.0), u64::MAX);
        let sum: u128 = edges.iter().map(|&v| u128::from(v)).sum();
        assert_eq!(r.mean(), sum as f64 / n as f64);
        for k in 1..=n {
            let p = 100.0 * k as f64 / n as f64;
            let exact = edges[nearest_rank(p, n) as usize - 1];
            assert_within_bound(r.percentile(p), exact, &format!("rank {k}"));
        }
    }

    /// Merging adds counts, so it equals recording both sample sets into
    /// one recorder, whichever side holds the longer bucket array.
    #[test]
    fn merge_equals_recording_both_sample_sets() {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let short: Vec<u64> = (0..500).map(|_| xorshift(&mut x) % 5_000).collect();
        let long: Vec<u64> = (0..500).map(|_| xorshift(&mut x) >> 20).collect();
        let record_all = |sets: &[&[u64]]| {
            let mut r = LatencyRecorder::new();
            for v in sets.iter().flat_map(|s| s.iter()) {
                r.record(*v);
            }
            r
        };
        let both = record_all(&[&short, &long]);
        for (into, from) in [(&short, &long), (&long, &short)] {
            let mut merged = record_all(&[into]);
            merged.merge(&record_all(&[from]));
            assert_eq!(merged, both);
        }
        let mut empty = LatencyRecorder::new();
        empty.merge(&both);
        assert_eq!(empty, both);
    }

    /// Bucket storage is bounded by the value range, not the sample count:
    /// after 1,000,000 samples below 2³⁴ ns it stops growing, and 9,000,000
    /// more leave it byte for byte as it was.
    #[test]
    fn ten_million_samples_hold_storage_constant() {
        let storage = |r: &LatencyRecorder| (r.counts.len(), r.counts.capacity());
        let mut r = LatencyRecorder::new();
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        for _ in 0..1_000_000 {
            r.record(xorshift(&mut x) >> 30);
        }
        let after_a_million = storage(&r);
        for _ in 1_000_000..10_000_000 {
            r.record(xorshift(&mut x) >> 30);
        }
        assert_eq!(r.len(), 10_000_000);
        assert_eq!(storage(&r), after_a_million);
        let (len, capacity) = after_a_million;
        assert_eq!(len, bucket_of((1 << 34) - 1) + 1);
        assert!(
            capacity * std::mem::size_of::<u64>() <= 440 * 1024,
            "{capacity} buckets"
        );
    }

    /// Equality compares counts, sums and maxima: recording order and
    /// merges are invisible, one extra sample is not.
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
