//! Aggregated statistics over erase operations.

use aero_nand::chip::EraseReport;
use aero_nand::timing::Micros;

/// Running statistics over a sequence of erase operations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EraseStats {
    /// Number of erase operations recorded.
    pub operations: u64,
    /// Total number of erase loops across all operations.
    pub loops: u64,
    /// Total erase latency across all operations.
    pub total_latency: Micros,
    /// Total cell stress delivered.
    pub total_stress: f64,
    /// Number of operations that deliberately finished with the block
    /// insufficiently erased.
    pub partial_erases: u64,
    /// Number of operations whose final verify-read passed.
    pub complete_erases: u64,
    /// Histogram of loop counts (index = loops - 1, capped at 9).
    pub loop_histogram: [u64; 9],
    /// Maximum single-operation latency observed.
    pub max_latency: Micros,
}

impl EraseStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        EraseStats::default()
    }

    /// Records one erase operation.
    pub fn record(&mut self, report: &EraseReport, accepted_partial: bool) {
        self.operations += 1;
        self.loops += report.n_loops() as u64;
        self.total_latency += report.total_latency;
        self.total_stress += report.stress;
        if accepted_partial {
            self.partial_erases += 1;
        }
        if report.completely_erased() {
            self.complete_erases += 1;
        }
        let bucket = (report.n_loops().max(1) as usize - 1).min(8);
        self.loop_histogram[bucket] += 1;
        self.max_latency = self.max_latency.max(report.total_latency);
    }

    /// Mean erase latency per operation.
    pub fn mean_latency(&self) -> Micros {
        if self.operations == 0 {
            Micros::ZERO
        } else {
            self.total_latency / self.operations as u32
        }
    }

    /// Mean number of loops per operation.
    pub fn mean_loops(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.loops as f64 / self.operations as f64
        }
    }

    /// Mean cell stress per operation.
    pub fn mean_stress(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.total_stress / self.operations as f64
        }
    }

    /// Fraction of operations that were accepted as partial erasures.
    pub fn partial_fraction(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.partial_erases as f64 / self.operations as f64
        }
    }

    /// Returns the statistics accumulated since `baseline` was captured
    /// (field-wise `self − baseline`), for run-local reporting against a
    /// live, drive-lifetime statistics stream.
    ///
    /// `baseline` must be an earlier snapshot of the same stream; every
    /// counter uses saturating subtraction so a mismatched snapshot cannot
    /// underflow.
    ///
    /// `max_latency` is **not** subtractable — a running maximum cannot be
    /// un-merged — so the diff reports `Micros::ZERO` for it rather than a
    /// value that silently includes pre-baseline operations. Callers that
    /// need an interval maximum must track it alongside the stream, as the
    /// simulation session does for its run-local reports.
    pub fn diff(&self, baseline: &EraseStats) -> EraseStats {
        let mut loop_histogram = [0u64; 9];
        for (d, (a, b)) in loop_histogram.iter_mut().zip(
            self.loop_histogram
                .iter()
                .zip(baseline.loop_histogram.iter()),
        ) {
            *d = a.saturating_sub(*b);
        }
        EraseStats {
            operations: self.operations.saturating_sub(baseline.operations),
            loops: self.loops.saturating_sub(baseline.loops),
            total_latency: self.total_latency.saturating_sub(baseline.total_latency),
            total_stress: (self.total_stress - baseline.total_stress).max(0.0),
            partial_erases: self.partial_erases.saturating_sub(baseline.partial_erases),
            complete_erases: self
                .complete_erases
                .saturating_sub(baseline.complete_erases),
            loop_histogram,
            max_latency: Micros::ZERO,
        }
    }

    /// Merges another statistics object into this one.
    pub fn merge(&mut self, other: &EraseStats) {
        self.operations += other.operations;
        self.loops += other.loops;
        self.total_latency += other.total_latency;
        self.total_stress += other.total_stress;
        self.partial_erases += other.partial_erases;
        self.complete_erases += other.complete_erases;
        for (a, b) in self
            .loop_histogram
            .iter_mut()
            .zip(other.loop_histogram.iter())
        {
            *a += b;
        }
        self.max_latency = self.max_latency.max(other.max_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_nand::erase::ispe::EraseLoopOutcome;
    use aero_nand::geometry::BlockAddr;

    fn report(loops: u32, latency_ms: f64, stress: f64, complete: bool) -> EraseReport {
        let outcomes = (0..loops)
            .map(|i| EraseLoopOutcome {
                loop_index: i + 1,
                pulse: Micros::from_millis_f64(3.5),
                latency: Micros::from_millis_f64(3.6),
                fail_bits: if complete && i == loops - 1 {
                    10
                } else {
                    10_000
                },
                passed: complete && i == loops - 1,
            })
            .collect();
        EraseReport {
            block: BlockAddr::new(0, 0),
            loops: outcomes,
            total_latency: Micros::from_millis_f64(latency_ms),
            stress,
            residual_units: if complete { 0.0 } else { 1.0 },
            pec_after: 1,
        }
    }

    #[test]
    fn record_and_aggregate() {
        let mut s = EraseStats::new();
        s.record(&report(1, 3.6, 7.0, true), false);
        s.record(&report(3, 10.8, 30.0, true), false);
        s.record(&report(1, 1.1, 2.0, false), true);
        assert_eq!(s.operations, 3);
        assert_eq!(s.loops, 5);
        assert_eq!(s.complete_erases, 2);
        assert_eq!(s.partial_erases, 1);
        assert!((s.mean_loops() - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_stress() - 13.0).abs() < 1e-12);
        assert_eq!(s.loop_histogram[0], 2);
        assert_eq!(s.loop_histogram[2], 1);
        assert_eq!(s.max_latency, Micros::from_millis_f64(10.8));
        assert!((s.partial_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = EraseStats::new();
        assert_eq!(s.mean_latency(), Micros::ZERO);
        assert_eq!(s.mean_loops(), 0.0);
        assert_eq!(s.partial_fraction(), 0.0);
    }

    #[test]
    fn diff_reports_only_the_interval_since_the_baseline() {
        let mut s = EraseStats::new();
        s.record(&report(1, 3.6, 7.0, true), false);
        s.record(&report(3, 10.8, 30.0, true), false);
        let baseline = s.clone();
        s.record(&report(2, 7.2, 20.0, false), true);
        let d = s.diff(&baseline);
        assert_eq!(d.operations, 1);
        assert_eq!(d.loops, 2);
        assert_eq!(d.total_latency, Micros::from_millis_f64(7.2));
        assert!((d.total_stress - 20.0).abs() < 1e-12);
        assert_eq!(d.partial_erases, 1);
        assert_eq!(d.complete_erases, 0);
        assert_eq!(d.loop_histogram, [0, 1, 0, 0, 0, 0, 0, 0, 0]);
        // max_latency is not subtractable: the diff zeroes it instead of
        // leaking the lifetime maximum into an interval report (interval
        // maxima must be tracked alongside the stream by the caller).
        assert_eq!(d.max_latency, Micros::ZERO);
    }

    #[test]
    fn diff_against_identical_snapshot_is_empty() {
        let mut s = EraseStats::new();
        s.record(&report(2, 7.2, 20.0, true), false);
        let d = s.diff(&s.clone());
        assert_eq!(d.operations, 0);
        assert_eq!(d.loops, 0);
        assert_eq!(d.total_latency, Micros::ZERO);
        assert_eq!(d.total_stress, 0.0);
        assert_eq!(d.loop_histogram, [0u64; 9]);
        assert_eq!(
            d.max_latency,
            Micros::ZERO,
            "an empty interval has no maximum"
        );
    }

    #[test]
    fn diff_saturates_on_mismatched_baseline() {
        let mut ahead = EraseStats::new();
        ahead.record(&report(1, 3.6, 7.0, true), false);
        ahead.record(&report(1, 3.6, 7.0, true), false);
        let behind = EraseStats::new();
        // Diffing the *baseline* against the later snapshot must not
        // underflow.
        let d = behind.diff(&ahead);
        assert_eq!(d.operations, 0);
        assert_eq!(d.loops, 0);
        assert_eq!(d.total_latency, Micros::ZERO);
        assert_eq!(d.total_stress, 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = EraseStats::new();
        a.record(&report(1, 3.6, 7.0, true), false);
        let mut b = EraseStats::new();
        b.record(&report(2, 7.2, 20.0, true), false);
        a.merge(&b);
        assert_eq!(a.operations, 2);
        assert_eq!(a.loops, 3);
        assert_eq!(a.loop_histogram[1], 1);
    }
}
