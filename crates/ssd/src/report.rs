//! Results of a trace replay.

use aero_core::stats::EraseStats;

use crate::latency::{LatencyRecorder, TailLatencies};

/// Shared-bus accounting for one channel over one trace replay.
///
/// Dies on the same channel share one data bus: page data transfers
/// serialize on it while NAND array time (tR / tPROG / erase loops)
/// overlaps freely across the channel's dies. These counters measure how
/// contended that bus was during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Page data transfers carried over this channel's bus.
    pub transfers: u64,
    /// Total time the bus was occupied by transfers, in nanoseconds.
    pub busy_ns: u64,
    /// Transfers that had to wait for the bus because another die on the
    /// channel held it.
    pub waited_transfers: u64,
    /// Total time spent waiting for the bus (reservation waits plus write
    /// dispatch deferrals), in nanoseconds.
    pub wait_ns: u64,
    /// Times a user-write dispatch was deferred (with a channel-busy
    /// wake-up) because its leading data transfer could not start.
    pub write_deferrals: u64,
}

/// Drive-health telemetry measured over one run, plus the drive's current
/// degradation state.
///
/// Event counters (`program_failures`, `erase_failures`, `media_errors`,
/// the retry histogram, `writes_rejected_read_only`) are **run-local** —
/// they count only this run's events, like every other report counter.
/// `retired_blocks`, `spare_blocks_total`, `spare_headroom`, and
/// `read_only` describe the drive's *state* at the end of the run (state
/// accumulated over the drive's whole lifetime, including earlier runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriveHealth {
    /// Blocks permanently retired after failed erases, drive-wide.
    pub retired_blocks: u64,
    /// The drive's total bad-block spare budget
    /// (`spare_blocks_per_die × dies`).
    pub spare_blocks_total: u64,
    /// Retirements the drive can still absorb before its spares run out
    /// (`spare_blocks_total - retired_blocks`, floored at zero).
    pub spare_headroom: u64,
    /// Program-status failures absorbed this run by remapping the
    /// in-flight page to the next frontier slot.
    pub program_failures: u64,
    /// Erase-status failures this run; each one retired a block.
    pub erase_failures: u64,
    /// Reads left uncorrectable this run after the full read-retry and
    /// soft-decode ladder (completed as `MediaError`).
    pub media_errors: u64,
    /// Read-recovery outcomes this run: buckets 0–4 count reads resolved
    /// after that many retry levels, bucket 5 counts soft-decode
    /// fallbacks (corrected or not). All zeros when read faults are
    /// disabled — the ladder never runs.
    pub read_retry_histogram: [u64; 6],
    /// User writes completed as `DriveReadOnly` this run because the
    /// drive was read-only (see `read_only` for why).
    pub writes_rejected_read_only: u64,
    /// Whether the drive is in read-only graceful degradation: its spares
    /// ran out, or a die could no longer reclaim space (spares may remain).
    pub read_only: bool,
    /// Simulated time at which the drive transitioned to read-only during
    /// this run (`None` if it never did, or entered the run already
    /// read-only).
    pub read_only_since_ns: Option<u64>,
}

impl DriveHealth {
    /// Reads this run that needed recovery beyond the initial hard decode
    /// (at least one retry level, or the soft-decode fallback).
    pub fn recovered_reads(&self) -> u64 {
        self.read_retry_histogram[1..].iter().sum()
    }

    /// True if any fault event was recorded this run or the drive carries
    /// degradation state (retired blocks / read-only mode).
    pub fn any_events(&self) -> bool {
        self.retired_blocks != 0
            || self.program_failures != 0
            || self.erase_failures != 0
            || self.media_errors != 0
            || self.writes_rejected_read_only != 0
            || self.read_only
            || self.read_retry_histogram.iter().any(|&b| b != 0)
    }
}

/// One tenant's slice of a multi-tenant run, attributed by the host
/// interface's completion routing.
///
/// Latency here is **end-to-end**: submission-queue waiting time plus
/// device time, with the queueing component also recorded separately in
/// `queue_delay` — a tenant with a fast device but a starved queue shows
/// up as high end-to-end latency and high queue delay. All counters are
/// run-local, like every other report counter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantReport {
    /// Tenant name as registered on the host interface.
    pub name: String,
    /// Read requests completed for this tenant.
    pub reads_completed: u64,
    /// Write requests completed for this tenant.
    pub writes_completed: u64,
    /// End-to-end per-request latencies (queueing delay + device time).
    pub latency: LatencyRecorder,
    /// Per-request submission-queue delays (time between arrival at the
    /// host and submission to the device).
    pub queue_delay: LatencyRecorder,
    /// Requests the host submitted to the device for this tenant.
    pub submitted: u64,
    /// Arrivals dropped because the queue was full under a reject policy.
    pub rejected: u64,
    /// Arrivals that waited for a queue credit under backpressure (they
    /// enqueued later than they arrived).
    pub deferred: u64,
    /// Deepest the tenant's submission queue ever got.
    pub queue_depth_high_water: u64,
    /// Most requests the tenant ever had outstanding on the device.
    pub outstanding_high_water: u64,
}

impl TenantReport {
    /// Requests completed for this tenant (reads + writes).
    pub fn completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// The tenant's end-to-end p99 / p99.9 / p99.99 in one call.
    pub fn tails(&self) -> TailLatencies {
        self.latency.tails()
    }

    /// Mean end-to-end latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// Mean submission-queue delay in microseconds.
    pub fn mean_queue_delay_us(&self) -> f64 {
        self.queue_delay.mean() / 1_000.0
    }

    /// The tenant's completions per second over the run's makespan.
    pub fn iops(&self, makespan_ns: u64) -> f64 {
        if makespan_ns == 0 {
            return 0.0;
        }
        self.completed() as f64 / (makespan_ns as f64 / 1e9)
    }
}

/// Everything measured during one trace replay on a simulated SSD.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Erase scheme used for the run.
    pub scheme: String,
    /// Number of read requests completed.
    pub reads_completed: u64,
    /// Number of write requests completed.
    pub writes_completed: u64,
    /// Per-request read latencies.
    pub read_latency: LatencyRecorder,
    /// Per-request write latencies.
    pub write_latency: LatencyRecorder,
    /// Simulated time at which the last request completed, in nanoseconds.
    pub makespan_ns: u64,
    /// Statistics over every erase operation performed during the run.
    pub erase_stats: EraseStats,
    /// User pages programmed this run: each page of a multi-page write
    /// counts, garbage-collection migrations do not.
    pub user_pages_written: u64,
    /// Number of garbage-collection victim selections.
    pub gc_invocations: u64,
    /// Number of pages migrated by garbage collection.
    pub gc_page_moves: u64,
    /// Number of times an in-flight erase was suspended to let a user read
    /// through. This counts pause *transitions*: a burst of reads serviced
    /// within one inter-loop suspension window counts as one suspension.
    pub erase_suspensions: u64,
    /// Per-channel shared-bus accounting, one entry per channel.
    pub channel_stats: Vec<ChannelStats>,
    /// Drive-health telemetry: fault counts for this run and the drive's
    /// degradation state (retired blocks, spare headroom, read-only).
    pub health: DriveHealth,
    /// Per-tenant slices when the run was driven through a
    /// [`crate::host::HostInterface`], in tenant-registration order. Empty
    /// for single-stream sessions, so existing report comparisons are
    /// unaffected.
    pub tenants: Vec<TenantReport>,
}

impl RunReport {
    /// I/O operations per second over the makespan.
    pub fn iops(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        (self.reads_completed + self.writes_completed) as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Mean read latency in microseconds.
    pub fn mean_read_latency_us(&self) -> f64 {
        self.read_latency.mean() / 1_000.0
    }

    /// Mean write latency in microseconds.
    pub fn mean_write_latency_us(&self) -> f64 {
        self.write_latency.mean() / 1_000.0
    }

    /// Drive-wide read p99 / p99.9 / p99.99 in one call.
    pub fn read_tails(&self) -> TailLatencies {
        self.read_latency.tails()
    }

    /// Drive-wide write p99 / p99.9 / p99.99 in one call.
    pub fn write_tails(&self) -> TailLatencies {
        self.write_latency.tails()
    }

    /// Looks up a tenant slice by its registered name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Write amplification: page programs per user page written this run,
    /// `(user_pages_written + gc_page_moves) / user_pages_written` (1.0
    /// means no GC traffic, and for a run that wrote no user page).
    pub fn write_amplification(&self) -> f64 {
        if self.user_pages_written == 0 {
            return 1.0;
        }
        (self.user_pages_written + self.gc_page_moves) as f64 / self.user_pages_written as f64
    }

    /// Total number of times any transfer waited for a shared channel bus
    /// (reservation waits plus write dispatch deferrals). Zero on a drive
    /// with one chip per channel.
    pub fn transfer_waits(&self) -> u64 {
        self.channel_stats
            .iter()
            .map(|c| c.waited_transfers + c.write_deferrals)
            .sum()
    }

    /// Total time transfers spent waiting for a channel bus, in nanoseconds.
    pub fn transfer_wait_ns(&self) -> u64 {
        self.channel_stats.iter().map(|c| c.wait_ns).sum()
    }

    /// Per-channel bus utilization: fraction of the makespan each channel's
    /// bus was occupied by transfers. A zero-duration report (e.g. a
    /// [`crate::Simulation::snapshot`] taken before any request completed)
    /// yields 0.0 for every channel — never NaN, and never a vector shorter
    /// than the channel count.
    pub fn channel_utilization(&self) -> Vec<f64> {
        self.channel_stats
            .iter()
            .map(|c| {
                if self.makespan_ns == 0 {
                    0.0
                } else {
                    c.busy_ns as f64 / self.makespan_ns as f64
                }
            })
            .collect()
    }

    /// Mean bus utilization across all channels (0 when there are none).
    pub fn mean_channel_utilization(&self) -> f64 {
        let per_channel = self.channel_utilization();
        if per_channel.is_empty() {
            return 0.0;
        }
        per_channel.iter().sum::<f64>() / per_channel.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iops_and_write_amplification() {
        let mut r = RunReport {
            reads_completed: 500,
            writes_completed: 500,
            makespan_ns: 1_000_000_000,
            user_pages_written: 1_000,
            gc_page_moves: 250,
            ..RunReport::default()
        };
        r.read_latency.record(40_000);
        assert!((r.iops() - 1_000.0).abs() < 1e-9);
        assert!((r.write_amplification() - 1.25).abs() < 1e-12);
        assert!((r.mean_read_latency_us() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        assert_eq!(r.iops(), 0.0);
        assert_eq!(r.write_amplification(), 1.0);
        assert_eq!(r.transfer_waits(), 0);
        assert_eq!(r.transfer_wait_ns(), 0);
        assert!(r.channel_utilization().is_empty());
        assert_eq!(r.mean_channel_utilization(), 0.0);
    }

    /// Satellite regression: a zero-duration report that *does* have
    /// channels (a snapshot taken at the very start of a session, before
    /// any completion advanced the makespan) must report a 0.0 utilization
    /// per channel — not NaN, and not an empty vector that would break
    /// per-channel indexing.
    #[test]
    fn zero_duration_report_with_channels_yields_finite_zeros() {
        let r = RunReport {
            makespan_ns: 0,
            channel_stats: vec![
                ChannelStats {
                    transfers: 3,
                    busy_ns: 30_000,
                    ..ChannelStats::default()
                },
                ChannelStats::default(),
            ],
            ..RunReport::default()
        };
        let util = r.channel_utilization();
        assert_eq!(util, vec![0.0, 0.0]);
        assert_eq!(r.mean_channel_utilization(), 0.0);
        assert_eq!(r.iops(), 0.0);
        assert_eq!(r.mean_read_latency_us(), 0.0);
        assert_eq!(r.mean_write_latency_us(), 0.0);
        for helper in [
            r.iops(),
            r.mean_channel_utilization(),
            r.mean_read_latency_us(),
            r.write_amplification(),
        ] {
            assert!(helper.is_finite());
        }
    }

    #[test]
    fn tail_accessors_and_tenant_slices() {
        let mut r = RunReport::default();
        for i in 1..=1_000u64 {
            r.read_latency.record(i * 1_000);
        }
        let tails = r.read_tails();
        assert_eq!(tails.p99_ns, r.read_latency.percentile(99.0));
        assert_eq!(tails.p99_99_ns, r.read_latency.percentile(99.99));
        assert_eq!(r.write_tails(), TailLatencies::default());

        // Empty tenant vector keeps default comparisons and lookups safe.
        assert!(r.tenants.is_empty());
        assert!(r.tenant("reader").is_none());

        let mut tr = TenantReport {
            name: "reader".to_string(),
            reads_completed: 3,
            writes_completed: 1,
            submitted: 4,
            ..TenantReport::default()
        };
        tr.latency.record(10_000);
        tr.queue_delay.record(2_000);
        assert_eq!(tr.completed(), 4);
        assert!((tr.mean_latency_us() - 10.0).abs() < 1e-9);
        assert!((tr.mean_queue_delay_us() - 2.0).abs() < 1e-9);
        assert!((tr.iops(1_000_000_000) - 4.0).abs() < 1e-9);
        assert_eq!(tr.iops(0), 0.0);
        r.tenants.push(tr);
        assert_eq!(r.tenant("reader").map(|t| t.completed()), Some(4));
    }

    #[test]
    fn default_health_is_clean() {
        let h = DriveHealth::default();
        assert_eq!(h.retired_blocks, 0);
        assert_eq!(h.spare_headroom, 0);
        assert!(!h.read_only);
        assert_eq!(h.read_only_since_ns, None);
        assert_eq!(h.recovered_reads(), 0);
        assert!(!h.any_events());
        // A report's default health is clean too, so fault-free report
        // comparisons are unaffected by the telemetry field.
        assert!(!RunReport::default().health.any_events());
    }

    #[test]
    fn health_helpers_count_degraded_reads() {
        let h = DriveHealth {
            read_retry_histogram: [100, 7, 3, 1, 1, 2],
            media_errors: 1,
            ..DriveHealth::default()
        };
        assert_eq!(h.recovered_reads(), 14);
        assert!(h.any_events());
        let ro = DriveHealth {
            read_only: true,
            ..DriveHealth::default()
        };
        assert!(ro.any_events());
    }

    #[test]
    fn channel_helpers_aggregate_per_channel_stats() {
        let r = RunReport {
            makespan_ns: 1_000_000,
            channel_stats: vec![
                ChannelStats {
                    transfers: 10,
                    busy_ns: 250_000,
                    waited_transfers: 3,
                    wait_ns: 40_000,
                    write_deferrals: 2,
                },
                ChannelStats {
                    transfers: 5,
                    busy_ns: 750_000,
                    waited_transfers: 0,
                    wait_ns: 0,
                    write_deferrals: 0,
                },
            ],
            ..RunReport::default()
        };
        assert_eq!(r.transfer_waits(), 5);
        assert_eq!(r.transfer_wait_ns(), 40_000);
        let util = r.channel_utilization();
        assert!((util[0] - 0.25).abs() < 1e-12);
        assert!((util[1] - 0.75).abs() < 1e-12);
        assert!((r.mean_channel_utilization() - 0.5).abs() < 1e-12);
    }
}
