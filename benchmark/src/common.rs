//! Pieces every workload shares: the batch result, the timed request source,
//! the counting observer, the report digest, and small statistics helpers.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use aero_ssd::session::{CompletedRequest, EraseEvent, GcEvent, PageWriteEvent, SimObserver};
use aero_ssd::{LatencyRecorder, RunReport};
use aero_workloads::{IoRequest, SyntheticStream, WorkloadSource};

use crate::clock::now_ns;

/// Deterministic work counters of one batch, by name.
pub type Counters = BTreeMap<&'static str, u64>;

/// Everything one batch of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Operations attempted: simulated requests, or erases for the lifetime
    /// study.
    pub ops: u64,
    /// Host nanoseconds of set-up, summed over the batch's jobs.
    pub setup_ns: u64,
    /// Host nanoseconds after set-up, summed over the batch's jobs.
    pub replay_ns: u64,
    /// Host wall nanoseconds of the whole batch, set-up included.
    pub wall_ns: u64,
    /// Digest of every simulated statistic the batch produced.
    pub digest: u64,
    /// Deterministic work counters.
    pub counters: Counters,
    /// Host nanoseconds of each separately timed part, set-up included,
    /// where the batch is timed in parts (the studies of
    /// `lifetime_fig13`); empty where it is timed whole.
    pub parts_ns: Vec<u64>,
}

/// SplitMix64: derives independent seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host time spent pulling requests, shared between a [`BurstSource`] and
/// the tracer that reads it between windows.
#[derive(Debug, Default)]
pub struct PullStats {
    /// Nanoseconds spent generating requests.
    pub ns: Cell<u64>,
    /// Requests handed out.
    pub requests: Cell<u64>,
}

/// Requests per refill, as in `aero_workloads::IterSource`.
const BURST: usize = 256;

/// A [`WorkloadSource`] over a bounded [`SyntheticStream`] that refills in
/// bursts exactly like `IterSource` (so it yields the identical request
/// sequence) and times each burst of `SyntheticStream::next` calls: one
/// clock pair per 256 requests instead of per request.
pub struct BurstSource<'a> {
    stream: SyntheticStream,
    left: u64,
    buffer: Vec<IoRequest>,
    next: usize,
    stats: &'a PullStats,
}

impl<'a> BurstSource<'a> {
    /// The first `requests` requests of `stream`.
    pub fn new(stream: SyntheticStream, requests: u64, stats: &'a PullStats) -> Self {
        BurstSource {
            stream,
            left: requests,
            buffer: Vec::with_capacity(BURST),
            next: 0,
            stats,
        }
    }
}

impl WorkloadSource for BurstSource<'_> {
    fn next_request(&mut self) -> Option<IoRequest> {
        if self.next >= self.buffer.len() {
            if self.left == 0 {
                return None;
            }
            let start = now_ns();
            self.buffer.clear();
            self.next = 0;
            let take = self.left.min(BURST as u64);
            self.buffer.extend((&mut self.stream).take(take as usize));
            self.left -= take;
            self.stats.ns.set(self.stats.ns.get() + now_ns() - start);
        }
        let request = self.buffer[self.next];
        self.next += 1;
        self.stats.requests.set(self.stats.requests.get() + 1);
        Some(request)
    }
}

/// Counts what the session reports through its observer hooks. Used on a
/// separate, untimed verification pass so the timed passes carry no
/// observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingObserver {
    /// Completed requests.
    pub completions: u64,
    /// User page programs.
    pub user_pages: u64,
    /// Garbage-collection page programs.
    pub gc_pages: u64,
    /// Garbage-collection invocations.
    pub gc_invocations: u64,
    /// Erases that finished.
    pub erases: u64,
    /// Erase loops across those erases.
    pub erase_loops: u64,
}

impl SimObserver for CountingObserver {
    fn on_request_complete(&mut self, _request: &CompletedRequest) {
        self.completions += 1;
    }

    fn on_erase_complete(&mut self, erase: &EraseEvent) {
        self.erases += 1;
        self.erase_loops += erase.loops as u64;
    }

    fn on_gc_invoked(&mut self, _gc: &GcEvent) {
        self.gc_invocations += 1;
    }

    fn on_page_write(&mut self, write: &PageWriteEvent) {
        if write.gc {
            self.gc_pages += 1;
        } else {
            self.user_pages += 1;
        }
    }
}

/// Hashes a latency recorder: count, mean, max and the percentile ladder.
fn hash_latency(latency: &LatencyRecorder, h: &mut DefaultHasher) {
    latency.len().hash(h);
    latency.mean().to_bits().hash(h);
    latency.max().hash(h);
    for p in [10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 99.9999] {
        latency.percentile(p).hash(h);
    }
}

/// Hashes every simulated statistic of a report into `h`: counts, GC and
/// erase statistics, the channel, health and tenant slices, and both
/// latency distributions.
pub fn hash_report(r: &RunReport, h: &mut DefaultHasher) {
    r.scheme.hash(h);
    r.reads_completed.hash(h);
    r.writes_completed.hash(h);
    r.makespan_ns.hash(h);
    r.gc_invocations.hash(h);
    r.gc_page_moves.hash(h);
    r.erase_suspensions.hash(h);
    let e = &r.erase_stats;
    e.operations.hash(h);
    e.loops.hash(h);
    e.total_latency.as_nanos().hash(h);
    e.total_stress.to_bits().hash(h);
    e.partial_erases.hash(h);
    e.complete_erases.hash(h);
    e.loop_histogram.hash(h);
    e.max_latency.as_nanos().hash(h);
    for c in &r.channel_stats {
        c.transfers.hash(h);
        c.busy_ns.hash(h);
        c.waited_transfers.hash(h);
        c.wait_ns.hash(h);
        c.write_deferrals.hash(h);
    }
    let d = &r.health;
    d.retired_blocks.hash(h);
    d.spare_blocks_total.hash(h);
    d.spare_headroom.hash(h);
    d.program_failures.hash(h);
    d.erase_failures.hash(h);
    d.media_errors.hash(h);
    d.read_retry_histogram.hash(h);
    d.writes_rejected_read_only.hash(h);
    d.read_only.hash(h);
    d.read_only_since_ns.hash(h);
    for t in &r.tenants {
        t.name.hash(h);
        t.reads_completed.hash(h);
        t.writes_completed.hash(h);
        t.submitted.hash(h);
        t.rejected.hash(h);
        t.deferred.hash(h);
        t.queue_depth_high_water.hash(h);
        t.outstanding_high_water.hash(h);
        hash_latency(&t.latency, h);
        hash_latency(&t.queue_delay, h);
    }
    hash_latency(&r.read_latency, h);
    hash_latency(&r.write_latency, h);
}

/// Digest of a sequence of reports.
pub fn digest_reports<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> u64 {
    let mut h = DefaultHasher::new();
    for r in reports {
        hash_report(r, &mut h);
    }
    h.finish()
}

/// The device-side work counters of a report, plus the drive's user-page
/// delta over the run.
pub fn report_counters(r: &RunReport, user_pages: u64) -> Counters {
    let mut c = Counters::new();
    c.insert("requests", r.reads_completed + r.writes_completed);
    c.insert("user_pages", user_pages);
    c.insert("gc_pages", r.gc_page_moves);
    c.insert("gc_invocations", r.gc_invocations);
    c.insert("erases", r.erase_stats.operations);
    c.insert("erase_loops", r.erase_stats.loops);
    c.insert("erase_sim_ns", r.erase_stats.total_latency.as_nanos());
    c.insert("suspensions", r.erase_suspensions);
    c.insert(
        "transfers",
        r.channel_stats.iter().map(|ch| ch.transfers).sum(),
    );
    c.insert(
        "waited_transfers",
        r.channel_stats.iter().map(|ch| ch.waited_transfers).sum(),
    );
    c.insert(
        "channel_busy_ns",
        r.channel_stats.iter().map(|ch| ch.busy_ns).sum(),
    );
    c.insert("channels", r.channel_stats.len() as u64);
    c.insert("makespan_ns", r.makespan_ns);
    c.insert("program_failures", r.health.program_failures);
    c.insert("erase_failures", r.health.erase_failures);
    c.insert("retired_blocks", r.health.retired_blocks);
    c.insert("recovered_reads", r.health.recovered_reads());
    c.insert("media_errors", r.health.media_errors);
    c.insert(
        "samples_held",
        (r.read_latency.len() + r.write_latency.len()) as u64,
    );
    c
}

/// Median of a sample (the mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail the benchmark reports for a small sample (tens of windows or
/// jobs): its 90th percentile.
pub fn tail(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_workloads::{IterSource, SyntheticWorkload};

    #[test]
    fn burst_source_yields_the_iter_source_sequence() {
        let w = SyntheticWorkload::default_test();
        let stats = PullStats::default();
        let mut burst = BurstSource::new(w.stream(3), 1_000, &stats);
        let mut iter = IterSource::new(w.stream(3).take(1_000));
        loop {
            let (a, b) = (burst.next_request(), iter.next_request());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(stats.requests.get(), 1_000);
    }

    #[test]
    fn quantiles_and_tails() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(median(&v), 11.0);
        assert_eq!(tail(&v), 19.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }
}
