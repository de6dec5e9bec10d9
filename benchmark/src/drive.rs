//! Drive set-up and windowed session replay, shared by the workloads that
//! run an `aero_ssd` session.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use aero_ssd::{RunReport, Simulation, Ssd, SsdConfig};
use aero_workloads::WorkloadSource;

use crate::clock::now_ns;
use crate::common::PullStats;
use crate::trace::Tracer;

/// Host time of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Ssd::new`.
    pub new_ns: u64,
    /// `Ssd::precondition_wear`.
    pub precondition_ns: u64,
    /// `Ssd::fill_fraction`.
    pub fill_ns: u64,
}

impl SetupTimes {
    /// All three steps.
    pub fn total_ns(&self) -> u64 {
        self.new_ns + self.precondition_ns + self.fill_ns
    }
}

/// Runs `step` inside a span named `name` (when tracing) and returns its
/// result with its host duration.
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    step: impl FnOnce() -> R,
) -> (R, u64) {
    if let Some(t) = tracer.as_deref_mut() {
        t.enter(name);
    }
    let start = now_ns();
    let out = step();
    let ns = now_ns() - start;
    if let Some(t) = tracer.as_deref_mut() {
        t.exit();
    }
    (out, ns)
}

/// Builds the drive, pre-ages every block to `pec` cycles and fills
/// `fill` of its logical space: everything before the first simulated
/// operation.
pub fn build_drive(
    config: SsdConfig,
    pec: u32,
    fill: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Ssd, SetupTimes) {
    let (mut ssd, new_ns) = timed(&mut tracer, "setup.new", || Ssd::new(config));
    let ((), precondition_ns) = timed(&mut tracer, "setup.precondition", || {
        ssd.precondition_wear(pec)
    });
    let ((), fill_ns) = timed(&mut tracer, "setup.fill", || ssd.fill_fraction(fill));
    (
        ssd,
        SetupTimes {
            new_ns,
            precondition_ns,
            fill_ns,
        },
    )
}

/// What a windowed replay produced besides the report.
#[derive(Debug, Default)]
pub struct Windows {
    /// Events the session processed (sum of `run_until` returns).
    pub events: u64,
    /// Telemetry polls taken.
    pub polls: u64,
    /// Digest of every poll's counters and p99.9 read latency.
    pub poll_digest: u64,
    /// Per window: session self nanoseconds per event (traced only).
    pub ns_per_event: Vec<f64>,
}

/// Advances `sim` in `window_ns` windows of simulated time, polling a
/// counter-only snapshot plus the borrowed read p99.9 after each (the
/// telemetry loop a long study runs), then drains it. With a tracer, each
/// window, the source pulls inside it (from `pulls`), each poll and the
/// final `run_to_end` get spans.
pub fn replay_windows<S: WorkloadSource>(
    mut sim: Simulation<'_, S>,
    window_ns: u64,
    mut tracer: Option<&mut Tracer>,
    pulls: Option<&PullStats>,
) -> (RunReport, Windows) {
    let mut out = Windows::default();
    let mut h = DefaultHasher::new();
    loop {
        let target = sim.now().saturating_add(window_ns);
        let pulled_before = pulls.map_or(0, |p| p.ns.get());
        let requests_before = pulls.map_or(0, |p| p.requests.get());
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("session.window");
        }
        let start = now_ns();
        let events = sim.run_until(target);
        let window_host_ns = now_ns() - start;
        if let Some(t) = tracer.as_deref_mut() {
            let pulled = pulls.map_or(0, |p| p.ns.get() - pulled_before);
            if let Some(p) = pulls {
                t.aggregate("synth.pull", pulled, p.requests.get() - requests_before);
            }
            t.exit();
            if events > 0 {
                out.ns_per_event
                    .push(window_host_ns.saturating_sub(pulled) as f64 / events as f64);
            }
        }
        out.events += events;
        let (poll, _) = timed(&mut tracer, "latency.poll", || {
            let snap = sim.snapshot_shell();
            (
                snap.reads_completed + snap.writes_completed,
                snap.gc_invocations,
                snap.erase_stats.operations,
                sim.read_latency().percentile(99.9),
            )
        });
        poll.hash(&mut h);
        out.polls += 1;
        if sim.is_finished() {
            break;
        }
    }
    let (report, _) = timed(&mut tracer, "latency.report", || sim.run_to_end());
    out.poll_digest = h.finish();
    (report, out)
}
