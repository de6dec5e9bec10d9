//! The streaming simulation session: steppable, observable, source-driven.
//!
//! A [`Simulation`] replaces the old monolithic batch replay with a
//! **session object** that owns the run while borrowing the drive. It pulls
//! requests from any [`WorkloadSource`] — an in-memory trace, a lazy
//! synthetic stream, a line-by-line MSRC parser — so run length is bounded
//! by simulated work, not by workload-in-RAM, and it exposes the run as it
//! unfolds:
//!
//! * [`Simulation::step`] processes exactly one event (a request arrival or
//!   a die wake-up);
//! * [`Simulation::run_until`] advances simulated time to a target
//!   nanosecond, enabling warm-up/measurement-window splits;
//! * [`Simulation::run_to_end`] drains source and drive and returns the
//!   final [`RunReport`];
//! * [`Simulation::snapshot`] measures an interim run-local [`RunReport`]
//!   at any point (erase statistics via [`aero_core::EraseStats::diff`]);
//! * [`SimObserver`] hooks fire on request completion, erase completion,
//!   and garbage-collection invocation, so instrumentation no longer
//!   requires editing the event loop.
//!
//! Per-request completion state lives in an **in-flight map** keyed by
//! request id rather than a trace-length vector, so memory scales with
//! concurrent requests, not replayed requests: a 10-million-request
//! streamed run holds only the handful of requests currently inside the
//! drive.
//!
//! The event loop itself is the one the batch API always ran — per-die
//! queues with user reads first, then resuming erases, user writes,
//! garbage-collection traffic, and new erases; loop-granular erase
//! suspension; shared channel buses — so [`Ssd::run_trace`], now a thin
//! wrapper over a session, reproduces every measurement of the former
//! batch implementation exactly (counts, makespan, means, maxima, the full
//! percentile ladder, erase/GC/channel accounting). One representational
//! difference: latency samples are recorded when each request completes
//! rather than in an end-of-run pass, so they arrive in completion order,
//! not trace order. Recorders keep no recording order (they are
//! histograms of counts), so this is invisible to every published
//! statistic and to `RunReport` comparisons.
//!
//! ```
//! use aero_core::SchemeKind;
//! use aero_ssd::{Ssd, SsdConfig};
//! use aero_workloads::{IterSource, SyntheticWorkload};
//!
//! let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
//! ssd.fill_fraction(0.5);
//! let workload = SyntheticWorkload::default_test();
//! let mut sim = ssd.session(IterSource::new(workload.stream(7).take(5_000)));
//! // Warm up for 100 simulated milliseconds, then measure the rest.
//! sim.run_until(100_000_000);
//! let warmup = sim.snapshot();
//! let total = sim.run_to_end();
//! assert!(total.reads_completed + total.writes_completed >= warmup.reads_completed);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use std::collections::{BTreeMap, VecDeque};

use aero_nand::geometry::PageAddr;
use aero_nand::timing::Micros;
use aero_nand::{recover_read, RetentionSpec};
use aero_workloads::request::{IoOp, IoRequest};
use aero_workloads::source::WorkloadSource;

use crate::audit::{record, AuditReport, Auditor, Invariant, Violation};
use crate::ftl::Ppa;
use crate::latency::LatencyRecorder;
use crate::report::{ChannelStats, DriveHealth, RunReport};
use crate::ssd::{DriveCounters, EraseJob, PageTxn, PlacedWrite, Ssd};

/// How a request completed: normally, or degraded through the drive's
/// fault-recovery path. Requests complete — they are never silently
/// dropped — but a degraded status tells the host what it actually got.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CompletionStatus {
    /// Every page of the request completed normally.
    Ok,
    /// The drive is in read-only graceful degradation: the write was
    /// acknowledged (its host transfer happened) but nothing was
    /// programmed.
    DriveReadOnly,
    /// At least one read page remained uncorrectable after the full
    /// read-retry/soft-decode ladder; its data is lost.
    MediaError,
}

/// A request that just completed, as seen by [`SimObserver`] hooks.
#[derive(Debug, Clone, Copy)]
pub struct CompletedRequest {
    /// Session-wide request id (unique across every session on the drive).
    pub id: u64,
    /// Read or write.
    pub op: IoOp,
    /// When the request arrived, in simulated nanoseconds.
    pub arrival_ns: u64,
    /// When its last page finished, in simulated nanoseconds.
    pub completed_at: u64,
    /// End-to-end latency (`completed_at - arrival_ns`).
    pub latency_ns: u64,
    /// How the request completed (the worst status among its pages).
    pub status: CompletionStatus,
}

/// An erase operation that just finished paying its simulated time.
#[derive(Debug, Clone, Copy)]
pub struct EraseEvent {
    /// Die the erase ran on.
    pub die: usize,
    /// Block that was erased.
    pub block: u32,
    /// Number of erase loops the scheme decided (and the die paid).
    pub loops: usize,
    /// Total simulated erase time across all loops, in nanoseconds.
    pub latency_ns: u64,
    /// Simulated time at which the erase finished.
    pub completed_at: u64,
}

/// One physical page program (user write or garbage-collection rewrite),
/// as seen by [`SimObserver`] hooks and the audit oracle.
#[derive(Debug, Clone, Copy)]
pub struct PageWriteEvent {
    /// Die the page was programmed on.
    pub die: usize,
    /// Logical page number written.
    pub lpn: u64,
    /// Physical location the page landed on.
    pub ppa: Ppa,
    /// The logical page's previous location, now invalidated (`None` for a
    /// first write).
    pub previous: Option<Ppa>,
    /// True for a garbage-collection migration, false for a user write.
    pub gc: bool,
    /// Simulated time of the dispatch that placed the page.
    pub at: u64,
}

/// A garbage-collection invocation (victim selection) that just started.
#[derive(Debug, Clone, Copy)]
pub struct GcEvent {
    /// Die garbage collection started on.
    pub die: usize,
    /// The victim block chosen for collection.
    pub victim_block: u32,
    /// Number of valid pages that will be migrated off the victim.
    pub page_moves: usize,
    /// Simulated time at which the invocation happened.
    pub at: u64,
}

/// Instrumentation hooks into a running [`Simulation`].
///
/// Register observers with [`Simulation::add_observer`] (or the builder
/// form [`Simulation::with_observer`]); every hook has a no-op default, so
/// an observer implements only what it cares about. Hooks run synchronously
/// inside the event loop in registration order. Events fire in **dispatch
/// order**: a completion fires the moment the request's last page is
/// dispatched (when its `completed_at` becomes known), which — with several
/// dies completing work concurrently — is not necessarily sorted by
/// `completed_at`. Observers must not assume anything about the drive
/// beyond what the event structs carry.
///
/// ```
/// use aero_ssd::session::{CompletedRequest, SimObserver};
///
/// #[derive(Default)]
/// struct TailWatch {
///     over_10ms: u64,
/// }
///
/// impl SimObserver for TailWatch {
///     fn on_request_complete(&mut self, request: &CompletedRequest) {
///         if request.latency_ns > 10_000_000 {
///             self.over_10ms += 1;
///         }
///     }
/// }
/// ```
pub trait SimObserver {
    /// A user request completed (its last page finished).
    fn on_request_complete(&mut self, _request: &CompletedRequest) {}

    /// An erase operation finished paying its simulated time.
    fn on_erase_complete(&mut self, _erase: &EraseEvent) {}

    /// Garbage collection was invoked (a victim block was selected).
    fn on_gc_invoked(&mut self, _gc: &GcEvent) {}

    /// A physical page was programmed (user write or GC rewrite), with its
    /// placement and the location it invalidated.
    fn on_page_write(&mut self, _write: &PageWriteEvent) {}
}

/// Sentinel for "no value" in the scheduler's `u64` arrays
/// (`next_wake`, `write_deferred_at`).
const NONE_NS: u64 = u64::MAX;

/// Per-die scheduler hot state in struct-of-arrays layout, owned by the
/// session.
///
/// The event loop touches `busy_until`, `next_wake`, the write-deferral
/// stamp, and the cached program-latency scale on every dispatch. Keeping
/// them as four flat arrays (plus the precomputed die→channel map) means
/// the whole scheduler state of a 16-die drive spans a handful of cache
/// lines, instead of being scattered across the drive's much larger
/// per-die structs (chip model, FTL, reverse map). The fields are per-run
/// state — every session starts them from zero — so session ownership also
/// makes stale-clock leakage between back-to-back runs structurally
/// impossible.
///
/// `next_wake` doubles as the session's **wake-up calendar**: it is the
/// authoritative pending wake-up per die (`NONE_NS` = idle), with a cached
/// global minimum. This replaces the former binary heap of `(time, die)`
/// events:
///
/// * scheduling is a compare-and-store plus a compare against the cached
///   minimum — no allocation, no sift-up;
/// * popping clears the die's slot and recomputes the minimum with one
///   branch-free argmin pass over `next_wake` (idle dies hold `NONE_NS`,
///   so they never win; ascending die order with a strict comparison
///   breaks ties toward the lowest die index exactly as the heap did);
/// * the stale entries the heap accumulated (a die whose wake-up moved
///   earlier left its old entry behind, to be dispatched as a no-op) can
///   no longer exist, so every popped event is live work.
struct DieSched {
    /// Simulated time until which each die's array is occupied.
    busy_until: Vec<u64>,
    /// Authoritative pending wake-up per die (`NONE_NS` = none). The
    /// calendar key: the next die event is the minimum of this array.
    next_wake: Vec<u64>,
    /// When the head of each die's write queue was first deferred because
    /// its channel bus was busy (`NONE_NS` = not deferred). The accumulated
    /// wait is charged to the channel once, when the write transfers.
    write_deferred_at: Vec<u64>,
    /// Mirror of each die's cached `program_scale`, refreshed whenever the
    /// drive refreshes the authoritative copy (an erase changed wear).
    program_scale: Vec<f64>,
    /// Precomputed die → channel index map.
    channel: Vec<u32>,
    /// Cached earliest pending wake-up as `(time, die)`, or
    /// `(NONE_NS, u32::MAX)` when every die is idle.
    wake_min: (u64, u32),
}

impl DieSched {
    fn new(ssd: &Ssd) -> DieSched {
        let dies = ssd.dies.len();
        DieSched {
            busy_until: vec![0; dies],
            next_wake: vec![NONE_NS; dies],
            write_deferred_at: vec![NONE_NS; dies],
            program_scale: ssd.dies.iter().map(|d| d.program_scale).collect(),
            channel: (0..dies).map(|d| ssd.channel_of(d) as u32).collect(),
            wake_min: (NONE_NS, u32::MAX),
        }
    }

    /// Schedules a wake-up for a die at absolute time `at`, keeping only
    /// the earliest pending wake-up per die. A strictly earlier wake-up
    /// always replaces the pending one, so a channel-busy deferral can
    /// never delay newly arrived higher-priority work.
    #[inline]
    fn schedule(&mut self, die: usize, at: u64) {
        if at < self.next_wake[die] {
            self.next_wake[die] = at;
            if (at, die as u32) < self.wake_min {
                self.wake_min = (at, die as u32);
            }
        }
    }

    /// The earliest pending wake-up, or `None` when every die is idle.
    #[inline]
    fn peek(&self) -> Option<(u64, usize)> {
        let (at, die) = self.wake_min;
        (at != NONE_NS).then_some((at, die as usize))
    }

    /// Consumes the earliest pending wake-up (callers peeked first) and
    /// re-derives the next minimum with one argmin pass over every die.
    #[inline]
    fn pop(&mut self) {
        self.next_wake[self.wake_min.1 as usize] = NONE_NS;
        let (mut best_at, mut best_die) = (NONE_NS, u32::MAX);
        for (die, &at) in self.next_wake.iter().enumerate() {
            // Ascending die order with a strict comparison reproduces the
            // heap's `(time, die)` tie-break exactly. Selects, not a
            // branch: which die is earlier is data-dependent.
            let earlier = at < best_at;
            best_at = if earlier { at } else { best_at };
            best_die = if earlier { die as u32 } else { best_die };
        }
        self.wake_min = (best_at, best_die);
    }
}

/// Outcome of one bounded scheduling decision in the merged
/// step/run-until loop.
#[derive(PartialEq, Eq)]
enum StepOutcome {
    /// One event was processed and the clock advanced to it.
    Processed,
    /// The next event lies beyond the caller's time bound; nothing ran.
    Beyond,
    /// Source drained and no wake-ups pending; nothing will ever run.
    Finished,
}

/// Completion tracking for one in-flight request.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    arrival_ns: u64,
    op: IoOp,
    remaining_pages: u32,
    completed_at: u64,
    /// Worst per-page completion status seen so far (`Ord`: `Ok` <
    /// `DriveReadOnly` < `MediaError`).
    status: CompletionStatus,
    /// Tenant the request is attributed to (0 for single-stream sessions,
    /// which keep no host completion log, so the value is never read).
    tenant: u16,
    /// Time the request spent in its host submission queue before the
    /// session saw it (0 for single-stream sessions). `arrival_ns` is the
    /// submission time, so end-to-end latency is device latency plus this.
    queued_ns: u64,
}

/// A finished request that came in through
/// [`crate::host::HostInterface`], as logged for its pump to drain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostCompletion {
    /// When the request's last page finished.
    pub(crate) completed_at: u64,
    /// The tenant's index on the host interface.
    pub(crate) tenant: u16,
    pub(crate) op: IoOp,
    /// Submission to completion.
    pub(crate) device_ns: u64,
    /// Arrival at the host to submission.
    pub(crate) queued_ns: u64,
}

/// A streaming simulation run over a borrowed [`Ssd`].
///
/// Created by [`Ssd::session`]; see the [module docs](crate::session) for
/// the API tour. Dropping a session mid-run is allowed: the drive keeps its
/// (partially processed) state, and the next session starts a fresh
/// timeline — leftover internal work (queued GC migrations, an undecided
/// erase) is resumed at the new session's time zero, while page
/// transactions belonging to the abandoned session's requests drain
/// harmlessly (their ids are unique per session, so they can never complete
/// a later session's requests).
pub struct Simulation<'a, S> {
    ssd: &'a mut Ssd,
    source: S,
    /// One request of lookahead from the source (`None` + `exhausted` =
    /// drained).
    lookahead: Option<IoRequest>,
    exhausted: bool,
    /// Arrival time of the most recently pulled request, for contract
    /// checking (sources must yield non-decreasing arrivals).
    last_arrival_ns: u64,
    /// Per-die scheduler hot state and the wake-up calendar (see
    /// [`DieSched`]): at most one pending wake-up per die, earliest-first.
    sched: DieSched,
    /// Per-request completion state: a dense slab where slot `i` holds the
    /// request with id `in_flight_base + i` (`None` once completed). Ids
    /// are handed out sequentially, so lookup is a subtraction instead of a
    /// hash — this sits on the per-page hot path. Completed leading slots
    /// are popped eagerly, so the deque spans only the window between the
    /// oldest incomplete request and the newest admitted one.
    in_flight: VecDeque<Option<InFlight>>,
    /// Request id of slot 0 of `in_flight`.
    in_flight_base: u64,
    /// Number of `Some` entries in `in_flight`.
    in_flight_live: usize,
    observers: Vec<&'a mut dyn SimObserver>,
    /// Optional attached auditor: receives page-write/erase events for its
    /// shadow oracle and runs full invariant checkpoints on its cadence.
    auditor: Option<&'a mut Auditor>,
    now: u64,
    page_bytes: u32,
    // Run-local measurement accumulators.
    scheme: String,
    reads_completed: u64,
    writes_completed: u64,
    read_latency: LatencyRecorder,
    write_latency: LatencyRecorder,
    makespan_ns: u64,
    baseline_erase_stats: aero_core::EraseStats,
    baseline_counters: DriveCounters,
    /// Largest single-erase latency decided during *this* run (the
    /// lifetime maximum in `EraseStats` is not subtractable, so the
    /// session tracks the run-local maximum directly).
    run_max_erase_latency: Micros,
    /// Simulated time at which the drive transitioned to read-only during
    /// this run (`None` if it never did, or already was at session start).
    read_only_since_ns: Option<u64>,
    /// Log of finished host requests, which the host interface drains to
    /// attribute them and to learn when device slots free up. `None` until
    /// the first [`Simulation::admit_from_host`], so single-stream sessions
    /// log nothing. Entries are logged at dispatch time (when
    /// `completed_at` becomes known), which always precedes the completion
    /// itself.
    host_completions: Option<Vec<HostCompletion>>,
}

impl<'a, S: WorkloadSource> Simulation<'a, S> {
    /// Opens a session: resets per-run scheduler state, snapshots the
    /// baselines that make reports run-local, and re-arms any die left with
    /// internal work by an abandoned earlier session.
    pub(crate) fn new(ssd: &'a mut Ssd, source: S) -> Self {
        ssd.begin_run();
        let page_bytes = ssd.config.family.geometry.page_size_bytes;
        let scheme = ssd.config.scheme.label().to_string();
        let baseline_erase_stats = ssd.controller.stats().clone();
        let baseline_counters = ssd.counters;
        let in_flight_base = ssd.next_request_id;
        let sched = DieSched::new(ssd);
        let mut sim = Simulation {
            ssd,
            source,
            lookahead: None,
            exhausted: false,
            last_arrival_ns: 0,
            sched,
            in_flight: VecDeque::new(),
            in_flight_base,
            in_flight_live: 0,
            observers: Vec::new(),
            auditor: None,
            now: 0,
            page_bytes,
            scheme,
            reads_completed: 0,
            writes_completed: 0,
            read_latency: LatencyRecorder::new(),
            write_latency: LatencyRecorder::new(),
            makespan_ns: 0,
            baseline_erase_stats,
            baseline_counters,
            run_max_erase_latency: Micros::ZERO,
            read_only_since_ns: None,
            host_completions: None,
        };
        // A completed run always drains every queue, so this only fires for
        // dies an abandoned session left mid-work; their internal traffic
        // resumes at the new timeline's t=0.
        for die_idx in 0..sim.ssd.dies.len() {
            if sim.ssd.dies[die_idx].has_work() {
                sim.sched.schedule(die_idx, 0);
            }
        }
        sim
    }

    /// Registers an observer for the rest of the run.
    pub fn add_observer(&mut self, observer: &'a mut dyn SimObserver) {
        self.observers.push(observer);
    }

    /// Builder-style [`Simulation::add_observer`].
    #[must_use]
    pub fn with_observer(mut self, observer: &'a mut dyn SimObserver) -> Self {
        self.add_observer(observer);
        self
    }

    /// Attaches an [`Auditor`] for the rest of the run. The session feeds
    /// it every page write and erase (keeping its shadow oracle current)
    /// and runs a full invariant checkpoint on the auditor's cadence.
    /// Reusing one auditor across back-to-back sessions on a drive keeps
    /// oracle continuity; at most one auditor can be attached.
    pub fn attach_auditor(&mut self, auditor: &'a mut Auditor) {
        assert!(
            self.auditor.is_none(),
            "a session can carry at most one auditor"
        );
        self.auditor = Some(auditor);
    }

    /// Builder-style [`Simulation::attach_auditor`].
    #[must_use]
    pub fn with_auditor(mut self, auditor: &'a mut Auditor) -> Self {
        self.attach_auditor(auditor);
        self
    }

    /// True once the attached auditor has recorded at least one violation
    /// (always false when no auditor is attached). Lets a driver stop a
    /// run at the first divergence instead of burying it under thousands
    /// of follow-on events.
    pub fn audit_failed(&self) -> bool {
        self.auditor.as_deref().is_some_and(|a| !a.is_clean())
    }

    /// Audits the run right now: every drive-level invariant
    /// ([`Ssd::audit`]), the session-level invariants (in-flight request
    /// accounting, per-die scheduler clocks), and — when an auditor with a
    /// shadow oracle is attached — the oracle comparison. Returns the
    /// violations found by *this* pass; violations the attached auditor
    /// accumulated earlier are not repeated.
    pub fn audit(&mut self) -> AuditReport {
        let mut violations = Vec::new();
        self.ssd.collect_drive_violations(&mut violations);
        self.collect_session_violations(&mut violations);
        if let Some(auditor) = self.auditor.as_deref_mut() {
            if let Some(oracle) = auditor.oracle.as_mut() {
                oracle.verify(self.ssd, &mut violations);
            }
        }
        AuditReport { violations }
    }

    /// Forwards a deliberate FTL corruption to the borrowed drive. Test
    /// support only (see [`Ssd::debug_corrupt`]): lets the scenario driver
    /// prove mid-run that the auditor catches corruption.
    #[doc(hidden)]
    pub fn debug_corrupt(&mut self, kind: crate::audit::CorruptionKind) {
        self.ssd.debug_corrupt(kind);
    }

    /// Session-level invariants: the in-flight slab is dense and
    /// internally consistent, queued page transactions reference live
    /// requests with matching page counts, and per-die scheduler clocks
    /// are coherent (work pending ⇒ wake-up scheduled, never in the past).
    fn collect_session_violations(&self, out: &mut Vec<Violation>) {
        // Slab density: ids are handed out sequentially, so the slab spans
        // exactly [in_flight_base, next_request_id).
        if self.in_flight_base + self.in_flight.len() as u64 != self.ssd.next_request_id {
            record(
                out,
                Invariant::InFlight,
                format!(
                    "slab spans [{}, {}) but next request id is {}",
                    self.in_flight_base,
                    self.in_flight_base + self.in_flight.len() as u64,
                    self.ssd.next_request_id
                ),
            );
        }
        let live = self.in_flight.iter().filter(|e| e.is_some()).count();
        if live != self.in_flight_live {
            record(
                out,
                Invariant::InFlight,
                format!(
                    "in_flight_live says {} but the slab holds {live} live entries",
                    self.in_flight_live
                ),
            );
        }
        for (slot, entry) in self.in_flight.iter().enumerate() {
            if let Some(state) = entry {
                if state.remaining_pages == 0 {
                    record(
                        out,
                        Invariant::InFlight,
                        format!(
                            "request {} is live with zero remaining pages",
                            self.in_flight_base + slot as u64
                        ),
                    );
                }
            }
        }

        // Every queued page transaction of this session must reference a
        // live request, and per request the queued pages must equal its
        // remaining-page count exactly (pages are either queued or
        // dispatched-and-counted, never both or neither). Transactions
        // with pre-session ids belong to an abandoned session and drain
        // harmlessly.
        let mut queued: BTreeMap<u64, u32> = BTreeMap::new();
        for die in &self.ssd.dies {
            for txn in die.user_reads.iter().chain(die.user_writes.iter()) {
                if txn.request >= self.ssd.next_request_id {
                    record(
                        out,
                        Invariant::InFlight,
                        format!(
                            "queued transaction references unissued request id {}",
                            txn.request
                        ),
                    );
                } else if txn.request >= self.in_flight_base {
                    *queued.entry(txn.request).or_insert(0) += 1;
                }
            }
        }
        for (slot, entry) in self.in_flight.iter().enumerate() {
            let id = self.in_flight_base + slot as u64;
            let expected = entry.as_ref().map_or(0, |s| s.remaining_pages);
            let found = queued.get(&id).copied().unwrap_or(0);
            if expected != found {
                record(
                    out,
                    Invariant::InFlight,
                    format!("request {id}: {found} pages queued but {expected} remaining"),
                );
            }
        }

        // Scheduler clocks: a die with pending work must have a wake-up
        // scheduled, no wake-up may lie in the simulated past (wake-ups are
        // consumed in time order), and the calendar's cached minimum must
        // agree with the authoritative `next_wake` array.
        let mut expect_min = (NONE_NS, u32::MAX);
        for (die_idx, die) in self.ssd.dies.iter().enumerate() {
            let wake = self.sched.next_wake[die_idx];
            if die.has_work() && wake == NONE_NS {
                record(
                    out,
                    Invariant::SchedulerClock,
                    format!("die {die_idx} has pending work but no scheduled wake-up"),
                );
            }
            if wake != NONE_NS && wake < self.now {
                record(
                    out,
                    Invariant::SchedulerClock,
                    format!(
                        "die {die_idx}: wake-up at {} lies before the clock {}",
                        wake, self.now
                    ),
                );
            }
            if wake != NONE_NS && (wake, die_idx as u32) < expect_min {
                expect_min = (wake, die_idx as u32);
            }
        }
        if self.sched.wake_min != expect_min {
            record(
                out,
                Invariant::SchedulerClock,
                format!(
                    "calendar cached minimum {:?} but the earliest pending wake-up is {:?}",
                    self.sched.wake_min, expect_min
                ),
            );
        }
    }

    /// Runs a full auditor checkpoint (drive + session + oracle) into the
    /// attached auditor's violation log.
    fn run_checkpoint(&mut self) {
        let Some(auditor) = self.auditor.take() else {
            return;
        };
        auditor.checkpoint(self.ssd);
        self.collect_session_violations(&mut auditor.violations);
        self.auditor = Some(auditor);
    }

    /// Publishes one placed page write to the auditor's oracle and any
    /// observers.
    fn note_page_write(&mut self, die: usize, lpn: u64, placed: PlacedWrite, gc: bool, at: u64) {
        if let Some(auditor) = self.auditor.as_deref_mut() {
            auditor.observe_page_write(lpn, placed.ppa, placed.previous);
        }
        if !self.observers.is_empty() {
            let event = PageWriteEvent {
                die,
                lpn,
                ppa: placed.ppa,
                previous: placed.previous,
                gc,
                at,
            };
            for observer in &mut self.observers {
                observer.on_page_write(&event);
            }
        }
    }

    /// Drives one user read page through ECC recovery: looks up the page's
    /// current physical location, asks the chip model for its raw error
    /// count (possibly replaced by an injected error spike), and runs the
    /// read-retry/soft-decode ladder. Returns the extra latency the
    /// recovery cost beyond the initial sense and the resulting completion
    /// status. Only called when read faults are enabled, so the fault-free
    /// read path stays untouched.
    fn recover_user_read(
        &mut self,
        die_idx: usize,
        lpn: u64,
        sense_ns: u64,
    ) -> (u64, CompletionStatus) {
        let geometry = self.ssd.config.family.geometry;
        // An unmapped logical page (never written, or dropped by an
        // abandoned session) senses an erased page: no errors to correct.
        // Mapped pages are read under the drive's worst-case rated
        // retention condition so wear and shallow AERO erases feed the
        // raw error count the retry ladder has to correct.
        let errors = match self.ssd.mapping.lookup(lpn) {
            Some(ppa) => {
                let addr = geometry.block_addr(ppa.block as usize);
                self.ssd.dies[ppa.die as usize]
                    .chip
                    .read_page(PageAddr::new(addr, ppa.page), RetentionSpec::one_year_30c())
                    .map(|report| report.errors_per_kib)
                    .unwrap_or(0.0)
            }
            None => 0.0,
        };
        let capability = self.ssd.ecc.capability_per_kib;
        let errors = self.ssd.dies[die_idx]
            .fault
            .read_spike(capability)
            .unwrap_or(errors);
        let recovery = recover_read(&self.ssd.ecc, errors, sense_ns);
        let bucket = if recovery.soft_decoded {
            5
        } else {
            recovery.retries.min(4) as usize
        };
        self.ssd.counters.read_retry_histogram[bucket] += 1;
        if recovery.corrected {
            (recovery.extra_latency_ns, CompletionStatus::Ok)
        } else {
            self.ssd.counters.media_errors += 1;
            (recovery.extra_latency_ns, CompletionStatus::MediaError)
        }
    }

    /// Current simulated time in nanoseconds: the timestamp of the most
    /// recently processed event (or the [`Simulation::run_until`] target,
    /// whichever is later).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of requests admitted but not yet fully completed.
    ///
    /// "Completed" follows the scheduler's dispatch-time accounting (see
    /// [`Simulation::snapshot`]): a request leaves this count the moment
    /// its last page is dispatched.
    pub fn in_flight_requests(&self) -> usize {
        self.in_flight_live
    }

    /// Number of requests completed so far.
    pub fn completed_requests(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Current size of the in-flight slab — the window spanning the oldest
    /// incomplete request to the newest admitted one, including already-
    /// completed slots the window still covers. Leading completed slots are
    /// popped eagerly, so this tracks live concurrency, not run length;
    /// long-session memory guards watch its peak.
    pub fn in_flight_window(&self) -> usize {
        self.in_flight.len()
    }

    /// True once the source is drained and every pending wake-up has been
    /// processed — [`Simulation::step`] would return `false`.
    pub fn is_finished(&mut self) -> bool {
        self.peek_arrival().is_none() && self.sched.peek().is_none()
    }

    /// The shared core of [`Simulation::step`] and
    /// [`Simulation::run_until`]: picks the next event — request arrival or
    /// die wake-up, whichever is earlier (arrivals win ties, preserving the
    /// batch replay's event order) — and processes it only when its
    /// timestamp is at or before `limit`. Merging the two entry points
    /// means `run_until` peeks each event once, not once to bound-check and
    /// again inside `step`.
    fn step_limited(&mut self, limit: u64) -> StepOutcome {
        let arrival_at = self.peek_arrival().map(|r| r.arrival_ns);
        let wake = self.sched.peek();
        let take_arrival = match (arrival_at, wake) {
            (Some(at), Some((die_at, _))) => at <= die_at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return StepOutcome::Finished,
        };
        if take_arrival {
            #[expect(
                clippy::expect_used,
                reason = "take_arrival is only true when an arrival was peeked"
            )]
            let at = arrival_at.expect("take_arrival implies a peeked arrival");
            if at > limit {
                return StepOutcome::Beyond;
            }
            #[expect(
                clippy::expect_used,
                reason = "peek_arrival returned Some above, so the lookahead slot is filled"
            )]
            let request = self
                .lookahead
                .take()
                .expect("peek_arrival returned Some, so the lookahead is filled");
            self.now = at;
            self.admit(request);
        } else {
            #[expect(
                clippy::expect_used,
                reason = "the take_arrival match returned early unless a wake-up is pending"
            )]
            let (now, die_idx) = wake.expect("no arrival taken implies a pending wake-up");
            if now > limit {
                return StepOutcome::Beyond;
            }
            self.sched.pop();
            self.now = now;
            self.dispatch(die_idx, now);
        }
        if self.auditor.as_deref_mut().is_some_and(Auditor::note_event) {
            self.run_checkpoint();
        }
        StepOutcome::Processed
    }

    /// Processes exactly one event — the next request arrival or the next
    /// die wake-up, whichever is earlier (arrivals win ties) — and advances
    /// [`Simulation::now`] to its timestamp. Returns `false` when the run
    /// is finished (source drained, no pending wake-ups).
    #[inline]
    pub fn step(&mut self) -> bool {
        self.step_limited(u64::MAX) == StepOutcome::Processed
    }

    /// Runs every event scheduled at or before `t_ns`, then advances
    /// [`Simulation::now`] to at least `t_ns`. Returns the number of events
    /// processed. Combine with [`Simulation::snapshot`] for periodic
    /// time-series measurements or warm-up/measurement splits.
    pub fn run_until(&mut self, t_ns: u64) -> u64 {
        let mut steps = 0;
        while self.step_limited(t_ns) == StepOutcome::Processed {
            steps += 1;
        }
        self.now = self.now.max(t_ns);
        steps
    }

    /// Runs the session to completion and returns the final run-local
    /// report. Equivalent to stepping until [`Simulation::step`] returns
    /// `false`, then taking a last [`Simulation::snapshot`], except that
    /// the latency recorders are moved into the report instead of cloned.
    pub fn run_to_end(mut self) -> RunReport {
        while self.step() {}
        let mut report = self.report_shell();
        report.read_latency = std::mem::take(&mut self.read_latency);
        report.write_latency = std::mem::take(&mut self.write_latency);
        report
    }

    /// Models a sudden power loss: processes at most `events` further
    /// events, then tears the session down, dropping every queued user
    /// transaction the way a power cut drops the host queue. Returns the
    /// number of events actually processed (fewer than `events` when the
    /// run finished first). No report is produced — the run never
    /// completed.
    ///
    /// Dropped transactions have had no FTL effect yet — pages mutate drive
    /// state only at dispatch — so the drive is left internally consistent
    /// ([`Ssd::audit`] passes) and ready to be snapshotted with
    /// [`Ssd::save_snapshot`](crate::persist). SSD-internal work that was
    /// already decided (queued GC migrations, an unfinished erase job)
    /// survives the cut, like the journaled state a real FTL replays after
    /// power-on; the next session opened on the drive re-arms those dies
    /// and finishes it.
    pub fn crash_at(mut self, events: u64) -> u64 {
        let mut processed = 0;
        while processed < events && self.step() {
            processed += 1;
        }
        self.power_cut();
        processed
    }

    /// Drops every incomplete host request — the in-flight slab entries and
    /// their queued page transactions on every die; internal work (GC
    /// migrations, the erase job) stays. `pub(crate)` so the scenario
    /// driver can cut power mid-loop while keeping its request accounting.
    pub(crate) fn power_cut(&mut self) {
        // Every slab entry is dropped, so the whole window compacts away:
        // the slab collapses to empty with its base advanced past every id
        // this session handed out (the same state a fully drained run ends
        // in, so the density invariant keeps holding).
        self.in_flight.clear();
        self.in_flight_base = self.ssd.next_request_id;
        self.in_flight_live = 0;
        for die in &mut self.ssd.dies {
            die.user_reads.clear();
            die.user_writes.clear();
        }
        // The deferral stamps describe the dropped queue heads.
        self.sched.write_deferred_at.fill(NONE_NS);
    }

    /// Read-only view of the drive mid-session, so in-crate white-box tests
    /// can watch for a specific internal state (a pending erase job, queued
    /// GC moves) before cutting power.
    #[cfg(test)]
    pub(crate) fn drive(&self) -> &Ssd {
        self.ssd
    }

    /// Measures an interim run-local [`RunReport`] covering everything the
    /// session has processed so far. Both latency recorders are cloned: a
    /// fixed-size histogram each, so the cost does not grow with run
    /// length. Erase statistics are diffed against the session-start
    /// baseline via [`aero_core::EraseStats::diff`], exactly as the final
    /// report's are.
    ///
    /// Completion accounting is **dispatch-time**, as everywhere in the
    /// simulator: a request counts as completed the moment its last page is
    /// dispatched and its `completed_at` becomes known, which may lie a few
    /// device-operation latencies past [`Simulation::now`]. A snapshot
    /// taken after [`Simulation::run_until`]`(t)` therefore includes
    /// requests whose completion timestamp falls shortly after `t`; at the
    /// time scales of snapshot windows (seconds) versus device operations
    /// (micro- to milliseconds) the skew is negligible, but
    /// boundary-straddling requests are attributed to the earlier window.
    pub fn snapshot(&self) -> RunReport {
        let mut report = self.report_shell();
        report.read_latency = self.read_latency.clone();
        report.write_latency = self.write_latency.clone();
        report
    }

    /// [`Simulation::snapshot`] without the latency clones: everything in a
    /// report except the two latency recorders, which are left empty.
    /// Periodic telemetry that only needs counters — completions, GC/erase
    /// activity, channel and health stats — should use this with the
    /// borrowed [`Simulation::read_latency`]/[`Simulation::write_latency`]
    /// recorders for tails, so a snapshot window costs O(dies + channels)
    /// and copies no histogram.
    pub fn snapshot_shell(&self) -> RunReport {
        self.report_shell()
    }

    /// Borrowed view of the run's read-latency recorder. A percentile query
    /// scans its histogram's buckets, O(buckets) however long the run, so
    /// polling tails every window is cheap.
    pub fn read_latency(&self) -> &LatencyRecorder {
        &self.read_latency
    }

    /// Borrowed view of the run's write-latency recorder; see
    /// [`Simulation::read_latency`].
    pub fn write_latency(&self) -> &LatencyRecorder {
        &self.write_latency
    }

    /// Everything in a report except the latency recorders, which are left
    /// empty for [`Simulation::snapshot`] to clone and
    /// [`Simulation::run_to_end`] to move in. Tenant slices stay empty:
    /// [`crate::host::HostInterface`] fills them in.
    fn report_shell(&self) -> RunReport {
        let mut erase_stats = self.ssd.controller.stats().diff(&self.baseline_erase_stats);
        // `EraseStats::diff` cannot subtract maxima; the session tracked
        // the run-local maximum itself.
        erase_stats.max_latency = self.run_max_erase_latency;
        let run = self.ssd.counters.diff(&self.baseline_counters);
        RunReport {
            scheme: self.scheme.clone(),
            reads_completed: self.reads_completed,
            writes_completed: self.writes_completed,
            read_latency: LatencyRecorder::new(),
            write_latency: LatencyRecorder::new(),
            makespan_ns: self.makespan_ns,
            erase_stats,
            user_pages_written: run.user_pages_written,
            gc_invocations: run.gc_invocations,
            gc_page_moves: run.gc_page_moves,
            erase_suspensions: run.erase_suspensions,
            channel_stats: self
                .ssd
                .channels
                .iter()
                .map(|c| ChannelStats {
                    transfers: c.transfers,
                    busy_ns: c.busy_ns,
                    waited_transfers: c.waited_transfers,
                    wait_ns: c.wait_ns,
                    write_deferrals: c.write_deferrals,
                })
                .collect(),
            health: DriveHealth {
                retired_blocks: self.ssd.retired_blocks(),
                spare_blocks_total: self.ssd.config.spare_budget(),
                spare_headroom: self.ssd.spare_headroom(),
                program_failures: run.program_failures,
                erase_failures: run.erase_failures,
                media_errors: run.media_errors,
                read_retry_histogram: run.read_retry_histogram,
                writes_rejected_read_only: run.writes_rejected,
                read_only: self.ssd.read_only,
                read_only_since_ns: self.read_only_since_ns,
            },
            tenants: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Host-interface plumbing (crate::host)
    // ------------------------------------------------------------------

    /// Takes the finished host requests logged since the last drain.
    pub(crate) fn drain_host_completions(&mut self) -> impl Iterator<Item = HostCompletion> + '_ {
        self.host_completions
            .iter_mut()
            .flat_map(|log| log.drain(..))
    }

    /// Submits a host-queued request to the device at `submit_ns`. The
    /// request's original `arrival_ns` is when it entered its submission
    /// queue; the gap to `submit_ns` is its queueing delay and the request
    /// is admitted as if it arrived at submission time, so the drive-wide
    /// recorders measure pure device latency. Its completion is logged for
    /// [`Simulation::drain_host_completions`].
    pub(crate) fn admit_from_host(&mut self, mut request: IoRequest, tenant: u16, submit_ns: u64) {
        debug_assert!(
            submit_ns >= request.arrival_ns,
            "host submitted a request before it arrived"
        );
        let queued_ns = submit_ns.saturating_sub(request.arrival_ns);
        request.arrival_ns = submit_ns;
        self.now = self.now.max(submit_ns);
        self.host_completions.get_or_insert_with(Vec::new);
        self.admit_tagged(request, tenant, queued_ns);
    }

    // ------------------------------------------------------------------
    // Event loop internals
    // ------------------------------------------------------------------

    /// Fills the one-request lookahead from the source (if empty) and
    /// returns it.
    #[inline]
    fn peek_arrival(&mut self) -> Option<&IoRequest> {
        if self.lookahead.is_none() && !self.exhausted {
            match self.source.next_request() {
                Some(request) => {
                    debug_assert!(
                        request.arrival_ns >= self.last_arrival_ns,
                        "WorkloadSource contract violated: arrival {} after {}",
                        request.arrival_ns,
                        self.last_arrival_ns
                    );
                    self.last_arrival_ns = self.last_arrival_ns.max(request.arrival_ns);
                    self.lookahead = Some(request);
                }
                None => self.exhausted = true,
            }
        }
        self.lookahead.as_ref()
    }

    /// Admits one arriving request: registers it in the in-flight map and
    /// enqueues its page transactions on their dies.
    fn admit(&mut self, request: IoRequest) {
        self.admit_tagged(request, 0, 0);
    }

    /// [`Simulation::admit`] with tenant attribution: the request is tagged
    /// with its tenant and the time it already spent in a host submission
    /// queue (both 0 on the single-stream path).
    fn admit_tagged(&mut self, request: IoRequest, tenant: u16, queued_ns: u64) {
        let now = request.arrival_ns;
        let pages = request.page_count(self.page_bytes);
        let first_page = request.first_page(self.page_bytes);
        let id = self.ssd.next_request_id;
        self.ssd.next_request_id += 1;
        debug_assert_eq!(
            id,
            self.in_flight_base + self.in_flight.len() as u64,
            "request ids are handed out densely within a session"
        );
        self.in_flight.push_back(Some(InFlight {
            arrival_ns: now,
            op: request.op,
            remaining_pages: pages,
            completed_at: 0,
            status: CompletionStatus::Ok,
            tenant,
            queued_ns,
        }));
        self.in_flight_live += 1;
        for p in 0..pages {
            let lpn = first_page + p as u64;
            let die_idx = match request.op {
                IoOp::Read => self
                    .ssd
                    .mapping
                    .lookup(lpn)
                    .map(|ppa| ppa.die as usize)
                    .unwrap_or((lpn as usize) % self.ssd.dies.len()),
                IoOp::Write => {
                    let d = self.ssd.next_write_die;
                    // Branchy wrap instead of `%`: the round-robin advance
                    // runs once per written page.
                    let next = d + 1;
                    self.ssd.next_write_die = if next == self.ssd.dies.len() { 0 } else { next };
                    d
                }
            };
            let txn = PageTxn { request: id, lpn };
            match request.op {
                IoOp::Read => self.ssd.dies[die_idx].user_reads.push_back(txn),
                IoOp::Write => self.ssd.dies[die_idx].user_writes.push_back(txn),
            }
            self.kick_die(die_idx, now);
        }
    }

    /// Arms a die's wake-up for `now` or whenever its array frees up,
    /// whichever is later.
    #[inline]
    fn kick_die(&mut self, die_idx: usize, now: u64) {
        let at = now.max(self.sched.busy_until[die_idx]);
        self.sched.schedule(die_idx, at);
    }

    /// Ends a die's write-deferral window (if one is open) and charges the
    /// accumulated bus wait to the channel.
    #[inline]
    fn charge_write_deferral(&mut self, die_idx: usize, channel_idx: usize, now: u64) {
        let deferred_at = self.sched.write_deferred_at[die_idx];
        if deferred_at != NONE_NS {
            self.sched.write_deferred_at[die_idx] = NONE_NS;
            self.ssd.channels[channel_idx].wait_ns += now - deferred_at;
        }
    }

    /// Dispatches the next piece of work on a die at time `now`.
    fn dispatch(&mut self, die_idx: usize, now: u64) {
        if self.sched.busy_until[die_idx] > now {
            // Spurious wake-up; re-arm.
            self.kick_die(die_idx, now);
            return;
        }
        let timings = self.ssd.config.family.timings;
        let transfer = self.ssd.config.transfer_ns;
        let suspension = self.ssd.config.erase_suspension;
        let channel_idx = self.sched.channel[die_idx] as usize;

        // Priority 1: user reads (they may suspend an in-flight erase).
        if let Some(txn) = self.ssd.dies[die_idx].user_reads.pop_front() {
            let erase_in_flight = self.ssd.dies[die_idx]
                .erase_job
                .as_ref()
                .is_some_and(EraseJob::in_flight);
            if erase_in_flight && !suspension {
                // Without suspension the erase must finish first; put the read
                // back and fall through to the erase branch.
                self.ssd.dies[die_idx].user_reads.push_front(txn);
                self.continue_erase(die_idx, now);
                return;
            }
            if erase_in_flight {
                // Count the pause *transition*, not every read serviced in
                // the gap: the flag is cleared when the erase resumes.
                #[expect(
                    clippy::expect_used,
                    reason = "erase_in_flight was checked on this die just above"
                )]
                let job = self.ssd.dies[die_idx]
                    .erase_job
                    .as_mut()
                    .expect("in-flight erase checked above");
                if !job.suspended {
                    job.suspended = true;
                    self.ssd.counters.erase_suspensions += 1;
                }
            }
            // Sense on the die's array, then move the page over the shared
            // channel bus (waiting if a neighbor die holds it). With read
            // faults enabled the sense may be followed by the read-retry
            // ladder (re-senses, decodes, possibly a soft decode) before
            // the data is ready to transfer.
            let sense_ns = timings.read.as_nanos();
            let mut recovery_ns = 0;
            let mut status = CompletionStatus::Ok;
            if self.ssd.config.fault.read_faults_enabled() {
                let (extra, st) = self.recover_user_read(die_idx, txn.lpn, sense_ns);
                recovery_ns = extra;
                status = st;
            }
            let sense_done = now + sense_ns + recovery_ns;
            let done = self.ssd.channels[channel_idx].reserve(sense_done, transfer) + transfer;
            self.complete_page(txn, done, status);
            self.make_busy(die_idx, now, done - now);
            return;
        }

        // Priority 2: an erase that has already started continues (when
        // suspension is enabled it only runs because no reads are pending).
        let erase_started = self.ssd.dies[die_idx]
            .erase_job
            .as_ref()
            .is_some_and(EraseJob::in_flight);
        if erase_started {
            self.continue_erase(die_idx, now);
            return;
        }

        // Priority 3: when the die is out of free blocks, space reclamation
        // beats user writes.
        let starved = self.ssd.dies[die_idx].ftl.free_block_count() == 0;
        if starved && self.dispatch_gc_or_erase(die_idx, now) {
            return;
        }

        // Priority 4: user writes. The data transfer *leads* the program, so
        // a write whose channel bus is currently held by another die is
        // deferred with a channel-busy wake-up — the die stays free for
        // higher-priority reads in the meantime — instead of reserving the
        // bus ahead of time.
        if let Some(txn) = self.ssd.dies[die_idx].user_writes.pop_front() {
            if self.ssd.read_only {
                // Graceful degradation: the host transfer happens (the data
                // arrived at the controller) but nothing is programmed; the
                // page completes as `DriveReadOnly`.
                self.charge_write_deferral(die_idx, channel_idx, now);
                self.ssd.counters.writes_rejected += 1;
                let done = self.ssd.channels[channel_idx].reserve(now, transfer) + transfer;
                self.complete_page(txn, done, CompletionStatus::DriveReadOnly);
                self.make_busy(die_idx, now, done - now);
                return;
            }
            let bus_free_at = self.ssd.channels[channel_idx].busy_until;
            if bus_free_at > now {
                self.ssd.dies[die_idx].user_writes.push_front(txn);
                // Count the deferral once per head-of-queue write; the wait
                // time is charged when the write finally transfers, so
                // re-dispatches during the wait (e.g. for a newly arrived
                // read) cannot double-count overlapping wait windows.
                if self.sched.write_deferred_at[die_idx] == NONE_NS {
                    self.sched.write_deferred_at[die_idx] = now;
                    self.ssd.channels[channel_idx].write_deferrals += 1;
                }
                self.sched.schedule(die_idx, bus_free_at);
                return;
            }
            self.charge_write_deferral(die_idx, channel_idx, now);
            let program_scale = self.sched.program_scale[die_idx];
            // An active rescue that needs every remaining page slot on the
            // die blocks user writes: a write landing now would strand a
            // live page on the erase victim. The stall path below dispatches
            // the rescue instead, which drains the reserve and lets the
            // write through on a later wake-up.
            let placed = if self.ssd.rescue_needs_all_slots(die_idx) {
                None
            } else {
                self.ssd.place_write(die_idx, txn.lpn)
            };
            if let Some(placed) = placed {
                self.note_page_write(die_idx, txn.lpn, placed, false, now);
                // The deferral guard above means the bus is free here: a
                // user write never waits inside `reserve` — its bus waiting
                // is modeled exclusively by the deferral path.
                let start = self.ssd.channels[channel_idx].reserve(now, transfer);
                debug_assert_eq!(start, now, "deferral guard must leave the bus free");
                let latency = transfer + (timings.program.as_nanos() as f64 * program_scale) as u64;
                self.complete_page(txn, now + latency, CompletionStatus::Ok);
                self.start_gc_if_needed(die_idx, now);
                self.make_busy(die_idx, now, latency);
            } else {
                // No space: requeue the write and force reclamation.
                self.ssd.dies[die_idx].user_writes.push_front(txn);
                self.start_gc_if_needed(die_idx, now);
                if !self.dispatch_gc_or_erase(die_idx, now) {
                    // Dead end: the die has no free page slots, no erase in
                    // flight, and no feasible GC victim (every Full block
                    // carries more live pages than the die has slots left —
                    // fault-injected program failures can burn the slack
                    // past the rescue reserve). No future event can free
                    // space here: overwrites that would invalidate victim
                    // pages are stuck behind this very write. A drive that
                    // can no longer reclaim space has failed for writes, so
                    // trip the same read-only degradation as spare
                    // exhaustion; the queued write (and all after it)
                    // completes as `DriveReadOnly` while reads keep serving.
                    if !self.ssd.read_only {
                        self.ssd.read_only = true;
                        self.ssd.read_only_user_pages_written =
                            self.ssd.counters.user_pages_written;
                        self.read_only_since_ns = Some(now);
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "the same transaction was push_front'ed two lines up"
                    )]
                    let txn = self.ssd.dies[die_idx]
                        .user_writes
                        .pop_front()
                        .expect("just requeued");
                    self.ssd.counters.writes_rejected += 1;
                    let done = self.ssd.channels[channel_idx].reserve(now, transfer) + transfer;
                    self.complete_page(txn, done, CompletionStatus::DriveReadOnly);
                    self.make_busy(die_idx, now, done - now);
                }
            }
            return;
        }

        // Priority 5: background space reclamation; if it dispatches nothing
        // the die simply goes idle.
        self.dispatch_gc_or_erase(die_idx, now);
    }

    /// Starts GC on the die if it is low on space, notifying observers of
    /// the invocation.
    fn start_gc_if_needed(&mut self, die_idx: usize, now: u64) {
        if let Some(start) = self.ssd.maybe_start_gc(die_idx) {
            let event = GcEvent {
                die: die_idx,
                victim_block: start.victim_block,
                page_moves: start.page_moves,
                at: now,
            };
            for observer in &mut self.observers {
                observer.on_gc_invoked(&event);
            }
        }
    }

    /// Dispatches a GC page move or starts/continues an erase job. Returns
    /// true if any work was dispatched.
    fn dispatch_gc_or_erase(&mut self, die_idx: usize, now: u64) -> bool {
        let timings = self.ssd.config.family.timings;
        let transfer = self.ssd.config.transfer_ns;
        let pages_per_block = self.ssd.config.family.geometry.pages_per_block;
        let channel_idx = self.sched.channel[die_idx] as usize;
        if let Some(mv) = self.ssd.dies[die_idx].gc_moves.pop_front() {
            // Migrate one valid page: read it out over the channel bus and
            // rewrite it on the same die (a second bus transfer through the
            // controller, then the program).
            let lpn =
                self.ssd.dies[die_idx].p2l[(mv.victim_block * pages_per_block + mv.page) as usize];
            let sense_done = now + timings.read.as_nanos();
            let read_out_done =
                self.ssd.channels[channel_idx].reserve(sense_done, transfer) + transfer;
            let mut done = read_out_done;
            let program_scale = self.sched.program_scale[die_idx];
            let still_valid = lpn != u64::MAX
                && self.ssd.dies[die_idx]
                    .ftl
                    .block(mv.victim_block)
                    .is_valid(mv.page);
            let placed = if still_valid {
                self.ssd.place_write(die_idx, lpn)
            } else {
                None
            };
            if let Some(placed) = placed {
                self.note_page_write(die_idx, lpn, placed, true, now);
                let write_in_done =
                    self.ssd.channels[channel_idx].reserve(read_out_done, transfer) + transfer;
                // GC rewrites pay the same wear-dependent program-latency
                // scale as user writes (DPES trades erase stress for slower
                // programs on *every* program, GC migrations included).
                done = write_in_done + (timings.program.as_nanos() as f64 * program_scale) as u64;
                self.ssd.counters.gc_page_moves += 1;
                self.ssd.counters.user_pages_written -= 1; // GC rewrites are not user writes
            } else if still_valid {
                // The rescue write found no slot. The feasibility gate and
                // the slot reserve make this rare (program-status failures
                // can still burn slots past the reserve mid-rescue), but a
                // live page must never be dropped: abort the collection.
                // Nothing has been erased yet, so the victim returns to
                // service as a Full block with all of its data intact.
                self.ssd.abort_gc(die_idx);
            }
            self.make_busy(die_idx, now, done - now);
            return true;
        }
        // Erase job: only when its victim's migrations are done.
        let can_erase = self.ssd.dies[die_idx]
            .erase_job
            .as_ref()
            .is_some_and(|j| !j.started);
        if can_erase {
            #[expect(
                clippy::unwrap_used,
                reason = "can_erase proved the job is Some; a borrow cannot span decide_erase"
            )]
            let block = self.ssd.dies[die_idx].erase_job.as_ref().unwrap().block;
            let stats_before = self.ssd.controller.stats().total_latency;
            let (latencies, failed) = self.ssd.decide_erase(die_idx, block);
            // The erase advanced the die's wear, so the drive refreshed its
            // cached program-latency scale; refresh the scheduler's mirror.
            self.sched.program_scale[die_idx] = self.ssd.dies[die_idx].program_scale;
            // The controller recorded exactly this erase since the probe,
            // so the delta is this erase's device latency — tracked for the
            // run-local `max_latency` the report carries (lifetime maxima
            // are not subtractable from `EraseStats` snapshots).
            let this_erase = self
                .ssd
                .controller
                .stats()
                .total_latency
                .saturating_sub(stats_before);
            self.run_max_erase_latency = self.run_max_erase_latency.max(this_erase);
            {
                #[expect(
                    clippy::unwrap_used,
                    reason = "can_erase proved the job is Some and decide_erase never clears it"
                )]
                let job = self.ssd.dies[die_idx].erase_job.as_mut().unwrap();
                job.loop_latencies = latencies;
                job.started = true;
                job.failed = failed;
            }
            self.continue_erase(die_idx, now);
            return true;
        }
        false
    }

    /// Pays the next erase loop (or all remaining loops when suspension is
    /// disabled) of the die's in-flight erase job.
    fn continue_erase(&mut self, die_idx: usize, now: u64) {
        let suspension = self.ssd.config.erase_suspension;
        let has_observers = !self.observers.is_empty();
        let pages_per_block = self.ssd.config.family.geometry.pages_per_block;
        let die = &mut self.ssd.dies[die_idx];
        let Some(job) = die.erase_job.as_mut() else {
            return;
        };
        // The erase is (re)occupying the die's array: any suspension window
        // is over, so a later read preempting it counts as a new suspension.
        job.suspended = false;
        let latency = if suspension {
            let next = job.loop_latencies.get(job.next_loop).copied().unwrap_or(0);
            job.next_loop = (job.next_loop + 1).min(job.loop_latencies.len());
            next
        } else {
            let total = job.loop_latencies[job.next_loop..].iter().sum();
            job.next_loop = job.loop_latencies.len();
            total
        };
        let finished = job.next_loop >= job.loop_latencies.len();
        let mut erase_event = None;
        let mut finished_block = None;
        if finished {
            let block = job.block;
            let failed = job.failed;
            finished_block = Some((block, failed));
            // The event (and its O(loops) latency sum) is only built when
            // someone is listening.
            if has_observers {
                erase_event = Some(EraseEvent {
                    die: die_idx,
                    block,
                    loops: job.loop_latencies.len(),
                    latency_ns: job.loop_latencies.iter().sum(),
                    completed_at: now + latency.max(1),
                });
            }
            // Reclaim the finished job's loop buffer so the die's next
            // erase decision reuses the allocation.
            if let Some(job) = die.erase_job.take() {
                die.loop_scratch = job.loop_latencies;
            }
            if !failed {
                die.ftl.finish_erase(block);
            }
            // The erase wiped the block's contents, so its reverse-map
            // entries retire with it. Every live page was migrated or
            // invalidated before the erase dispatched (which also set its
            // entry to MAX), so this sweep is defense in depth: if any
            // path ever leaks a stale entry, it dies here instead of
            // resurfacing when the block is reused. A failed erase gets
            // the same sweep — the block leaves service, so no reverse
            // mapping may outlive it.
            let base = (block * pages_per_block) as usize;
            die.p2l[base..base + pages_per_block as usize].fill(u64::MAX);
            // GC for this victim is over once its migrations have drained
            // (they always have by the time the erase is dispatched; checked
            // here for robustness rather than assumed).
            die.gc_in_progress = !die.gc_moves.is_empty();
        }
        self.make_busy(die_idx, now, latency.max(1));
        if let Some((block, failed)) = finished_block {
            if failed {
                // Erase-status failure: retire the block and absorb it into
                // the spare budget; exhausting the spares trips the drive
                // into read-only graceful degradation.
                if self.ssd.retire_block(die_idx, block) {
                    self.read_only_since_ns = Some(now + latency.max(1));
                }
            }
            if let Some(auditor) = self.auditor.as_deref_mut() {
                auditor.observe_erase(die_idx, block);
            }
        }
        if let Some(event) = erase_event {
            for observer in &mut self.observers {
                observer.on_erase_complete(&event);
            }
        }
    }

    /// Occupies the die's array for `latency` and, when it still has queued
    /// work, arms its wake-up for the moment the array frees up.
    #[inline]
    fn make_busy(&mut self, die_idx: usize, now: u64, latency: u64) {
        let until = now + latency;
        self.sched.busy_until[die_idx] = until;
        if self.ssd.dies[die_idx].has_work() {
            self.sched.schedule(die_idx, until);
        }
    }

    /// Marks one page of a request done at simulated time `at` with the
    /// given per-page status; when it was the last page, records the
    /// request's latency and notifies observers. A transaction whose id
    /// predates this session belongs to an abandoned earlier one and
    /// drains silently.
    fn complete_page(&mut self, txn: PageTxn, at: u64, status: CompletionStatus) {
        let Some(slot) = txn.request.checked_sub(self.in_flight_base) else {
            return; // stale transaction from an abandoned session
        };
        let Some(entry) = self.in_flight.get_mut(slot as usize) else {
            return;
        };
        let Some(state) = entry.as_mut() else {
            return;
        };
        state.remaining_pages = state.remaining_pages.saturating_sub(1);
        state.completed_at = state.completed_at.max(at);
        state.status = state.status.max(status);
        if state.remaining_pages > 0 {
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "entry matched Some in the let-else above and was not replaced since"
        )]
        let state = entry.take().expect("entry matched Some above");
        self.in_flight_live -= 1;
        // Pop completed leading slots so the slab spans only the window
        // between the oldest incomplete request and the newest admitted.
        while matches!(self.in_flight.front(), Some(None)) {
            self.in_flight.pop_front();
            self.in_flight_base += 1;
        }
        let latency = state.completed_at.saturating_sub(state.arrival_ns);
        match state.op {
            IoOp::Read => {
                self.reads_completed += 1;
                self.read_latency.record(latency);
            }
            IoOp::Write => {
                self.writes_completed += 1;
                self.write_latency.record(latency);
            }
        }
        if let Some(log) = &mut self.host_completions {
            log.push(HostCompletion {
                completed_at: state.completed_at,
                tenant: state.tenant,
                op: state.op,
                device_ns: latency,
                queued_ns: state.queued_ns,
            });
        }
        self.makespan_ns = self.makespan_ns.max(state.completed_at);
        if !self.observers.is_empty() {
            let event = CompletedRequest {
                id: txn.request,
                op: state.op,
                arrival_ns: state.arrival_ns,
                completed_at: state.completed_at,
                latency_ns: latency,
                status: state.status,
            };
            for observer in &mut self.observers {
                observer.on_request_complete(&event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::ftl::BlockState;
    use crate::ssd::GcMove;
    use aero_core::SchemeKind;
    use aero_workloads::source::TraceSource;
    use aero_workloads::{IterSource, SyntheticWorkload, Trace};

    fn in_flight_read() -> InFlight {
        InFlight {
            arrival_ns: 0,
            op: IoOp::Read,
            remaining_pages: 1,
            completed_at: 0,
            status: CompletionStatus::Ok,
            tenant: 0,
            queued_ns: 0,
        }
    }

    /// A mid-run power cut leaves no queued user transactions behind and an
    /// internally consistent drive; crashing past the end just finishes.
    #[test]
    fn crash_at_drops_user_queues_and_preserves_consistency() {
        let trace = SyntheticWorkload::default_test().generate(400, 11);
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
        ssd.fill_fraction(0.6);
        let processed = ssd.session(TraceSource::new(&trace)).crash_at(150);
        assert_eq!(processed, 150, "the run has far more than 150 events");
        for die in &ssd.dies {
            assert!(die.user_reads.is_empty() && die.user_writes.is_empty());
        }
        assert!(ssd.audit().is_clean(), "{:?}", ssd.audit().violations);
        // The drive stays usable: a fresh session finishes the workload.
        let report = ssd.run_trace(&trace);
        assert_eq!(report.reads_completed + report.writes_completed, 400);
        // Crashing after the source drains processes every event and stops.
        let mut quiet = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
        quiet.fill_fraction(0.2);
        let short = SyntheticWorkload::default_test().generate(5, 3);
        let processed = quiet.session(TraceSource::new(&short)).crash_at(u64::MAX);
        assert!(processed >= 5, "at least one event per request");
        assert!(quiet.audit().is_clean());
    }

    /// `erase_suspensions` counts pause transitions: a burst of reads
    /// serviced within one inter-loop gap is one suspension, and the count
    /// rises again only after the erase has resumed.
    #[test]
    fn erase_suspensions_count_pause_transitions() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        ssd.fill_fraction(0.3);
        let trace = Trace::empty();
        let mut sim = ssd.session(TraceSource::new(&trace));
        for _ in 0..4 {
            sim.in_flight.push_back(Some(in_flight_read()));
            sim.in_flight_live += 1;
        }
        // An erase in flight on die 0 with plenty of loops left.
        sim.ssd.dies[0].erase_job = Some(EraseJob {
            block: 0,
            loop_latencies: vec![1_000_000; 8],
            next_loop: 0,
            started: true,
            suspended: false,
            failed: false,
        });
        for r in 0..3 {
            sim.ssd.dies[0]
                .user_reads
                .push_back(PageTxn { request: r, lpn: r });
        }
        let mut now = 0;
        for _ in 0..3 {
            sim.dispatch(0, now);
            now = sim.sched.busy_until[0];
        }
        assert_eq!(
            sim.ssd.counters.erase_suspensions, 1,
            "three reads in one suspension window are one suspension"
        );
        // No reads pending: the erase resumes (one loop).
        sim.dispatch(0, now);
        now = sim.sched.busy_until[0];
        // A read preempting the erase again is a second suspension.
        sim.ssd.dies[0]
            .user_reads
            .push_back(PageTxn { request: 3, lpn: 9 });
        sim.dispatch(0, now);
        assert_eq!(sim.ssd.counters.erase_suspensions, 2);
    }

    /// GC rewrites pay the same wear-dependent program-latency scale as
    /// user writes (the DPES slowdown reaches GC migrations).
    #[test]
    fn gc_rewrites_pay_scaled_program_latency() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        ssd.fill_fraction(0.7);
        let victim = (0..ssd.dies[0].ftl.block_count())
            .find(|&b| {
                ssd.dies[0].ftl.block(b).state == BlockState::Full
                    && ssd.dies[0].ftl.block(b).is_valid(0)
            })
            .expect("a 70% fill leaves full blocks on die 0");
        let scale = 1.5;
        let trace = Trace::empty();
        let mut sim = ssd.session(TraceSource::new(&trace));
        sim.ssd.dies[0].program_scale = scale;
        sim.sched.program_scale[0] = scale;
        sim.ssd.dies[0].chip.set_program_latency_scale(scale);
        sim.ssd.dies[0].gc_moves.push_back(GcMove {
            victim_block: victim,
            page: 0,
        });
        sim.ssd.dies[0].gc_in_progress = true;
        assert!(sim.dispatch_gc_or_erase(0, 0));
        let timings = sim.ssd.config.family.timings;
        let expected = timings.read.as_nanos()
            + 2 * sim.ssd.config.transfer_ns
            + (timings.program.as_nanos() as f64 * scale) as u64;
        assert_eq!(
            sim.sched.busy_until[0], expected,
            "the migration must pay tR + two bus transfers + scaled tPROG"
        );
        assert_eq!(sim.ssd.counters.gc_page_moves, 1);
    }

    /// Satellite regression: per-run scheduler state left behind by a prior
    /// run must not leak into the next one. The per-die scheduler clocks now
    /// live in the session itself (fresh `DieSched` per session), so only
    /// the channel-bus clocks remain drive-resident; poison those the way a
    /// finished run leaves them and check the next run is unaffected.
    #[test]
    fn session_start_resets_stale_scheduler_state() {
        let config = SsdConfig::small_test(SchemeKind::Baseline).with_seed(3);
        let mut clean = Ssd::new(config.clone());
        let mut poisoned = Ssd::new(config);
        clean.fill_fraction(0.5);
        poisoned.fill_fraction(0.5);
        for channel in &mut poisoned.channels {
            channel.busy_until = 250_000_000;
            channel.transfers = 99;
            channel.busy_ns = 77;
        }
        let trace = SyntheticWorkload::default_test().generate(500, 3);
        let clean_report = clean.run_trace(&trace);
        let poisoned_report = poisoned.run_trace(&trace);
        assert_eq!(
            clean_report, poisoned_report,
            "stale channel clocks must not leak into the next run"
        );
    }

    /// White-box demonstration that back-to-back runs start from time zero:
    /// a completed run leaves the drive's channel buses busy into its own
    /// timeline, and opening the next session resets them and builds a
    /// zeroed scheduler block (all dies free, no wake-ups pending — the
    /// drained run left no internal work to re-arm).
    #[test]
    fn back_to_back_runs_start_from_time_zero() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        ssd.fill_fraction(0.6);
        let trace = SyntheticWorkload::default_test().generate(400, 11);
        let _ = ssd.run_trace(&trace);
        assert!(
            ssd.channels.iter().any(|c| c.busy_until > 0),
            "a completed run leaves stale channel-bus clocks behind"
        );
        let sim = ssd.session(TraceSource::new(&trace));
        assert!(
            sim.ssd.channels.iter().all(|c| c.busy_until == 0),
            "opening a session must reset the channel buses"
        );
        assert!(
            sim.sched.busy_until.iter().all(|&b| b == 0)
                && sim.sched.peek().is_none()
                && sim.sched.write_deferred_at.iter().all(|&d| d == NONE_NS),
            "a fresh session starts with a zeroed scheduler block"
        );
    }

    /// The session API in streaming form produces the exact same report as
    /// the `run_trace` wrapper over the materialized equivalent.
    #[test]
    fn streamed_session_matches_run_trace() {
        let workload = SyntheticWorkload::default_test();
        let trace = workload.generate(1_200, 21);
        let mk = || {
            let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero).with_seed(9));
            ssd.fill_fraction(0.6);
            ssd
        };
        let batch = mk().run_trace(&trace);
        let streamed = mk()
            .session(IterSource::new(workload.stream(21).take(1_200)))
            .run_to_end();
        assert_eq!(batch, streamed);
    }

    /// Mid-run snapshots are consistent and do not perturb the run.
    #[test]
    fn snapshots_are_consistent_and_nonintrusive() {
        let workload = SyntheticWorkload::default_test();
        let mk = || {
            let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline).with_seed(2));
            ssd.fill_fraction(0.6);
            ssd
        };
        let mut undisturbed = mk();
        let reference = undisturbed
            .session(IterSource::new(workload.stream(5).take(800)))
            .run_to_end();

        let mut observed = mk();
        let mut sim = observed.session(IterSource::new(workload.stream(5).take(800)));
        let mut last_completed = 0;
        let mut snapshots = 0;
        while !sim.is_finished() {
            sim.run_until(sim.now() + 10_000_000);
            let snap = sim.snapshot();
            let completed = snap.reads_completed + snap.writes_completed;
            assert!(completed >= last_completed, "completions are monotone");
            assert_eq!(completed, sim.completed_requests());
            last_completed = completed;
            snapshots += 1;
        }
        assert!(snapshots > 1, "the run spans several snapshot windows");
        let final_report = sim.run_to_end();
        assert_eq!(
            final_report, reference,
            "snapshots must not perturb the simulation"
        );
    }

    /// `step` processes exactly one event at a time and ends exactly when
    /// the run is done.
    #[test]
    fn stepping_reaches_the_same_end_state() {
        let workload = SyntheticWorkload::default_test();
        let mk = || {
            let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline).with_seed(4));
            ssd.fill_fraction(0.5);
            ssd
        };
        let mut a = mk();
        let reference = a
            .session(IterSource::new(workload.stream(3).take(300)))
            .run_to_end();
        let mut b = mk();
        let mut sim = b.session(IterSource::new(workload.stream(3).take(300)));
        let mut steps = 0u64;
        let mut last_now = 0;
        while sim.step() {
            assert!(sim.now() >= last_now, "simulated time is monotone");
            last_now = sim.now();
            steps += 1;
        }
        assert!(steps > 300, "every request admission is at least one step");
        assert!(sim.is_finished());
        assert_eq!(
            sim.in_flight_requests(),
            0,
            "a drained run has no in-flight requests"
        );
        assert_eq!(sim.run_to_end(), reference);
    }

    /// Observers see every completion, erase, and GC invocation the report
    /// counts, in simulated-time order.
    #[test]
    fn observers_see_every_event() {
        #[derive(Default)]
        struct Counter {
            completions: u64,
            reads: u64,
            erases: u64,
            erase_loops: u64,
            gc_invocations: u64,
        }
        impl SimObserver for Counter {
            fn on_request_complete(&mut self, request: &CompletedRequest) {
                self.completions += 1;
                if request.op == IoOp::Read {
                    self.reads += 1;
                }
                assert_eq!(
                    request.latency_ns,
                    request.completed_at - request.arrival_ns
                );
            }
            fn on_erase_complete(&mut self, erase: &EraseEvent) {
                self.erases += 1;
                self.erase_loops += erase.loops as u64;
                assert!(erase.latency_ns > 0);
            }
            fn on_gc_invoked(&mut self, gc: &GcEvent) {
                self.gc_invocations += 1;
                // small_test geometry: 2 planes × 12 blocks, 64 pages/block.
                assert!(gc.victim_block < 24, "victim must be a real block");
                assert!(gc.page_moves <= 64, "moves bounded by pages per block");
            }
        }

        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline).with_seed(6));
        ssd.fill_fraction(0.7);
        let workload = SyntheticWorkload {
            read_ratio: 0.3,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        };
        let mut counter = Counter::default();
        let report = ssd
            .session(IterSource::new(workload.stream(1).take(2_500)))
            .with_observer(&mut counter)
            .run_to_end();
        assert_eq!(
            counter.completions,
            report.reads_completed + report.writes_completed
        );
        assert_eq!(counter.reads, report.reads_completed);
        assert_eq!(counter.erases, report.erase_stats.operations);
        assert_eq!(counter.erase_loops, report.erase_stats.loops);
        assert_eq!(counter.gc_invocations, report.gc_invocations);
        assert!(counter.erases > 0, "the workload must trigger erases");
    }

    /// Regression (fuzz seed 114): logical pages beyond the mapped range
    /// ("orphans", from a workload footprint larger than the drive's
    /// logical space) flow through GC migration and block erases without
    /// leaving stale reverse-map entries behind — the erase retires the
    /// block's `p2l` range, so the drive audits clean and the shadow
    /// oracle agrees throughout.
    #[test]
    fn orphan_pages_survive_gc_with_clean_audits() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline).with_seed(3));
        ssd.fill_fraction(0.85);
        let workload = SyntheticWorkload {
            read_ratio: 0.1,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 30_000.0,
            footprint_bytes: 64 << 20, // far beyond the ~36 MiB logical space
            hot_access_fraction: 0.6,
            hot_region_fraction: 0.1,
        };
        let mut auditor = crate::audit::Auditor::new()
            .check_every(64)
            .with_oracle(&ssd);
        let report = ssd
            .session(IterSource::new(workload.stream(1).take(3_000)))
            .with_auditor(&mut auditor)
            .run_to_end();
        assert!(
            report.erase_stats.operations > 0,
            "orphan-holding blocks must get erased for the regression to bite"
        );
        assert!(auditor.is_clean(), "{:?}", auditor.violations());
        let audit = ssd.audit();
        assert!(audit.is_clean(), "{audit}");
    }

    /// Satellite regression: a snapshot taken at `t == 0`, before the
    /// session processed anything, is all zeros with every rate/utilization
    /// helper finite (no NaN from a zero makespan) and the channel vector
    /// at full length.
    #[test]
    fn snapshot_at_session_start_is_all_zeros() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        ssd.fill_fraction(0.5);
        let trace = SyntheticWorkload::default_test().generate(100, 1);
        let sim = ssd.session(TraceSource::new(&trace));
        let snap = sim.snapshot();
        assert_eq!(snap.makespan_ns, 0);
        assert_eq!(snap.reads_completed + snap.writes_completed, 0);
        assert_eq!(snap.iops(), 0.0);
        assert_eq!(snap.mean_read_latency_us(), 0.0);
        assert_eq!(snap.mean_write_latency_us(), 0.0);
        assert_eq!(snap.channel_utilization(), vec![0.0, 0.0]);
        assert_eq!(snap.mean_channel_utilization(), 0.0);
        assert!(snap.write_amplification().is_finite());
    }

    /// An attached auditor stays clean through a GC-heavy run, fires
    /// checkpoints on its cadence, and does not perturb the simulation.
    #[test]
    fn attached_auditor_is_clean_and_nonintrusive() {
        let workload = SyntheticWorkload {
            read_ratio: 0.3,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        };
        let mk = || {
            let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero).with_seed(8));
            ssd.fill_fraction(0.6);
            ssd
        };
        let mut plain = mk();
        let reference = plain
            .session(IterSource::new(workload.stream(4).take(2_000)))
            .run_to_end();

        let mut audited = mk();
        let mut auditor = crate::audit::Auditor::new()
            .check_every(128)
            .with_oracle(&audited);
        let report = audited
            .session(IterSource::new(workload.stream(4).take(2_000)))
            .with_auditor(&mut auditor)
            .run_to_end();
        assert_eq!(report, reference, "auditing must not perturb the run");
        assert!(auditor.is_clean(), "{:?}", auditor.violations());
        assert!(auditor.checkpoints() > 1, "cadence checkpoints must fire");
        assert!(report.gc_invocations > 0, "the run must exercise GC");
        assert!(
            auditor.oracle().expect("oracle attached").writes_observed() > 0,
            "the oracle must see the run's page writes"
        );
    }

    /// Observers receive a `PageWriteEvent` for every user page write and
    /// GC rewrite the report counts.
    #[test]
    fn observers_see_every_page_write() {
        #[derive(Default)]
        struct WriteWatch {
            user: u64,
            gc: u64,
            invalidations: u64,
        }
        impl SimObserver for WriteWatch {
            fn on_page_write(&mut self, write: &PageWriteEvent) {
                if write.gc {
                    self.gc += 1;
                } else {
                    self.user += 1;
                }
                if write.previous.is_some() {
                    assert_ne!(Some(write.ppa), write.previous);
                    self.invalidations += 1;
                }
                assert_eq!(write.ppa.die as usize, write.die);
            }
        }
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline).with_seed(2));
        ssd.fill_fraction(0.7);
        let pages_before = ssd.user_pages_written();
        let workload = SyntheticWorkload {
            read_ratio: 0.2,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        };
        let mut watch = WriteWatch::default();
        let report = ssd
            .session(IterSource::new(workload.stream(6).take(2_000)))
            .with_observer(&mut watch)
            .run_to_end();
        assert_eq!(watch.gc, report.gc_page_moves);
        assert_eq!(
            watch.user,
            ssd.user_pages_written() - pages_before,
            "every user page program is observed"
        );
        assert!(watch.invalidations > 0, "overwrites must invalidate");
    }

    /// One splitmix64 step: the calendar model test's seeded randomness.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The wake-up calendar agrees with an ordered-set model of pending
    /// `(time, die)` wake-ups on seeded random schedule/pop sequences:
    /// equal times, earlier and later re-schedules of a pending die, and
    /// full drains to all-idle. It runs at the paper drive's 16 dies and at
    /// 70, more dies than one 64-bit word has bits.
    #[test]
    fn calendar_matches_an_ordered_set_model() {
        for dies in [16usize, 70] {
            for seed in 0..8u64 {
                let mut sched = DieSched {
                    busy_until: Vec::new(),
                    next_wake: vec![NONE_NS; dies],
                    write_deferred_at: Vec::new(),
                    program_scale: Vec::new(),
                    channel: Vec::new(),
                    wake_min: (NONE_NS, u32::MAX),
                };
                let mut model = std::collections::BTreeSet::new();
                let mut pending = vec![NONE_NS; dies];
                let (mut earlier, mut later, mut drains) = (0, 0, 0);
                let mut rng = seed << 8 | dies as u64;
                let mut now = 0u64;
                for step in 0..3_000 {
                    let r = splitmix(&mut rng);
                    let drain = step % 500 == 499;
                    if drain || (r % 5 < 2 && !model.is_empty()) {
                        // Pop one wake-up, or every one on a drain step.
                        while let Some((at, die)) = model.pop_first() {
                            assert_eq!(sched.peek(), Some((at, die)), "dies {dies} seed {seed}");
                            sched.pop();
                            pending[die] = NONE_NS;
                            now = at;
                            if !drain {
                                break;
                            }
                        }
                        drains += drain as u32;
                    } else {
                        // A small time window makes equal times common.
                        let die = (r >> 8) as usize % dies;
                        let at = now + (r >> 40) % 4;
                        match pending[die] {
                            NONE_NS => {}
                            old if at < old => earlier += 1,
                            _ => later += 1,
                        }
                        sched.schedule(die, at);
                        if at < pending[die] {
                            model.remove(&(pending[die], die));
                            model.insert((at, die));
                            pending[die] = at;
                        }
                    }
                    assert_eq!(
                        sched.peek(),
                        model.first().copied(),
                        "dies {dies} seed {seed} step {step}"
                    );
                }
                assert!(earlier > 0 && later > 0 && drains > 0);
            }
        }
    }

    /// `run_until` advances the clock even past the last event, and
    /// completion-ordering of the latency samples does not change report
    /// values.
    #[test]
    fn run_until_advances_the_clock() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        ssd.fill_fraction(0.4);
        let workload = SyntheticWorkload::default_test();
        let mut sim = ssd.session(IterSource::new(workload.stream(9).take(50)));
        let processed = sim.run_until(u64::MAX / 2);
        assert!(processed > 50);
        assert_eq!(sim.now(), u64::MAX / 2);
        assert!(sim.is_finished());
        let report = sim.snapshot();
        assert_eq!(report.reads_completed + report.writes_completed, 50);
        assert!(
            report.makespan_ns < u64::MAX / 2,
            "the makespan reflects completions, not the clock target"
        );
    }
}
