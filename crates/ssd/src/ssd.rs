//! The simulated SSD: drive state and its device-level operations.
//!
//! This module owns the **drive** — dies (each a full [`aero_nand::Chip`]
//! with its own FTL), shared channel buses, the page mapping, and the
//! drive-wide [`EraseController`] — plus the operations a scheduler invokes
//! on it: placing a page write, starting garbage collection, deciding an
//! erase. The **event loop** that advances simulated time lives in
//! [`crate::session`]: a [`crate::Simulation`] session pulls requests from a
//! [`aero_workloads::WorkloadSource`] and dispatches work die by die with
//! the priority order the paper's extended MQSim uses (user reads first,
//! then resuming erases, then user writes, then garbage-collection traffic,
//! then new erases). [`Ssd::run_trace`] survives as a thin wrapper that
//! opens a session over a trace and runs it to completion.
//!
//! Every erase goes through the drive-wide [`EraseController`] and its
//! configured scheme, so erase latencies, wear, and reliability all come
//! from the device model rather than fixed constants.
//!
//! # Channel model
//!
//! The drive is organized as `channels × chips_per_channel` dies, and dies
//! on the same channel share one data bus (`Channel`), as in the paper's
//! MQSim-based evaluation SSD (Table 2: 8 channels × 2 chips). Every page
//! data transfer — user read, user write, GC read-out and rewrite-in —
//! reserves the die's channel bus in FCFS order, while NAND array time
//! (tR, tPROG, erase loops) overlaps freely across the dies of a channel:
//! transfers serialize, array operations don't. Reads sense first and then
//! wait for the bus if a neighbor holds it; user writes *lead* with their
//! transfer, so a write whose bus is busy is deferred with a channel-busy
//! wake-up (letting higher-priority reads run meanwhile) instead of
//! blocking the die. Erase operations move no page data and never touch
//! the bus. With one chip per channel the bus is always free by the time
//! a die dispatches, so such a drive behaves exactly like the previous
//! fully-independent-die model.
//!
//! Hot-path notes: the session consumes arrivals straight from the pull
//! source, and its wake-up calendar holds die wake-ups only — one slot per
//! die keeping the earliest pending wake-up, so a channel-busy deferral
//! never adds a second entry; the page mapping packs each in-range entry
//! into 4 bytes (see [`PageMapping`]); the per-die program-latency scale
//! is cached and refreshed only when wear actually changes (an erase or
//! preconditioning) rather than being derived from a wear query on every
//! page write; the die-mean P/E-cycle count that scale depends on is a
//! running sum updated on erase/precondition rather than an O(blocks)
//! scan; and an in-flight erase walks a cursor over its decided loop
//! latencies instead of draining a per-job `VecDeque`.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use std::collections::{BTreeSet, VecDeque};

use aero_core::controller::EraseController;
use aero_core::scheme::{BlockId, EraseScheme};
use aero_core::Aero;
use aero_nand::cell::DataPattern;
use aero_nand::chip::{Chip, ChipConfig};
use aero_nand::geometry::PageAddr;
use aero_nand::reliability::ecc::EccConfig;
use aero_nand::timing::Micros;
use aero_nand::FaultModel;
use aero_workloads::request::Trace;
use aero_workloads::source::{TraceSource, WorkloadSource};

use crate::config::SsdConfig;
use crate::ftl::{DieFtl, PageMapping, Ppa};
use crate::report::RunReport;
use crate::session::Simulation;

/// A queued user page transaction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageTxn {
    /// Session-wide id of the request this page belongs to.
    pub(crate) request: u64,
    pub(crate) lpn: u64,
}

/// A queued garbage-collection page migration (read + rewrite within the
/// die).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GcMove {
    pub(crate) victim_block: u32,
    pub(crate) page: u32,
}

/// Result of placing one logical page write: where it landed and which
/// physical page (if any) it invalidated. The session publishes this pair
/// to observers and to the audit oracle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlacedWrite {
    pub(crate) ppa: Ppa,
    /// The previous location of the logical page, now invalid (`None` for
    /// a first write).
    pub(crate) previous: Option<Ppa>,
}

/// The (at most one) erase in flight on a die. Loop latencies are decided
/// once when the erase is dispatched and then consumed through `next_loop`;
/// no per-loop queue mutation is needed.
#[derive(Debug, Clone)]
pub(crate) struct EraseJob {
    pub(crate) block: u32,
    pub(crate) loop_latencies: Vec<u64>,
    /// Index of the next loop latency to pay.
    pub(crate) next_loop: usize,
    /// Whether the erase scheme has run and `loop_latencies` is populated.
    pub(crate) started: bool,
    /// Whether the erase is currently paused in an inter-loop gap because a
    /// user read preempted it. Cleared when the next loop runs, so a burst
    /// of reads serviced in one gap counts as a single suspension.
    pub(crate) suspended: bool,
    /// Whether the chip reported an erase-status failure for this job: the
    /// block still pays its loop latencies on the die, but when the erase
    /// finishes the block is retired instead of returned to the free pool.
    pub(crate) failed: bool,
}

impl EraseJob {
    /// True while decided loops remain to be paid in simulated time.
    pub(crate) fn in_flight(&self) -> bool {
        self.started && self.next_loop < self.loop_latencies.len()
    }
}

/// The shared data bus connecting the dies of one channel.
///
/// Page data transfers reserve the bus in FCFS order; NAND array time never
/// occupies it. `reserve` is the whole arbitration protocol: it grants the
/// bus at the earliest instant both the requester and the bus are ready,
/// and keeps the contention counters surfaced in
/// [`crate::report::ChannelStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Channel {
    /// Simulated time until which the bus is occupied.
    pub(crate) busy_until: u64,
    /// Total bus-occupied time.
    pub(crate) busy_ns: u64,
    /// Number of transfers carried.
    pub(crate) transfers: u64,
    /// Transfers whose start was delayed by a prior reservation.
    pub(crate) waited_transfers: u64,
    /// Total delay (reservation waits plus write dispatch deferrals).
    pub(crate) wait_ns: u64,
    /// User-write dispatches deferred because the bus was busy.
    pub(crate) write_deferrals: u64,
}

impl Channel {
    /// Reserves the bus for `duration` starting no earlier than `earliest`;
    /// returns the granted start time.
    #[inline]
    pub(crate) fn reserve(&mut self, earliest: u64, duration: u64) -> u64 {
        let start = earliest.max(self.busy_until);
        if start > earliest {
            self.waited_transfers += 1;
            self.wait_ns += start - earliest;
        }
        self.transfers += 1;
        self.busy_ns += duration;
        self.busy_until = start + duration;
        start
    }
}

/// Per-die simulator state.
pub(crate) struct Die {
    pub(crate) chip: Chip,
    pub(crate) ftl: DieFtl,
    /// Physical-page → logical-page reverse map (u64::MAX = invalid).
    pub(crate) p2l: Vec<u64>,
    pub(crate) user_reads: VecDeque<PageTxn>,
    pub(crate) user_writes: VecDeque<PageTxn>,
    pub(crate) gc_moves: VecDeque<GcMove>,
    pub(crate) erase_job: Option<EraseJob>,
    pub(crate) gc_in_progress: bool,
    /// Cached `scheme.program_latency_scale(average_pec)`, clamped to ≥ 1.
    /// Refreshed whenever the die's wear changes (erase, preconditioning);
    /// between those points it is constant, so page writes never query wear.
    pub(crate) program_scale: f64,
    /// Running sum of every block's P/E-cycle count on this die, maintained
    /// on erase and preconditioning so the die-mean PEC is O(1) to read.
    pub(crate) pec_sum: u64,
    /// Recycled per-loop latency buffer for erase decisions: reclaimed from
    /// each finished [`EraseJob`], so steady-state erases on a die reuse
    /// one allocation instead of building a fresh `Vec` per erase.
    pub(crate) loop_scratch: Vec<u64>,
    /// Deterministic fault-injection model for this die (seeded from the
    /// drive seed; snapshot-safe via its exported RNG state). All draws go
    /// through it, so fault sequences replay exactly.
    pub(crate) fault: FaultModel,
    /// Blocks flagged as grown-bad by the fault model: their next erase
    /// reports a status failure, routing them through retirement.
    pub(crate) grown_bad: BTreeSet<u32>,
}

impl Die {
    /// True while the die has queued or in-flight work of any kind.
    #[inline]
    pub(crate) fn has_work(&self) -> bool {
        !self.user_reads.is_empty()
            || !self.user_writes.is_empty()
            || !self.gc_moves.is_empty()
            || self.erase_job.is_some()
    }
}

/// A garbage-collection invocation just started by
/// [`Ssd::maybe_start_gc`], reported so the session can notify observers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GcStart {
    pub(crate) victim_block: u32,
    pub(crate) page_moves: usize,
}

/// The drive's lifetime event counters, kept in one place so a session can
/// make every report counter run-local with a single copy and
/// [`DriveCounters::diff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct DriveCounters {
    /// Garbage-collection victim selections.
    pub(crate) gc_invocations: u64,
    /// Pages migrated by garbage collection.
    pub(crate) gc_page_moves: u64,
    /// Erase suspension transitions (see [`EraseJob::suspended`]).
    pub(crate) erase_suspensions: u64,
    /// User pages placed, including preconditioning fills; GC migrations
    /// are not user pages.
    pub(crate) user_pages_written: u64,
    /// Program-status failures absorbed by remapping the in-flight page to
    /// the next frontier slot.
    pub(crate) program_failures: u64,
    /// Erase-status failures; each one retires a block.
    pub(crate) erase_failures: u64,
    /// Reads left uncorrectable after the full recovery ladder (completed
    /// as `MediaError`).
    pub(crate) media_errors: u64,
    /// User writes completed as `DriveReadOnly`.
    pub(crate) writes_rejected: u64,
    /// Read-recovery histogram: buckets 0–4 count reads resolved after
    /// that many retries, bucket 5 counts soft-decode fallbacks.
    pub(crate) read_retry_histogram: [u64; 6],
}

impl DriveCounters {
    /// The events counted since `earlier`, a copy of these counters taken
    /// before (counters only grow, so every field subtracts cleanly).
    pub(crate) fn diff(&self, earlier: &DriveCounters) -> DriveCounters {
        let mut read_retry_histogram = self.read_retry_histogram;
        for (bucket, before) in read_retry_histogram
            .iter_mut()
            .zip(earlier.read_retry_histogram)
        {
            *bucket -= before;
        }
        DriveCounters {
            gc_invocations: self.gc_invocations - earlier.gc_invocations,
            gc_page_moves: self.gc_page_moves - earlier.gc_page_moves,
            erase_suspensions: self.erase_suspensions - earlier.erase_suspensions,
            user_pages_written: self.user_pages_written - earlier.user_pages_written,
            program_failures: self.program_failures - earlier.program_failures,
            erase_failures: self.erase_failures - earlier.erase_failures,
            media_errors: self.media_errors - earlier.media_errors,
            writes_rejected: self.writes_rejected - earlier.writes_rejected,
            read_retry_histogram,
        }
    }
}

/// The simulated SSD.
pub struct Ssd {
    pub(crate) config: SsdConfig,
    pub(crate) mapping: PageMapping,
    pub(crate) dies: Vec<Die>,
    /// One shared data bus per channel; die `i` is wired to channel
    /// `i / chips_per_channel`.
    pub(crate) channels: Vec<Channel>,
    pub(crate) controller: EraseController<Box<dyn EraseScheme>>,
    pub(crate) next_write_die: usize,
    /// Lifetime event counters; reports diff them against a session-open
    /// copy.
    pub(crate) counters: DriveCounters,
    /// Session-wide request id counter. Ids are unique across every session
    /// ever opened on this drive, so a page transaction left queued by an
    /// abandoned session can never be mistaken for a later session's
    /// request.
    pub(crate) next_request_id: u64,
    /// ECC configuration the drive was built with; shared by the erase
    /// scheme derivation and the read-retry/soft-decode recovery ladder.
    pub(crate) ecc: EccConfig,
    /// Whether the drive has exhausted its bad-block spare budget and
    /// degraded to read-only mode. Terminal: reads keep serving, every
    /// subsequent user write completes as `DriveReadOnly`.
    pub(crate) read_only: bool,
    /// `user_pages_written` frozen at the read-only transition; the audit
    /// asserts it never moves afterwards (a read-only drive places no user
    /// writes — GC rescue migrations net out to zero on this counter).
    pub(crate) read_only_user_pages_written: u64,
}

/// Seed salt separating the per-die fault-model RNG streams from the
/// per-die chip noise RNG streams derived from the same drive seed.
const FAULT_SEED_SALT: u64 = 0xFA17_0B5E_5EED_0001;

impl Ssd {
    /// Builds a drive from a configuration: one chip model per die, empty
    /// mapping, and the configured erase scheme behind a single drive-wide
    /// controller.
    ///
    /// # Panics
    ///
    /// Panics if the drive has no channel or no chip per channel, or if it
    /// has more dies, blocks per die or pages per block than a
    /// [`PageMapping`] entry can address.
    pub fn new(config: SsdConfig) -> Self {
        assert!(
            config.channels >= 1 && config.chips_per_channel >= 1,
            "the drive needs at least one channel with one chip"
        );
        let geometry = config.family.geometry;
        assert!(
            config.dies() <= PageMapping::MAX_DIES as usize
                && geometry.total_blocks() <= PageMapping::MAX_BLOCKS_PER_DIE as u64
                && geometry.pages_per_block <= PageMapping::MAX_PAGES_PER_BLOCK,
            "{} dies x {} blocks x {} pages exceed the page mapping's {} x {} x {}",
            config.dies(),
            geometry.total_blocks(),
            geometry.pages_per_block,
            PageMapping::MAX_DIES,
            PageMapping::MAX_BLOCKS_PER_DIE,
            PageMapping::MAX_PAGES_PER_BLOCK
        );
        let blocks_per_die = geometry.total_blocks() as u32;
        let pages_per_block = geometry.pages_per_block;
        let dies = (0..config.dies())
            .map(|i| Die {
                chip: Chip::new(
                    ChipConfig::new(config.family.clone()).with_seed(config.seed ^ (i as u64 + 1)),
                ),
                ftl: DieFtl::new(blocks_per_die, pages_per_block),
                p2l: vec![u64::MAX; (blocks_per_die * pages_per_block) as usize],
                user_reads: VecDeque::new(),
                user_writes: VecDeque::new(),
                gc_moves: VecDeque::new(),
                erase_job: None,
                gc_in_progress: false,
                program_scale: 1.0,
                pec_sum: 0,
                loop_scratch: Vec::new(),
                fault: FaultModel::new(
                    config.fault,
                    config.seed ^ FAULT_SEED_SALT ^ (i as u64 + 1),
                ),
                grown_bad: BTreeSet::new(),
            })
            .collect();
        let channels = vec![Channel::default(); config.channels as usize];
        let ecc = EccConfig::paper_default().with_requirement(config.rber_requirement.min(72));
        let mut scheme = config.scheme.build_with_requirement(&config.family, &ecc);
        if config.misprediction_rate > 0.0 {
            // Rebuild the AERO variants with misprediction injection.
            scheme = match config.scheme {
                aero_core::SchemeKind::Aero => Box::new(
                    Aero::with_ept(&config.family, aero_core::Ept::paper_table1(), true)
                        .with_misprediction_rate(config.misprediction_rate)
                        .with_seed(config.seed),
                ),
                aero_core::SchemeKind::AeroCons => Box::new(
                    Aero::with_ept(&config.family, aero_core::Ept::paper_table1(), false)
                        .with_misprediction_rate(config.misprediction_rate)
                        .with_seed(config.seed),
                ),
                _ => scheme,
            };
        }
        let logical_pages = config.logical_pages();
        let mut ssd = Ssd {
            config,
            mapping: PageMapping::new(logical_pages),
            dies,
            channels,
            controller: EraseController::new(scheme),
            next_write_die: 0,
            counters: DriveCounters::default(),
            next_request_id: 0,
            ecc,
            read_only: false,
            read_only_user_pages_written: 0,
        };
        for die_idx in 0..ssd.dies.len() {
            ssd.refresh_program_scale(die_idx);
        }
        ssd
    }

    /// The drive's configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Fraction of logical pages currently mapped to flash.
    pub fn utilization(&self) -> f64 {
        self.mapping.mapped_fraction()
    }

    /// Read access to the drive's logical-to-physical page mapping (the
    /// locations reads are served from). Used by the audit oracle's
    /// comparisons and available to any external consistency checker.
    pub fn mapping(&self) -> &PageMapping {
        &self.mapping
    }

    /// Pre-ages every block of every die to the given P/E-cycle count
    /// (evaluations at PEC 0.5K / 2.5K / 4.5K).
    pub fn precondition_wear(&mut self, pec: u32) {
        let geometry = self.config.family.geometry;
        for die in &mut self.dies {
            die.chip.precondition_all_blocks(pec);
            // Every block now sits at exactly `pec` cycles.
            die.pec_sum = pec as u64 * geometry.total_blocks();
        }
        for die_idx in 0..self.dies.len() {
            self.refresh_program_scale(die_idx);
        }
    }

    /// Sequentially fills the given fraction of the logical address space
    /// without simulating time, to precondition the drive before a
    /// measurement run.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside [0, 1], or if the drive runs out
    /// of physical space before every requested page is placed (every die
    /// full; since this preconditioning path never runs garbage
    /// collection, repeated large fills can genuinely exhaust the drive).
    pub fn fill_fraction(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fill fraction must be in [0, 1]"
        );
        let logical_pages = (self.mapping.len() as f64 * fraction) as u64;
        for lpn in 0..logical_pages {
            // Round-robin placement, skipping dies that are out of space so
            // no page is silently dropped.
            let placed = (0..self.dies.len()).any(|_| {
                let die_idx = self.next_write_die;
                let next = self.next_write_die + 1;
                self.next_write_die = if next == self.dies.len() { 0 } else { next };
                self.place_write(die_idx, lpn).is_some()
            });
            assert!(
                placed,
                "fill_fraction: the drive is full after placing {lpn} of {logical_pages} pages \
                 (fills never garbage-collect; reduce the fill fraction or enlarge the drive)"
            );
        }
    }

    /// Opens a [`Simulation`] session that pulls requests from `source`.
    ///
    /// The session borrows the drive mutably: it advances simulated time
    /// through [`Simulation::step`] / [`Simulation::run_until`] /
    /// [`Simulation::run_to_end`] and measures a run-local [`RunReport`]
    /// (interim via [`Simulation::snapshot`], final via
    /// [`Simulation::run_to_end`]). Opening a session resets per-run
    /// scheduler state — channel-bus clocks and counters, per-die busy
    /// clocks and pending wake-ups — so a run always starts at simulated
    /// time zero regardless of what earlier sessions left behind.
    ///
    /// ```
    /// use aero_core::SchemeKind;
    /// use aero_ssd::{Ssd, SsdConfig};
    /// use aero_workloads::{IterSource, SyntheticWorkload};
    ///
    /// let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
    /// ssd.fill_fraction(0.5);
    /// // Stream 10k requests without materializing them.
    /// let source = IterSource::new(SyntheticWorkload::default_test().stream(1).take(10_000));
    /// let report = ssd.session(source).run_to_end();
    /// assert_eq!(report.reads_completed + report.writes_completed, 10_000);
    /// ```
    pub fn session<S: WorkloadSource>(&mut self, source: S) -> Simulation<'_, S> {
        Simulation::new(self, source)
    }

    /// Replays a trace to completion and returns the measured report.
    ///
    /// A thin wrapper over [`Ssd::session`] with a
    /// [`TraceSource`] — byte-identical to driving the session API by hand.
    /// Everything in the report is **run-local**: erase statistics
    /// (including `max_latency`, which the session tracks per run because
    /// [`aero_core::EraseStats::diff`] cannot subtract maxima), GC
    /// counters, suspension counts, and channel-bus accounting cover only
    /// this replay, not preconditioning or earlier `run_trace` calls on
    /// the same drive.
    pub fn run_trace(&mut self, trace: &Trace) -> RunReport {
        self.session(TraceSource::new(trace)).run_to_end()
    }

    /// Resets the per-run scheduler state the drive itself holds — the
    /// channel-bus clocks and counters (reports are run-local, and arrival
    /// times restart from zero). The per-die scheduler clocks (busy/wake
    /// times, write-deferral stamps) live in the session's own scheduler
    /// block, built fresh per session, so they cannot leak between runs.
    pub(crate) fn begin_run(&mut self) {
        for channel in &mut self.channels {
            *channel = Channel::default();
        }
    }

    /// Number of user pages written (including preconditioning fills).
    pub fn user_pages_written(&self) -> u64 {
        self.counters.user_pages_written
    }

    /// Access to the drive-wide erase statistics.
    pub fn erase_stats(&self) -> &aero_core::EraseStats {
        self.controller.stats()
    }

    // ------------------------------------------------------------------
    // Internals (drive-level operations invoked by the session scheduler)
    // ------------------------------------------------------------------

    /// The channel whose bus serves a die.
    #[inline]
    pub(crate) fn channel_of(&self, die_idx: usize) -> usize {
        die_idx / self.config.chips_per_channel as usize
    }

    /// Places one logical page write on a die: allocates a frontier slot,
    /// updates the mapping, invalidates the previous location, and programs
    /// the chip. Returns the physical placement, or `None` if the die has no
    /// space (caller must free space first).
    pub(crate) fn place_write(&mut self, die_idx: usize, lpn: u64) -> Option<PlacedWrite> {
        let geometry = self.config.family.geometry;
        let pages_per_block = geometry.pages_per_block;
        let die = &mut self.dies[die_idx];
        let (block, page) = loop {
            let (block, page, _) = die.ftl.allocate_page()?;
            let addr = geometry.block_addr(block as usize);
            #[expect(
                clippy::expect_used,
                reason = "the FTL frontier hands out pages of an erased block in order"
            )]
            die.chip
                .program_page(PageAddr::new(addr, page), DataPattern::Randomized)
                .expect("frontier pages are programmed in order on erased blocks");
            if die.fault.program_fails() {
                // Program-status failure: the frontier page stays written
                // but never valid and never mapped (firmware marks it bad),
                // and the write remaps to the next frontier slot. GC
                // reclaims the dead page when the block is collected.
                die.ftl.block_mut(block).mark_invalid(page);
                self.counters.program_failures += 1;
                continue;
            }
            break (block, page);
        };
        if die.fault.grows_bad() {
            // The block develops a grown-bad defect: it keeps serving until
            // its next erase, whose status check fails and retires it.
            die.grown_bad.insert(block);
        }
        let ppa = Ppa {
            die: die_idx as u32,
            block,
            page,
        };
        die.p2l[(block * pages_per_block + page) as usize] = lpn;
        self.counters.user_pages_written += 1;
        // Invalidate the previous location of this logical page.
        let previous = self.mapping.update(lpn, ppa);
        if let Some(old) = previous {
            let old_die = &mut self.dies[old.die as usize];
            old_die.ftl.block_mut(old.block).mark_invalid(old.page);
            old_die.p2l[(old.block * pages_per_block + old.page) as usize] = u64::MAX;
        }
        Some(PlacedWrite { ppa, previous })
    }

    pub(crate) fn average_pec(&self, die_idx: usize) -> u32 {
        // The die's true mean P/E-cycle count, rounded to the nearest
        // cycle. The running sum is maintained on every erase and
        // preconditioning pass, so this is O(1) and — unlike the previous
        // block-0 proxy — stays correct when garbage collection skews the
        // wear distribution across blocks.
        let blocks = self.config.family.geometry.total_blocks();
        ((self.dies[die_idx].pec_sum + blocks / 2) / blocks) as u32
    }

    /// Recomputes the die's cached program-latency scale from its current
    /// wear and pushes it into the chip model. Called whenever wear changes
    /// (an erase completes, or blocks are preconditioned); page writes then
    /// read the cached value instead of re-deriving it.
    fn refresh_program_scale(&mut self, die_idx: usize) {
        let scale = self
            .controller
            .scheme()
            .program_latency_scale(self.average_pec(die_idx))
            .max(1.0);
        let die = &mut self.dies[die_idx];
        die.program_scale = scale;
        die.chip.set_program_latency_scale(scale);
    }

    /// Starts garbage collection on a die if it is running low on free
    /// blocks. Returns a description of the invocation when one started, so
    /// the session can notify its observers.
    pub(crate) fn maybe_start_gc(&mut self, die_idx: usize) -> Option<GcStart> {
        let threshold = self.config.gc_threshold_free_blocks;
        // A read-only drive accepts no new writes, so it has no need for
        // new free space; an already-running collection finishes, but no
        // new victim is opened (each erase risks another retirement).
        if self.read_only {
            return None;
        }
        let die = &mut self.dies[die_idx];
        if die.gc_in_progress || die.ftl.free_block_count() > threshold {
            return None;
        }
        let victim = die.ftl.pick_gc_victim()?;
        // Rescue feasibility: every live page of the victim needs a slot to
        // migrate into before the erase may run. When retirement has eaten
        // the die's slack, a victim can carry more live pages than the die
        // has slots left; starting that collection would wedge between an
        // erase that must not run and migrations that cannot. Defer instead:
        // the victim stays readable, and writes stall until space appears.
        if die.ftl.block(victim).valid_pages as u64 > die.ftl.free_page_slots() {
            return None;
        }
        die.gc_in_progress = true;
        self.counters.gc_invocations += 1;
        die.ftl.start_collecting(victim);
        let mut page_moves = 0;
        for page in die.ftl.block(victim).valid_page_indices() {
            die.gc_moves.push_back(GcMove {
                victim_block: victim,
                page,
            });
            page_moves += 1;
        }
        // The erase decision (scheme, loop latencies) is made when the erase
        // job is dispatched, so it sees the block's wear at that point.
        die.erase_job = Some(EraseJob {
            block: victim,
            loop_latencies: Vec::new(),
            next_loop: 0,
            started: false,
            suspended: false,
            failed: false,
        });
        Some(GcStart {
            victim_block: victim,
            page_moves,
        })
    }

    /// Runs the erase scheme for a block and returns the per-loop latencies
    /// to pay in simulated time, plus whether the erase-status check failed
    /// (grown-bad block, injected status failure, or chip loop-budget
    /// exhaustion under an active fault model). A failed erase still pays
    /// its loop latencies; the session retires the block when they elapse.
    pub(crate) fn decide_erase(&mut self, die_idx: usize, block: u32) -> (Vec<u64>, bool) {
        let blocks_per_die = self.config.family.geometry.total_blocks() as usize;
        let addr = self.config.family.geometry.block_addr(block as usize);
        let block_id = BlockId(die_idx * blocks_per_die + block as usize);
        let die = &mut self.dies[die_idx];
        die.ftl.start_erasing(block);
        // A grown-bad block fails its status check outright, without
        // consuming an erase-failure draw from the fault RNG.
        let mut failed = die.grown_bad.remove(&block);
        // Reuse the latency buffer reclaimed from this die's previous erase
        // job. The controller still allocates each erase's loop history
        // (`EraseReport::loops`), which is dropped once copied out here.
        let mut latencies = std::mem::take(&mut die.loop_scratch);
        latencies.clear();
        match self.controller.erase(&mut die.chip, addr, block_id) {
            Ok(exec) => {
                if !failed {
                    failed = die.fault.erase_fails(&exec.report);
                }
                latencies.extend(exec.report.loops.iter().map(|l| l.latency.as_nanos()));
            }
            Err(_) => {
                // The block exhausted the chip's loop budget (end of life); it
                // still spent the full budget's worth of time on the die.
                // Under an active fault model that is an erase-status failure
                // and the block retires; without one, the legacy behavior
                // (block returns to service) is preserved.
                if self.config.fault.erase_fail_per_million != 0 {
                    failed = true;
                }
                let loop_ns = self.config.family.timings.erase_loop().as_nanos();
                latencies.resize(self.config.family.erase.max_loops as usize, loop_ns);
            }
        };
        if latencies.is_empty() {
            // A scheme that skips every pulse still pays the verify-read of
            // the decision it based the skip on; charge one verify-read.
            latencies.push(Micros::from_micros(100).as_nanos());
        }
        // The erase changed the block's wear (its PEC advanced by one on
        // both the success and the loop-exhaustion path); refresh the die's
        // running PEC sum and cached program-latency scale.
        self.dies[die_idx].pec_sum += 1;
        self.refresh_program_scale(die_idx);
        (latencies, failed)
    }

    /// True while a die's active rescue needs every page slot it has left:
    /// the pending migrations equal or outnumber the free slots, so a user
    /// write landing now would strand a live page on the erase victim. The
    /// session holds user writes back while this is true; the rescue's own
    /// migrations make progress and release the reserve.
    pub(crate) fn rescue_needs_all_slots(&self, die_idx: usize) -> bool {
        let die = &self.dies[die_idx];
        if !die.gc_in_progress || die.gc_moves.is_empty() {
            return false;
        }
        die.ftl.free_page_slots() <= die.gc_moves.len() as u64
    }

    /// Aborts an in-flight collection whose rescue ran out of page slots.
    /// Nothing has been erased yet, so the victim simply returns to service
    /// as a `Full` block with all of its live data intact; the queued
    /// migrations and the pending erase job are discarded. The feasibility
    /// gate in [`Self::maybe_start_gc`] and the slot reserve enforced by the
    /// session make this a last-resort path, but program-status failures
    /// can burn extra slots mid-rescue and land here.
    pub(crate) fn abort_gc(&mut self, die_idx: usize) {
        let die = &mut self.dies[die_idx];
        if let Some(job) = die.erase_job.take() {
            die.ftl.abort_collecting(job.block);
        }
        die.gc_moves.clear();
        die.gc_in_progress = false;
    }

    /// Retires a block after a failed erase: the block enters the terminal
    /// [`crate::ftl::BlockState::Retired`] state and the drive's spare
    /// accounting absorbs it. Returns `true` when this retirement exhausted
    /// the spare budget and tripped the read-only transition.
    pub(crate) fn retire_block(&mut self, die_idx: usize, block: u32) -> bool {
        self.dies[die_idx].ftl.retire_block(block);
        self.counters.erase_failures += 1;
        if !self.read_only && self.retired_blocks() >= self.config.spare_budget() {
            self.read_only = true;
            self.read_only_user_pages_written = self.counters.user_pages_written;
            return true;
        }
        false
    }

    /// Total number of retired (permanently bad) blocks across every die.
    pub fn retired_blocks(&self) -> u64 {
        self.dies
            .iter()
            .map(|d| d.ftl.retired_block_count() as u64)
            .sum()
    }

    /// Remaining bad-block spare headroom: retirements the drive can still
    /// absorb before its spares run out.
    pub fn spare_headroom(&self) -> u64 {
        self.config
            .spare_budget()
            .saturating_sub(self.retired_blocks())
    }

    /// Whether the drive has degraded to read-only mode because its spares
    /// ran out or a die could no longer reclaim space (reads keep serving).
    pub fn read_only(&self) -> bool {
        self.read_only
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_core::SchemeKind;
    use aero_nand::geometry::BlockAddr;
    use aero_nand::FaultConfig;
    use aero_workloads::request::{IoOp, IoRequest};
    use aero_workloads::SyntheticWorkload;

    fn workload(reads: f64, count: usize) -> Trace {
        SyntheticWorkload {
            read_ratio: reads,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 200_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.8,
            hot_region_fraction: 0.2,
        }
        .generate(count, 3)
    }

    fn run(scheme: SchemeKind, suspension: bool, count: usize) -> RunReport {
        let config = SsdConfig::small_test(scheme).with_erase_suspension(suspension);
        let mut ssd = Ssd::new(config);
        ssd.fill_fraction(0.6);
        ssd.run_trace(&workload(0.5, count))
    }

    #[test]
    fn all_requests_complete() {
        let report = run(SchemeKind::Baseline, true, 400);
        assert_eq!(report.reads_completed + report.writes_completed, 400);
        assert!(report.makespan_ns > 0);
        assert!(report.iops() > 0.0);
    }

    #[test]
    fn writes_trigger_gc_and_erases() {
        let config = SsdConfig::small_test(SchemeKind::Baseline);
        let mut ssd = Ssd::new(config);
        ssd.fill_fraction(0.7);
        let trace = SyntheticWorkload {
            read_ratio: 0.0,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 50_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        }
        .generate(3_000, 1);
        let report = ssd.run_trace(&trace);
        assert_eq!(report.writes_completed, 3_000);
        assert!(
            report.gc_invocations > 0,
            "sustained writes must trigger GC"
        );
        assert!(
            ssd.erase_stats().operations > 0,
            "GC must erase victim blocks"
        );
        assert!(report.write_amplification() >= 1.0);
    }

    /// WAF counts pages, not requests: on 16 KiB pages every 64 KiB write
    /// programs four user pages, and the report carries the run-local
    /// user-page count the drive's lifetime counter moved by.
    #[test]
    fn write_amplification_counts_pages_not_requests() {
        let config = SsdConfig::small_test(SchemeKind::Baseline);
        assert_eq!(config.family.geometry.page_size_bytes, 16 * 1024);
        let slots = config.logical_pages() / 4;
        let mut ssd = Ssd::new(config);
        ssd.fill_fraction(0.7);
        let pages_before = ssd.user_pages_written();
        let trace = Trace::new(
            (0..1_500u64)
                .map(|i| IoRequest {
                    arrival_ns: i * 100_000,
                    op: IoOp::Write,
                    // 4 pages × 32 sectors, aligned to a 64 KiB slot.
                    lba: (i * 7_919 % slots) * 128,
                    size_bytes: 64 * 1024,
                })
                .collect(),
        );
        let report = ssd.run_trace(&trace);
        assert_eq!(report.writes_completed, 1_500);
        assert_eq!(
            report.user_pages_written,
            ssd.user_pages_written() - pages_before
        );
        assert_eq!(report.user_pages_written, 4 * report.writes_completed);
        assert!(report.gc_page_moves > 0, "the run must exercise GC");
        let waf = (report.user_pages_written + report.gc_page_moves) as f64
            / report.user_pages_written as f64;
        assert_eq!(report.write_amplification(), waf);
    }

    #[test]
    fn read_latency_has_reasonable_floor() {
        let report = run(SchemeKind::Baseline, true, 300);
        // A read takes at least tR + transfer = 50 us.
        assert!(report.read_latency.percentile(50.0) >= 50_000);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(SchemeKind::Aero, true, 600);
        let b = run(SchemeKind::Aero, true, 600);
        assert_eq!(a.read_latency, b.read_latency);
        assert_eq!(a.write_latency, b.write_latency);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.erase_suspensions, b.erase_suspensions);
    }

    #[test]
    fn aero_reduces_read_tail_latency_under_write_pressure() {
        let mk = |scheme| {
            let config = SsdConfig::small_test(scheme).with_seed(5);
            let mut ssd = Ssd::new(config);
            ssd.fill_fraction(0.7);
            let trace = SyntheticWorkload {
                read_ratio: 0.5,
                mean_request_bytes: 16.0 * 1024.0,
                mean_inter_arrival_ns: 120_000.0,
                footprint_bytes: 4 << 20,
                hot_access_fraction: 0.9,
                hot_region_fraction: 0.3,
            }
            .generate(4_000, 7);
            ssd.run_trace(&trace)
        };
        let base = mk(SchemeKind::Baseline);
        let aero = mk(SchemeKind::Aero);
        assert!(base.erase_stats.operations > 0 && aero.erase_stats.operations > 0);
        let base_tail = base.read_latency.percentile(99.9);
        let aero_tail = aero.read_latency.percentile(99.9);
        assert!(
            aero_tail <= base_tail,
            "AERO tail {aero_tail} should not exceed baseline tail {base_tail}"
        );
        // Table 4's claim is that AERO never *hurts* average performance. At
        // full SSD scale the averages are essentially unchanged; at this
        // reduced scale (few dies, so an in-flight erase blocks a larger
        // fraction of the device) the erase savings shift the mean further
        // than on real hardware, so only the direction is asserted.
        let base_mean = base.read_latency.mean();
        let aero_mean = aero.read_latency.mean();
        assert!(
            aero_mean <= base_mean * 1.05,
            "AERO mean read latency {aero_mean} must not exceed baseline {base_mean}"
        );
    }

    #[test]
    fn disabling_erase_suspension_worsens_read_tail() {
        let mk = |suspension| {
            let config = SsdConfig::small_test(SchemeKind::Baseline)
                .with_erase_suspension(suspension)
                .with_seed(2);
            let mut ssd = Ssd::new(config);
            ssd.fill_fraction(0.7);
            let trace = SyntheticWorkload {
                read_ratio: 0.5,
                mean_request_bytes: 16.0 * 1024.0,
                mean_inter_arrival_ns: 120_000.0,
                footprint_bytes: 4 << 20,
                hot_access_fraction: 0.9,
                hot_region_fraction: 0.3,
            }
            .generate(4_000, 9);
            ssd.run_trace(&trace)
        };
        let with = mk(true);
        let without = mk(false);
        assert!(
            without.read_latency.percentile(99.99) >= with.read_latency.percentile(99.99),
            "suspension should not make tails worse"
        );
    }

    #[test]
    fn preconditioning_wear_increases_erase_loops() {
        let config = SsdConfig::small_test(SchemeKind::Baseline);
        let mut fresh = Ssd::new(config.clone());
        let mut aged = Ssd::new(config);
        aged.precondition_wear(2_500);
        fresh.fill_fraction(0.7);
        aged.fill_fraction(0.7);
        let trace = workload(0.0, 2_000);
        let fresh_report = fresh.run_trace(&trace);
        let aged_report = aged.run_trace(&trace);
        assert!(fresh_report.erase_stats.operations > 0);
        assert!(aged_report.erase_stats.operations > 0);
        assert!(
            aged.erase_stats().mean_loops() > fresh.erase_stats().mean_loops(),
            "aged blocks need more erase loops"
        );
    }

    #[test]
    fn utilization_reflects_fill() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
        assert_eq!(ssd.utilization(), 0.0);
        ssd.fill_fraction(0.5);
        assert!((ssd.utilization() - 0.5).abs() < 0.02);
    }

    /// A drive with the same die count but shared channel buses has strictly
    /// worse read tail latency: transfers serialize on the bus while array
    /// operations overlap, and only the shared layout ever waits for a bus.
    #[test]
    fn shared_channel_increases_read_tail_latency() {
        let mk = |channels: u32, chips: u32| {
            let config = SsdConfig::small_test(SchemeKind::Baseline)
                .with_channel_layout(channels, chips)
                .with_seed(4);
            let mut ssd = Ssd::new(config);
            ssd.fill_fraction(0.4);
            let trace = SyntheticWorkload {
                read_ratio: 0.6,
                mean_request_bytes: 16.0 * 1024.0,
                mean_inter_arrival_ns: 30_000.0,
                footprint_bytes: 4 << 20,
                hot_access_fraction: 0.8,
                hot_region_fraction: 0.2,
            }
            .generate(2_500, 11);
            ssd.run_trace(&trace)
        };
        let private = mk(4, 1); // 4 channels × 1 chip: every die owns its bus
        let shared = mk(2, 2); // 2 channels × 2 chips: same dies, shared buses
        assert_eq!(private.channel_stats.len(), 4);
        assert_eq!(shared.channel_stats.len(), 2);
        assert_eq!(
            private.transfer_waits(),
            0,
            "a die that owns its channel can never wait for the bus"
        );
        assert!(
            shared.transfer_waits() > 0,
            "two chips per channel must contend for the shared bus"
        );
        let private_tail = private.read_latency.percentile(99.99);
        let shared_tail = shared.read_latency.percentile(99.99);
        assert!(
            shared_tail > private_tail,
            "shared buses must lengthen the read tail (shared {shared_tail} vs private {private_tail})"
        );
        assert!(
            shared.transfer_wait_ns() > 0,
            "contended transfers must accumulate wait time"
        );
    }

    /// Channel counters are internally consistent and run-local.
    #[test]
    fn channel_stats_account_for_every_transfer() {
        let config = SsdConfig::small_test(SchemeKind::Baseline);
        let transfer_ns = config.transfer_ns;
        let mut ssd = Ssd::new(config);
        ssd.fill_fraction(0.6);
        let report = ssd.run_trace(&workload(0.5, 500));
        assert_eq!(report.channel_stats.len(), 2);
        let transfers: u64 = report.channel_stats.iter().map(|c| c.transfers).sum();
        let busy: u64 = report.channel_stats.iter().map(|c| c.busy_ns).sum();
        assert!(transfers > 0);
        assert_eq!(busy, transfers * transfer_ns);
        for utilization in report.channel_utilization() {
            assert!((0.0..=1.0).contains(&utilization));
        }
        // One chip per channel: the bus is always free when the die is.
        assert_eq!(report.transfer_waits(), 0);
        assert_eq!(report.transfer_wait_ns(), 0);
        // A second run reports only its own traffic.
        let report2 = ssd.run_trace(&workload(0.5, 100));
        let transfers2: u64 = report2.channel_stats.iter().map(|c| c.transfers).sum();
        assert!(transfers2 < transfers);
    }

    /// The run-local view of a report's counters, one field per
    /// [`DriveCounters`] field.
    fn run_counters(r: &RunReport) -> DriveCounters {
        DriveCounters {
            gc_invocations: r.gc_invocations,
            gc_page_moves: r.gc_page_moves,
            erase_suspensions: r.erase_suspensions,
            user_pages_written: r.user_pages_written,
            program_failures: r.health.program_failures,
            erase_failures: r.health.erase_failures,
            media_errors: r.health.media_errors,
            writes_rejected: r.health.writes_rejected_read_only,
            read_retry_histogram: r.health.read_retry_histogram,
        }
    }

    /// `RunReport.erase_stats` and every [`DriveCounters`] field cover only
    /// the replay that produced the report, even when the drive already
    /// ran earlier: two back-to-back runs add up to the drive's lifetime
    /// delta. The faulted drive, with a spare budget its second run
    /// exhausts, drives every health counter and retry bucket.
    #[test]
    fn erase_stats_are_run_local() {
        let plain = SsdConfig::small_test(SchemeKind::Baseline);
        let faulted = plain
            .clone()
            .with_faults(FaultConfig {
                program_fail_per_million: 20_000,
                erase_fail_per_million: 60_000,
                grown_bad_per_million: 0,
                read_fault_per_million: 300_000,
            })
            .with_spare_blocks(2);
        for (config, pec, reads) in [(plain, 0, 0.0), (faulted, 2_500, 0.5)] {
            let faults = config.fault.any_enabled();
            let mut ssd = Ssd::new(config);
            ssd.precondition_wear(pec);
            ssd.fill_fraction(0.7);
            let before = ssd.counters;
            let trace = workload(reads, 2_000);
            let r1 = ssd.run_trace(&trace);
            let after1 = ssd.erase_stats().clone();
            assert!(r1.erase_stats.operations > 0, "writes must trigger erases");
            assert_eq!(r1.erase_stats.loops, after1.loops);
            let r2 = ssd.run_trace(&trace);
            let after2 = ssd.erase_stats().clone();
            assert!(r2.erase_stats.operations > 0);
            assert_eq!(
                r2.erase_stats.operations,
                after2.operations - after1.operations
            );
            assert_eq!(r2.erase_stats.loops, after2.loops - after1.loops);
            assert_eq!(
                r2.erase_stats.total_latency,
                after2.total_latency.saturating_sub(after1.total_latency)
            );
            assert!(
                (r2.erase_stats.total_stress - (after2.total_stress - after1.total_stress)).abs()
                    < 1e-9
            );
            assert_eq!(
                r2.erase_stats.complete_erases,
                after2.complete_erases - after1.complete_erases
            );
            for bucket in 0..9 {
                assert_eq!(
                    r2.erase_stats.loop_histogram[bucket],
                    after2.loop_histogram[bucket] - after1.loop_histogram[bucket]
                );
            }
            assert!(
                r2.erase_stats.operations < after2.operations,
                "the second run must not re-report the first run's erases"
            );
            // Every drive counter is run-local too: r1 + r2 = lifetime.
            let lifetime = ssd.counters.diff(&before);
            assert_eq!(lifetime.diff(&run_counters(&r1)), run_counters(&r2));
            if faults {
                assert!(
                    !r1.health.read_only && r2.health.read_only,
                    "the second run must exhaust the spares"
                );
                for (name, value) in [
                    ("gc_invocations", lifetime.gc_invocations),
                    ("gc_page_moves", lifetime.gc_page_moves),
                    ("erase_suspensions", lifetime.erase_suspensions),
                    ("user_pages_written", lifetime.user_pages_written),
                    ("program_failures", lifetime.program_failures),
                    ("erase_failures", lifetime.erase_failures),
                    ("media_errors", lifetime.media_errors),
                    ("writes_rejected", lifetime.writes_rejected),
                ] {
                    assert!(value > 0, "the faulted runs must exercise {name}");
                }
                assert!(
                    lifetime.read_retry_histogram.iter().all(|&b| b > 0),
                    "every retry bucket must fire: {:?}",
                    lifetime.read_retry_histogram
                );
            }
        }
    }

    /// `fill_fraction` retries the next die instead of silently dropping
    /// pages when the round-robin target is out of space.
    #[test]
    fn fill_fraction_skips_full_dies() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        let logical = ssd.mapping.len() as u64;
        // Exhaust die 0 with high logical pages, leaving the low range for
        // the fill below.
        let mut lpn = logical - 1;
        while ssd.place_write(0, lpn).is_some() {
            lpn -= 1;
        }
        ssd.fill_fraction(0.3);
        let filled = (logical as f64 * 0.3) as u64;
        for l in 0..filled {
            let ppa = ssd
                .mapping
                .lookup(l)
                .expect("every page of the fill must be placed despite die 0 being full");
            assert_eq!(ppa.die, 1, "placements must land on the die with space");
        }
    }

    #[test]
    #[should_panic(expected = "drive is full")]
    fn fill_fraction_panics_when_drive_is_full() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        // Fills never garbage-collect, so overwriting the full logical space
        // twice genuinely exhausts physical space; that must be loud.
        ssd.fill_fraction(1.0);
        ssd.fill_fraction(1.0);
    }

    /// A drive whose addresses cannot pack into a page-mapping entry is
    /// refused up front instead of aliasing dies in the table.
    #[test]
    #[should_panic(expected = "65 dies x 24 blocks x 64 pages exceed the page mapping's 64")]
    fn unpackable_geometry_is_rejected() {
        let _ = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline).with_channel_layout(65, 1));
    }

    /// The program-latency scale is driven by the die's true mean PEC, not
    /// the wear of block 0.
    #[test]
    fn average_pec_tracks_die_mean_not_block_zero() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Dpes));
        let blocks = ssd.config.family.geometry.total_blocks();
        // Hammer block 0 of die 0 with erases: its own PEC climbs, but the
        // die-mean stays near zero.
        for _ in 0..6 {
            let _ = ssd.decide_erase(0, 0);
        }
        assert_eq!(
            ssd.dies[0].chip.wear(BlockAddr::new(0, 0)).unwrap().pec,
            6,
            "block 0 alone took the erases"
        );
        assert_eq!(ssd.dies[0].pec_sum, 6);
        assert_eq!(
            ssd.average_pec(0),
            ((6 + blocks / 2) / blocks) as u32,
            "the die mean must average over all {blocks} blocks"
        );
        assert_eq!(ssd.average_pec(0), 0, "6 erases over 24 blocks round to 0");
        // Preconditioning sets every block, so the mean is exact.
        ssd.precondition_wear(2_500);
        assert_eq!(ssd.average_pec(0), 2_500);
    }
}
