//! Model-based differential testing for the simulator: a state auditor and
//! a shadow-FTL oracle.
//!
//! End-to-end report equality catches regressions in *measurements*, but
//! says nothing about whether the FTL's internal state stayed consistent
//! along the way — a leaked valid page, a dangling mapping entry, or a
//! free-list double-push can hide behind plausible aggregate latency
//! numbers for thousands of requests. This module checks the state itself,
//! two ways:
//!
//! * [`Ssd::audit`] verifies **global invariants at an instant**: the
//!   logical-to-physical map and every die's reverse map form a bijection
//!   over every written logical page (the advertised space and the
//!   out-of-range orphan overlay alike), each block's `valid_pages` counter equals
//!   the popcount of its validity bitmap, the block lifecycle state machine
//!   (Free → Open → Full → Collecting → Erasing → Free) is in a legal
//!   configuration, free-list membership matches block states and the state
//!   counts sum to the geometry, each die's running P/E-cycle sum matches
//!   an O(blocks) recount from the chip model, and the erase scheme's
//!   shallow-erasure bitmap (when it keeps one) is structurally sound.
//! * [`ShadowFtl`] is a deliberately simple **reference model** — a flat
//!   `lpn → (location, write-id)` table plus a plain `bool`-per-page
//!   validity mirror — updated from the same page-write and erase events
//!   the session publishes to observers, and compared against the real FTL
//!   at checkpoints. Divergence means the optimized bookkeeping and the
//!   obviously-correct bookkeeping disagree about what a read would return.
//!
//! An [`Auditor`] bundles both with a checkpoint cadence; attach it to a
//! run with [`crate::Simulation::attach_auditor`] and the session will
//! audit itself every N events. The deterministic scenario fuzzer
//! ([`crate::scenario`]) drives randomized workloads with an auditor
//! attached and shrinks any failure to a minimal request prefix.
//!
//! ```
//! use aero_core::SchemeKind;
//! use aero_ssd::audit::Auditor;
//! use aero_ssd::{Ssd, SsdConfig};
//! use aero_workloads::{IterSource, SyntheticWorkload};
//!
//! let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
//! ssd.fill_fraction(0.5);
//! let mut auditor = Auditor::new().check_every(256).with_oracle(&ssd);
//! let source = IterSource::new(SyntheticWorkload::default_test().stream(1).take(2_000));
//! let mut sim = ssd.session(source);
//! sim.attach_auditor(&mut auditor);
//! let report = sim.run_to_end();
//! assert!(auditor.is_clean(), "{:?}", auditor.violations());
//! assert_eq!(report.reads_completed + report.writes_completed, 2_000);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use aero_core::scheme::EraseScheme as _;

use crate::ftl::{BlockState, Ppa};
use crate::ssd::Ssd;

/// Hard cap on collected violations: a corrupted drive can break thousands
/// of entries at once, and the first few dozen carry all the signal.
pub(crate) const MAX_VIOLATIONS: usize = 64;

/// The invariant class a [`Violation`] belongs to, for programmatic
/// matching in tests (the human-readable specifics live in
/// [`Violation::detail`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// A mapped logical page whose physical location is out of range, not
    /// marked valid, or whose reverse-map entry names a different logical
    /// page.
    L2pMapping,
    /// A physical page whose reverse-map entry and validity bit disagree,
    /// or whose mapping entry does not point back at it.
    ReverseMapping,
    /// A block whose `valid_pages` counter disagrees with its bitmap
    /// popcount, exceeds its written pages, or marks unwritten pages valid.
    ValidCount,
    /// An illegal block-lifecycle configuration (frontier/Open mismatch,
    /// Full block not fully written, Collecting/Erasing without a matching
    /// erase job, …).
    BlockState,
    /// Free-list membership disagreeing with block states, duplicate or
    /// out-of-range free-list entries, or state counts that do not sum to
    /// the geometry.
    FreeAccounting,
    /// A die's running P/E-cycle sum disagreeing with a recount over the
    /// chip model's per-block wear.
    WearAccounting,
    /// A structurally unsound shallow-erasure bitmap on the erase scheme.
    SefBitmap,
    /// In-flight request accounting broken: slab ids not dense, live-count
    /// drift, or queued page transactions referencing dead requests.
    InFlight,
    /// Per-die scheduler clocks inconsistent: pending work without a
    /// scheduled wake-up, or a wake-up scheduled in the simulated past.
    SchedulerClock,
    /// The shadow oracle's logical-to-physical table diverged from the real
    /// FTL's.
    OracleMapping,
    /// The shadow oracle's page-validity mirror diverged from the real
    /// FTL's bitmap or reverse map (including double-programs of a live
    /// page).
    OracleValidity,
    /// An erase destroyed a page the oracle still considered live user
    /// data.
    OracleDataLoss,
    /// A die's wear counter moved backwards between checkpoints.
    OracleWear,
    /// A derived report metric that must be finite/zero came out NaN or
    /// infinite (used by the scenario driver's report sanity checks).
    ReportSanity,
    /// A snapshot round-trip broke its contract: a torn or corrupted
    /// snapshot restored without error, or a pristine snapshot failed to
    /// restore (used by the scenario driver's crash/restore phase).
    Persistence,
    /// Drive-health bookkeeping inconsistent: retired-block count drifting
    /// from the erase-failure counter, a read-only flag that disagrees
    /// with spare exhaustion, or a read-only drive that kept programming
    /// user pages.
    DriveHealth,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::L2pMapping => "l2p-mapping",
            Invariant::ReverseMapping => "reverse-mapping",
            Invariant::ValidCount => "valid-count",
            Invariant::BlockState => "block-state",
            Invariant::FreeAccounting => "free-accounting",
            Invariant::WearAccounting => "wear-accounting",
            Invariant::SefBitmap => "sef-bitmap",
            Invariant::InFlight => "in-flight",
            Invariant::SchedulerClock => "scheduler-clock",
            Invariant::OracleMapping => "oracle-mapping",
            Invariant::OracleValidity => "oracle-validity",
            Invariant::OracleDataLoss => "oracle-data-loss",
            Invariant::OracleWear => "oracle-wear",
            Invariant::ReportSanity => "report-sanity",
            Invariant::Persistence => "persistence",
            Invariant::DriveHealth => "drive-health",
        };
        f.write_str(name)
    }
}

/// One invariant violation found by an audit.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The invariant class that was broken.
    pub invariant: Invariant,
    /// Human-readable specifics (which die/block/page/lpn, expected vs
    /// found).
    pub detail: String,
}

impl Violation {
    /// Creates a violation (public so external drivers — e.g. the scenario
    /// fuzzer's report sanity checks — can report through the same channel).
    pub fn new(invariant: Invariant, detail: impl Into<String>) -> Self {
        Violation {
            invariant,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Records a violation, respecting the global cap.
pub(crate) fn record(out: &mut Vec<Violation>, invariant: Invariant, detail: impl Into<String>) {
    if out.len() < MAX_VIOLATIONS {
        out.push(Violation::new(invariant, detail));
    }
}

/// The result of one audit pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Every violation found (capped at an internal maximum, so a
    /// wholesale-corrupted drive does not produce millions of entries).
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True if no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean");
        }
        writeln!(f, "audit found {} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Test-support corruption kinds accepted by [`Ssd::debug_corrupt`]. Each
/// breaks exactly one bookkeeping link so tests can prove the auditor
/// catches it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Redirects a mapped logical page at a different physical page without
    /// updating any bookkeeping (dangling L2P entry).
    RemapLpn,
    /// Clears a mapped page's validity bit while leaving the mapping and
    /// reverse map in place (leaked page).
    DropValidBit,
    /// Increments a block's `valid_pages` counter without setting a bit.
    InflateValidCount,
    /// Pushes an in-use block onto the free list.
    FreeListDuplicate,
    /// Skews a die's running P/E-cycle sum away from the chip model.
    SkewPecSum,
}

impl Ssd {
    /// Audits the drive's global invariants at this instant. See the
    /// [module docs](crate::audit) for the list of checks; a clean report
    /// means the page mapping, reverse maps, validity bitmaps, block state
    /// machine, free-block accounting, wear sums, and SEF bitmap are all
    /// mutually consistent.
    pub fn audit(&self) -> AuditReport {
        let mut violations = Vec::new();
        self.collect_drive_violations(&mut violations);
        AuditReport { violations }
    }

    /// Deliberately corrupts one piece of FTL bookkeeping. Test support
    /// only: exists so the audit suite can prove each invariant check
    /// actually fires.
    #[doc(hidden)]
    pub fn debug_corrupt(&mut self, kind: CorruptionKind) {
        let pages_per_block = self.config.family.geometry.pages_per_block;
        // The first mapped logical page, for the mapping-level corruptions.
        let mapped = (0..self.mapping.len() as u64)
            .find_map(|lpn| self.mapping.lookup(lpn).map(|ppa| (lpn, ppa)));
        match kind {
            CorruptionKind::RemapLpn => {
                let (lpn, ppa) = mapped.expect("corruption needs at least one mapped page");
                let bogus = Ppa {
                    page: (ppa.page + 1) % pages_per_block,
                    ..ppa
                };
                self.mapping.update(lpn, bogus);
            }
            CorruptionKind::DropValidBit => {
                let (_, ppa) = mapped.expect("corruption needs at least one mapped page");
                self.dies[ppa.die as usize]
                    .ftl
                    .block_mut(ppa.block)
                    .mark_invalid(ppa.page);
            }
            CorruptionKind::InflateValidCount => {
                self.dies[0].ftl.block_mut(0).valid_pages += 1;
            }
            CorruptionKind::FreeListDuplicate => {
                let ftl = &mut self.dies[0].ftl;
                let busy = (0..ftl.block_count())
                    .find(|&b| ftl.block(b).state != BlockState::Free)
                    .expect("corruption needs at least one non-free block");
                ftl.debug_corrupt_free_list(busy);
            }
            CorruptionKind::SkewPecSum => {
                self.dies[0].pec_sum += 1;
            }
        }
    }

    /// Runs every drive-level invariant check, appending violations.
    pub(crate) fn collect_drive_violations(&self, out: &mut Vec<Violation>) {
        let geometry = self.config.family.geometry;
        let pages_per_block = geometry.pages_per_block;
        let blocks_per_die = geometry.total_blocks() as u32;

        // L2P → P2L: every mapped logical page — in the advertised table or
        // the out-of-range orphan overlay — points at an in-range, valid
        // physical page whose reverse-map entry points back.
        let table_entries = (0..self.mapping.len() as u64)
            .filter_map(|lpn| self.mapping.lookup(lpn).map(|ppa| (lpn, ppa)));
        for (lpn, ppa) in table_entries.chain(self.mapping.orphan_entries()) {
            if out.len() >= MAX_VIOLATIONS {
                return;
            }
            if ppa.die as usize >= self.dies.len()
                || ppa.block >= blocks_per_die
                || ppa.page >= pages_per_block
            {
                record(
                    out,
                    Invariant::L2pMapping,
                    format!("lpn {lpn} maps to out-of-range {ppa:?}"),
                );
                continue;
            }
            let die = &self.dies[ppa.die as usize];
            let back = die.p2l[(ppa.block * pages_per_block + ppa.page) as usize];
            if back != lpn {
                record(
                    out,
                    Invariant::L2pMapping,
                    format!("lpn {lpn} maps to {ppa:?} whose reverse entry is {back}"),
                );
            }
            let info = die.ftl.block(ppa.block);
            if !info.is_valid(ppa.page) {
                record(
                    out,
                    Invariant::L2pMapping,
                    format!("lpn {lpn} maps to {ppa:?} whose validity bit is clear"),
                );
            }
            if matches!(
                info.state,
                BlockState::Free | BlockState::Erasing | BlockState::Retired
            ) {
                record(
                    out,
                    Invariant::L2pMapping,
                    format!(
                        "lpn {lpn} maps to {ppa:?} on a block in state {:?}",
                        info.state
                    ),
                );
            }
        }

        for (die_idx, die) in self.dies.iter().enumerate() {
            // P2L ↔ validity bitmap, and the full bijection back through
            // the mapping — out-of-range logical pages included, since the
            // orphan overlay tracks them like any other mapping.
            for block in 0..blocks_per_die {
                let info = die.ftl.block(block);
                let mut popcount = 0u32;
                for page in 0..pages_per_block {
                    if out.len() >= MAX_VIOLATIONS {
                        return;
                    }
                    let valid = info.is_valid(page);
                    popcount += valid as u32;
                    let lpn = die.p2l[(block * pages_per_block + page) as usize];
                    if valid != (lpn != u64::MAX) {
                        record(
                            out,
                            Invariant::ReverseMapping,
                            format!(
                                "die {die_idx} block {block} page {page}: valid={valid} but \
                                 reverse entry {}",
                                if lpn == u64::MAX {
                                    "unset".to_string()
                                } else {
                                    format!("= {lpn}")
                                }
                            ),
                        );
                    }
                    if valid && lpn != u64::MAX {
                        let forward = self.mapping.lookup(lpn);
                        let here = Ppa {
                            die: die_idx as u32,
                            block,
                            page,
                        };
                        if forward != Some(here) {
                            record(
                                out,
                                Invariant::ReverseMapping,
                                format!(
                                    "die {die_idx} block {block} page {page} claims lpn {lpn}, \
                                     but the mapping says {forward:?}"
                                ),
                            );
                        }
                    }
                    if valid && page >= info.written_pages {
                        record(
                            out,
                            Invariant::ValidCount,
                            format!(
                                "die {die_idx} block {block}: page {page} valid beyond \
                                 written_pages {}",
                                info.written_pages
                            ),
                        );
                    }
                }
                if popcount != info.valid_pages {
                    record(
                        out,
                        Invariant::ValidCount,
                        format!(
                            "die {die_idx} block {block}: valid_pages {} but popcount {popcount}",
                            info.valid_pages
                        ),
                    );
                }
                if info.valid_pages > info.written_pages || info.written_pages > pages_per_block {
                    record(
                        out,
                        Invariant::ValidCount,
                        format!(
                            "die {die_idx} block {block}: valid {} / written {} / capacity \
                             {pages_per_block} out of order",
                            info.valid_pages, info.written_pages
                        ),
                    );
                }
            }

            self.collect_block_state_violations(die_idx, out);
            self.collect_wear_violations(die_idx, out);
        }

        // SEF bitmap structural soundness (AERO variants only; other
        // schemes keep no flags). Block ids are dense over dies × blocks
        // and the bitmap grows to the next power of two, so its length is
        // bounded by that of the largest legal id.
        if let Some(sef) = self.controller.scheme().shallow_flags() {
            let max_ids = self.dies.len() * blocks_per_die as usize;
            let bound = max_ids.next_power_of_two();
            if sef.len() > bound {
                record(
                    out,
                    Invariant::SefBitmap,
                    format!(
                        "SEF bitmap tracks {} blocks, beyond the {bound} reachable from \
                         {max_ids} drive block ids",
                        sef.len()
                    ),
                );
            }
            if sef.enabled_count() > sef.len() {
                record(
                    out,
                    Invariant::SefBitmap,
                    format!(
                        "SEF enabled_count {} exceeds tracked length {}",
                        sef.enabled_count(),
                        sef.len()
                    ),
                );
            }
        }

        self.collect_drive_health_violations(out);
    }

    /// Drive-health consistency: retirement accounting, the read-only
    /// transition rule, and the write freeze a read-only drive promises.
    fn collect_drive_health_violations(&self, out: &mut Vec<Violation>) {
        let retired: u64 = self
            .dies
            .iter()
            .map(|die| die.ftl.retired_block_count() as u64)
            .sum();
        // Every erase failure retires exactly one block, and nothing else
        // retires blocks, so the two counters must stay locked together.
        if retired != self.counters.erase_failures {
            record(
                out,
                Invariant::DriveHealth,
                format!(
                    "{retired} retired blocks across dies but erase_failures counter is {}",
                    self.counters.erase_failures
                ),
            );
        }
        let spares_exhausted = retired > 0 && retired >= self.config.spare_budget();
        // A die is space-wedged when it can neither program (no free page
        // slots) nor reclaim: no erase job, no queued migrations, and every
        // GC victim still carries live pages that have nowhere to go. The
        // session trips the read-only transition the moment a user write
        // lands on such a die, and nothing frees space afterwards, so the
        // predicate keeps holding at every later checkpoint.
        let space_wedged = self.dies.iter().any(|die| {
            die.ftl.free_page_slots() == 0
                && die.erase_job.is_none()
                && die.gc_moves.is_empty()
                && die
                    .ftl
                    .pick_gc_victim()
                    .is_none_or(|v| die.ftl.block(v).valid_pages > 0)
        });
        if self.read_only && !(spares_exhausted || space_wedged) {
            record(
                out,
                Invariant::DriveHealth,
                format!(
                    "read_only=true but neither cause holds: {retired} retired blocks \
                     against a spare budget of {} and no die is out of reclaimable space",
                    self.config.spare_budget()
                ),
            );
        }
        if !self.read_only && spares_exhausted {
            record(
                out,
                Invariant::DriveHealth,
                format!(
                    "read_only=false but {retired} retired blocks exhausted the spare \
                     budget of {}",
                    self.config.spare_budget()
                ),
            );
        }
        if self.read_only && self.counters.user_pages_written != self.read_only_user_pages_written {
            record(
                out,
                Invariant::DriveHealth,
                format!(
                    "read-only drive programmed user pages: {} written vs {} at the transition",
                    self.counters.user_pages_written, self.read_only_user_pages_written
                ),
            );
        }
    }

    /// Block lifecycle state machine + free-list accounting for one die.
    fn collect_block_state_violations(&self, die_idx: usize, out: &mut Vec<Violation>) {
        let die = &self.dies[die_idx];
        let blocks = die.ftl.block_count();
        let pages_per_block = self.config.family.geometry.pages_per_block;

        let mut state_counts = [0u32; 6];
        let mut open_blocks = Vec::new();
        for block in 0..blocks {
            let info = die.ftl.block(block);
            let state_idx = match info.state {
                BlockState::Free => 0,
                BlockState::Open => 1,
                BlockState::Full => 2,
                BlockState::Collecting => 3,
                BlockState::Erasing => 4,
                BlockState::Retired => 5,
            };
            state_counts[state_idx] += 1;
            match info.state {
                BlockState::Free => {
                    if info.written_pages != 0 || info.valid_pages != 0 {
                        record(
                            out,
                            Invariant::BlockState,
                            format!(
                                "die {die_idx} block {block} is Free with written {} / valid {}",
                                info.written_pages, info.valid_pages
                            ),
                        );
                    }
                }
                BlockState::Open => {
                    open_blocks.push(block);
                    if info.written_pages >= pages_per_block {
                        record(
                            out,
                            Invariant::BlockState,
                            format!(
                                "die {die_idx} block {block} is Open but fully written \
                                 ({} pages)",
                                info.written_pages
                            ),
                        );
                    }
                }
                BlockState::Full => {
                    if info.written_pages != pages_per_block {
                        record(
                            out,
                            Invariant::BlockState,
                            format!(
                                "die {die_idx} block {block} is Full with only {} of \
                                 {pages_per_block} pages written",
                                info.written_pages
                            ),
                        );
                    }
                }
                BlockState::Collecting | BlockState::Erasing => {}
                BlockState::Retired => {
                    if info.written_pages != 0 || info.valid_pages != 0 {
                        record(
                            out,
                            Invariant::BlockState,
                            format!(
                                "die {die_idx} block {block} is Retired but still holds written \
                                 {} / valid {} pages",
                                info.written_pages, info.valid_pages
                            ),
                        );
                    }
                }
            }
        }

        // The frontier is the unique Open block.
        match (die.ftl.frontier(), open_blocks.as_slice()) {
            (Some(f), [only]) if *only == f => {}
            (None, []) => {}
            (frontier, opens) => record(
                out,
                Invariant::BlockState,
                format!("die {die_idx}: frontier {frontier:?} vs Open blocks {opens:?}"),
            ),
        }

        // Collecting/Erasing blocks exist exactly while an erase job
        // references them (at most one victim per die at a time).
        let collecting_or_erasing: Vec<u32> = (0..blocks)
            .filter(|&b| {
                matches!(
                    die.ftl.block(b).state,
                    BlockState::Collecting | BlockState::Erasing
                )
            })
            .collect();
        match (&die.erase_job, collecting_or_erasing.as_slice()) {
            (Some(job), [victim]) if *victim == job.block => {
                let state = die.ftl.block(job.block).state;
                let legal = if job.started {
                    state == BlockState::Erasing
                } else {
                    state == BlockState::Collecting
                };
                if !legal {
                    record(
                        out,
                        Invariant::BlockState,
                        format!(
                            "die {die_idx} block {victim}: erase job started={} but state \
                             {state:?}",
                            job.started
                        ),
                    );
                }
            }
            (None, []) => {}
            (job, victims) => record(
                out,
                Invariant::BlockState,
                format!(
                    "die {die_idx}: erase job {:?} vs Collecting/Erasing blocks {victims:?}",
                    job.as_ref().map(|j| j.block)
                ),
            ),
        }

        // Free list: unique, in-range, and exactly the Free-state blocks.
        let free = die.ftl.free_block_ids();
        let mut seen = vec![false; blocks as usize];
        for &block in free {
            if block >= blocks {
                record(
                    out,
                    Invariant::FreeAccounting,
                    format!("die {die_idx}: free list holds out-of-range block {block}"),
                );
                continue;
            }
            if seen[block as usize] {
                record(
                    out,
                    Invariant::FreeAccounting,
                    format!("die {die_idx}: block {block} appears twice on the free list"),
                );
            }
            seen[block as usize] = true;
            if die.ftl.block(block).state != BlockState::Free {
                record(
                    out,
                    Invariant::FreeAccounting,
                    format!(
                        "die {die_idx}: free list holds block {block} in state {:?}",
                        die.ftl.block(block).state
                    ),
                );
            }
        }
        if free.len() as u32 != state_counts[0] {
            record(
                out,
                Invariant::FreeAccounting,
                format!(
                    "die {die_idx}: {} blocks on the free list but {} in state Free",
                    free.len(),
                    state_counts[0]
                ),
            );
        }
        if state_counts.iter().sum::<u32>() != blocks {
            record(
                out,
                Invariant::FreeAccounting,
                format!(
                    "die {die_idx}: state counts {state_counts:?} do not sum to {blocks} blocks"
                ),
            );
        }
    }

    /// Recounts a die's P/E cycles from the chip model and compares with
    /// the running sum the hot path maintains.
    fn collect_wear_violations(&self, die_idx: usize, out: &mut Vec<Violation>) {
        let geometry = self.config.family.geometry;
        let die = &self.dies[die_idx];
        let mut recount = 0u64;
        for block in 0..geometry.total_blocks() as usize {
            let addr = geometry.block_addr(block);
            match die.chip.wear(addr) {
                Ok(wear) => recount += wear.pec as u64,
                Err(e) => record(
                    out,
                    Invariant::WearAccounting,
                    format!("die {die_idx} block {block}: wear query failed: {e:?}"),
                ),
            }
        }
        if recount != die.pec_sum {
            record(
                out,
                Invariant::WearAccounting,
                format!(
                    "die {die_idx}: running pec_sum {} but chip recount {recount}",
                    die.pec_sum
                ),
            );
        }
    }
}

/// The shadow-FTL reference model.
///
/// Captured from a drive's state at attach time ([`ShadowFtl::capture`]),
/// then updated from the page-write and erase events the session publishes.
/// Its representation is chosen for obviousness, not speed: one sorted
/// `lpn → (Ppa, write_id)` map covering every logical page ever written
/// (in-range or beyond the advertised space), one `bool` per physical
/// page, and one plain `u64` reverse entry per physical page. Every update
/// rule is a direct restatement of what the FTL is *supposed* to do, so a
/// divergence found by [`verify`](ShadowFtl::capture) localizes a real
/// bookkeeping bug rather than a modeling subtlety.
#[derive(Debug, Clone)]
pub struct ShadowFtl {
    logical_pages: u64,
    pages_per_block: u32,
    /// lpn → (current location, id of the write that put it there). Write
    /// ids start at 1; pages captured from the pre-attach state carry id 0.
    map: BTreeMap<u64, (Ppa, u64)>,
    /// Per-die page-validity mirror, indexed `block * pages_per_block +
    /// page`.
    valid: Vec<Vec<bool>>,
    /// Per-die reverse-map mirror (`u64::MAX` = invalid).
    p2l: Vec<Vec<u64>>,
    next_write_id: u64,
    /// Per-die last-seen P/E-cycle sums, for cross-checkpoint wear
    /// monotonicity.
    last_pec_sum: Vec<u64>,
}

impl ShadowFtl {
    /// Snapshots the drive's current mapping, validity, and reverse maps as
    /// the oracle's starting state. Everything that happens before the
    /// capture (preconditioning fills, earlier sessions) is taken on trust;
    /// everything after is tracked independently.
    pub fn capture(ssd: &Ssd) -> Self {
        let geometry = ssd.config().family.geometry;
        let pages_per_block = geometry.pages_per_block;
        let blocks = geometry.total_blocks() as u32;
        let logical_pages = ssd.mapping().len() as u64;
        let mut map = BTreeMap::new();
        for lpn in 0..logical_pages {
            if let Some(ppa) = ssd.mapping().lookup(lpn) {
                map.insert(lpn, (ppa, 0));
            }
        }
        for (lpn, ppa) in ssd.mapping().orphan_entries() {
            map.insert(lpn, (ppa, 0));
        }
        let mut valid = Vec::new();
        let mut p2l = Vec::new();
        let mut last_pec_sum = Vec::new();
        for die in &ssd.dies {
            let mut die_valid = vec![false; (blocks * pages_per_block) as usize];
            for block in 0..blocks {
                let info = die.ftl.block(block);
                for page in info.valid_page_indices() {
                    die_valid[(block * pages_per_block + page) as usize] = true;
                }
            }
            valid.push(die_valid);
            p2l.push(die.p2l.clone());
            last_pec_sum.push(die.pec_sum);
        }
        ShadowFtl {
            logical_pages,
            pages_per_block,
            map,
            valid,
            p2l,
            next_write_id: 1,
            last_pec_sum,
        }
    }

    /// Number of writes the oracle has observed since capture.
    pub fn writes_observed(&self) -> u64 {
        self.next_write_id - 1
    }

    /// The oracle's view of a logical page: its physical location and the
    /// id of the write that produced its current contents (0 = captured
    /// from the pre-attach state).
    pub fn lookup(&self, lpn: u64) -> Option<(Ppa, u64)> {
        self.map.get(&lpn).copied()
    }

    /// Iterator over every mapped logical page the oracle knows:
    /// `(lpn, location, write_id)`, in ascending lpn order.
    pub fn written_lpns(&self) -> impl Iterator<Item = (u64, Ppa, u64)> + '_ {
        self.map.iter().map(|(&lpn, &(ppa, id))| (lpn, ppa, id))
    }

    /// The oracle's view of a physical page: the logical page stored there,
    /// if the page is live.
    pub fn page_content(&self, ppa: Ppa) -> Option<u64> {
        let idx = (ppa.block * self.pages_per_block + ppa.page) as usize;
        let die = self.valid.get(ppa.die as usize)?;
        if *die.get(idx)? {
            Some(self.p2l[ppa.die as usize][idx])
        } else {
            None
        }
    }

    /// Applies one observed page write (user or GC) to the reference model,
    /// reporting rule violations (double-program of a live page,
    /// invalidation of a page the oracle thought dead, a previous location
    /// that disagrees with the oracle's map).
    pub(crate) fn on_page_write(
        &mut self,
        lpn: u64,
        ppa: Ppa,
        previous: Option<Ppa>,
        out: &mut Vec<Violation>,
    ) {
        let write_id = self.next_write_id;
        self.next_write_id += 1;
        let idx = (ppa.block * self.pages_per_block + ppa.page) as usize;
        let Some(die_valid) = self.valid.get_mut(ppa.die as usize) else {
            record(
                out,
                Invariant::OracleValidity,
                format!("write {write_id}: placement {ppa:?} names a die the oracle lacks"),
            );
            return;
        };
        if idx >= die_valid.len() {
            record(
                out,
                Invariant::OracleValidity,
                format!("write {write_id}: placement {ppa:?} is out of range"),
            );
            return;
        }
        if die_valid[idx] {
            record(
                out,
                Invariant::OracleValidity,
                format!(
                    "write {write_id}: {ppa:?} programmed while the oracle still holds lpn {} \
                     there",
                    self.p2l[ppa.die as usize][idx]
                ),
            );
        }
        die_valid[idx] = true;
        self.p2l[ppa.die as usize][idx] = lpn;

        // The oracle's own record of the logical page's previous location
        // must agree with what the FTL just invalidated (out-of-range
        // logical pages included: the orphan overlay tracks them too).
        let expected_previous = self.map.get(&lpn).map(|&(p, _)| p);
        if previous != expected_previous {
            record(
                out,
                Invariant::OracleMapping,
                format!(
                    "write {write_id} of lpn {lpn}: FTL invalidated {previous:?} but the oracle \
                     expected {expected_previous:?}"
                ),
            );
        }
        if let Some(old) = previous {
            let old_idx = (old.block * self.pages_per_block + old.page) as usize;
            if let Some(old_die) = self.valid.get_mut(old.die as usize) {
                if let Some(slot) = old_die.get_mut(old_idx) {
                    if !*slot {
                        record(
                            out,
                            Invariant::OracleValidity,
                            format!(
                                "write {write_id}: previous location {old:?} was already dead in \
                                 the oracle"
                            ),
                        );
                    }
                    *slot = false;
                    self.p2l[old.die as usize][old_idx] = u64::MAX;
                }
            }
        }
        self.map.insert(lpn, (ppa, write_id));
    }

    /// Applies one observed block erase to the reference model. Any page
    /// still live in the oracle is data being destroyed — the FTL must
    /// have migrated or invalidated every live page (in-range or orphan)
    /// before erasing the block.
    pub(crate) fn on_erase(&mut self, die: usize, block: u32, out: &mut Vec<Violation>) {
        let Some(die_valid) = self.valid.get_mut(die) else {
            record(
                out,
                Invariant::OracleValidity,
                format!("erase of die {die} block {block}: oracle lacks that die"),
            );
            return;
        };
        for page in 0..self.pages_per_block {
            let idx = (block * self.pages_per_block + page) as usize;
            if idx >= die_valid.len() {
                record(
                    out,
                    Invariant::OracleValidity,
                    format!("erase of die {die} block {block}: page {page} out of range"),
                );
                return;
            }
            if die_valid[idx] {
                let lpn = self.p2l[die][idx];
                record(
                    out,
                    Invariant::OracleDataLoss,
                    format!(
                        "erase of die {die} block {block} destroyed live lpn {lpn} at page {page}"
                    ),
                );
            }
            die_valid[idx] = false;
            self.p2l[die][idx] = u64::MAX;
        }
    }

    /// Compares the reference model against the real FTL: the full
    /// logical-to-physical mapping (advertised table and orphan overlay,
    /// both directions), every validity bit, every reverse-map entry, and
    /// per-die wear monotonicity since the previous comparison.
    pub(crate) fn verify(&mut self, ssd: &Ssd, out: &mut Vec<Violation>) {
        // Oracle → real over everything the oracle knows, plus real → oracle
        // over everything the real FTL maps (table scan + orphan overlay),
        // so an entry missing on either side surfaces.
        let oracle_lpns = self.map.keys().copied();
        let table_lpns = (0..self.logical_pages).filter(|&lpn| ssd.mapping().lookup(lpn).is_some());
        let orphan_lpns = ssd.mapping().orphan_entries().map(|(lpn, _)| lpn);
        let mut lpns: Vec<u64> = oracle_lpns.chain(table_lpns).chain(orphan_lpns).collect();
        lpns.sort_unstable();
        lpns.dedup();
        for lpn in lpns {
            if out.len() >= MAX_VIOLATIONS {
                return;
            }
            let oracle = self.map.get(&lpn).map(|&(ppa, _)| ppa);
            let real = ssd.mapping().lookup(lpn);
            if oracle != real {
                record(
                    out,
                    Invariant::OracleMapping,
                    format!("lpn {lpn}: oracle says {oracle:?}, real FTL says {real:?}"),
                );
            }
        }
        let pages_per_block = self.pages_per_block;
        for (die_idx, die) in ssd.dies.iter().enumerate() {
            let blocks = die.ftl.block_count();
            for block in 0..blocks {
                let info = die.ftl.block(block);
                for page in 0..pages_per_block {
                    if out.len() >= MAX_VIOLATIONS {
                        return;
                    }
                    let idx = (block * pages_per_block + page) as usize;
                    let oracle_valid = self.valid[die_idx][idx];
                    let real_valid = info.is_valid(page);
                    if oracle_valid != real_valid {
                        record(
                            out,
                            Invariant::OracleValidity,
                            format!(
                                "die {die_idx} block {block} page {page}: oracle valid \
                                 {oracle_valid}, real {real_valid}"
                            ),
                        );
                    }
                    let oracle_lpn = self.p2l[die_idx][idx];
                    let real_lpn = die.p2l[idx];
                    if oracle_lpn != real_lpn {
                        record(
                            out,
                            Invariant::OracleValidity,
                            format!(
                                "die {die_idx} block {block} page {page}: oracle reverse entry \
                                 {oracle_lpn}, real {real_lpn}"
                            ),
                        );
                    }
                }
            }
            if die.pec_sum < self.last_pec_sum[die_idx] {
                record(
                    out,
                    Invariant::OracleWear,
                    format!(
                        "die {die_idx}: pec_sum regressed from {} to {}",
                        self.last_pec_sum[die_idx], die.pec_sum
                    ),
                );
            }
            self.last_pec_sum[die_idx] = die.pec_sum;
        }
    }
}

/// Checkpointed auditing for a simulation run.
///
/// Bundles the drive-level invariant checks with an optional [`ShadowFtl`]
/// oracle and a checkpoint cadence. Attach to a session with
/// [`crate::Simulation::attach_auditor`]; the session feeds it page-write
/// and erase events and runs a full checkpoint every
/// [`check_every`](Auditor::check_every) processed events (plus whenever
/// [`crate::Simulation::audit`] is called). Violations accumulate across
/// checkpoints and sessions — reuse one auditor across back-to-back
/// sessions on a drive to keep oracle continuity.
#[derive(Debug, Default)]
pub struct Auditor {
    pub(crate) oracle: Option<ShadowFtl>,
    check_every_events: u64,
    events_since_check: u64,
    checkpoints: u64,
    pub(crate) violations: Vec<Violation>,
}

impl Auditor {
    /// Creates an auditor with no oracle that checkpoints only on demand.
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Builder-style: run a full audit checkpoint every `events` processed
    /// simulation events (0 = only on demand / at explicit audits).
    #[must_use]
    pub fn check_every(mut self, events: u64) -> Self {
        self.check_every_events = events;
        self
    }

    /// Builder-style: capture a [`ShadowFtl`] oracle from the drive's
    /// current state. Call after preconditioning, before opening the
    /// session.
    #[must_use]
    pub fn with_oracle(mut self, ssd: &Ssd) -> Self {
        self.capture_oracle(ssd);
        self
    }

    /// Captures (or re-captures) the shadow oracle from the drive's current
    /// state.
    pub fn capture_oracle(&mut self, ssd: &Ssd) {
        self.oracle = Some(ShadowFtl::capture(ssd));
    }

    /// Read access to the attached oracle, if any.
    pub fn oracle(&self) -> Option<&ShadowFtl> {
        self.oracle.as_ref()
    }

    /// Every violation recorded so far (capped internally).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True while no violation has been recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of full checkpoints performed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The violations as an [`AuditReport`].
    pub fn report(&self) -> AuditReport {
        AuditReport {
            violations: self.violations.clone(),
        }
    }

    /// Runs a full checkpoint against the drive right now: every
    /// drive-level invariant plus (when an oracle is attached) the
    /// shadow-FTL comparison. Usable outside a session too — e.g. between
    /// back-to-back runs.
    pub fn checkpoint(&mut self, ssd: &Ssd) {
        self.checkpoints += 1;
        ssd.collect_drive_violations(&mut self.violations);
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.verify(ssd, &mut self.violations);
        }
    }

    /// Notes one processed simulation event; returns true when the cadence
    /// says a checkpoint is due. Once a violation has been recorded, no
    /// further cadence checkpoints fire: re-auditing a corrupted drive
    /// would only duplicate the first batch of findings (and exhaust the
    /// violation cap with copies), and the first checkpoint to notice is
    /// the one that localizes the bug.
    pub(crate) fn note_event(&mut self) -> bool {
        if self.check_every_events == 0 || !self.violations.is_empty() {
            return false;
        }
        self.events_since_check += 1;
        if self.events_since_check >= self.check_every_events {
            self.events_since_check = 0;
            true
        } else {
            false
        }
    }

    /// Forwards one observed page write to the oracle.
    pub(crate) fn observe_page_write(&mut self, lpn: u64, ppa: Ppa, previous: Option<Ppa>) {
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.on_page_write(lpn, ppa, previous, &mut self.violations);
        }
    }

    /// Forwards one observed erase to the oracle.
    pub(crate) fn observe_erase(&mut self, die: usize, block: u32) {
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.on_erase(die, block, &mut self.violations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use aero_core::SchemeKind;
    use aero_workloads::SyntheticWorkload;

    fn filled_drive(scheme: SchemeKind) -> Ssd {
        let mut ssd = Ssd::new(SsdConfig::small_test(scheme));
        ssd.fill_fraction(0.6);
        ssd
    }

    #[test]
    fn fresh_and_filled_drives_audit_clean() {
        let ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        assert!(ssd.audit().is_clean(), "{}", ssd.audit());
        let ssd = filled_drive(SchemeKind::Aero);
        assert!(ssd.audit().is_clean(), "{}", ssd.audit());
    }

    #[test]
    fn drive_audits_clean_after_a_gc_heavy_run() {
        let mut ssd = filled_drive(SchemeKind::Aero);
        let trace = SyntheticWorkload {
            read_ratio: 0.2,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        }
        .generate(3_000, 5);
        let report = ssd.run_trace(&trace);
        assert!(report.gc_invocations > 0, "the run must exercise GC");
        let audit = ssd.audit();
        assert!(audit.is_clean(), "{audit}");
    }

    #[test]
    fn every_corruption_kind_is_caught() {
        let cases = [
            (CorruptionKind::RemapLpn, Invariant::L2pMapping),
            (CorruptionKind::DropValidBit, Invariant::L2pMapping),
            (CorruptionKind::InflateValidCount, Invariant::ValidCount),
            (CorruptionKind::FreeListDuplicate, Invariant::FreeAccounting),
            (CorruptionKind::SkewPecSum, Invariant::WearAccounting),
        ];
        for (kind, expected) in cases {
            let mut ssd = filled_drive(SchemeKind::Baseline);
            assert!(ssd.audit().is_clean());
            ssd.debug_corrupt(kind);
            let audit = ssd.audit();
            assert!(
                audit.violations.iter().any(|v| v.invariant == expected),
                "{kind:?} must trip {expected:?}, got: {audit}"
            );
        }
    }

    #[test]
    fn oracle_capture_matches_the_drive_it_captured() {
        let ssd = filled_drive(SchemeKind::Baseline);
        let mut oracle = ShadowFtl::capture(&ssd);
        let mut violations = Vec::new();
        oracle.verify(&ssd, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(oracle.writes_observed(), 0);
        // Captured entries carry write id 0 and agree with the real map.
        let (lpn, ppa, id) = oracle.written_lpns().next().expect("drive is filled");
        assert_eq!(id, 0);
        assert_eq!(ssd.mapping().lookup(lpn), Some(ppa));
        assert_eq!(oracle.page_content(ppa), Some(lpn));
    }

    #[test]
    fn oracle_flags_divergence_after_unobserved_mutation() {
        let mut ssd = filled_drive(SchemeKind::Baseline);
        let mut oracle = ShadowFtl::capture(&ssd);
        // A write the oracle never sees: the real FTL moves on, the oracle
        // doesn't, and verification must notice.
        let lpn = 0;
        assert!(ssd.mapping().lookup(lpn).is_some());
        let die = (0..ssd.dies.len())
            .find(|&d| ssd.place_write(d, lpn).is_some())
            .expect("some die has space");
        let _ = die;
        let mut violations = Vec::new();
        oracle.verify(&ssd, &mut violations);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::OracleMapping),
            "{violations:?}"
        );
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::new(Invariant::ValidCount, "die 0 block 1: off by one");
        assert_eq!(v.to_string(), "[valid-count] die 0 block 1: off by one");
        let report = AuditReport {
            violations: vec![v],
        };
        assert!(!report.is_clean());
        assert!(report.to_string().contains("1 violation"));
        assert!(AuditReport::default().to_string().contains("clean"));
    }
}
