//! # aero-ssd — an MQSim-like SSD simulator for the AERO evaluation
//!
//! This crate provides the system-level substrate the paper evaluates AERO
//! on: a multi-channel, multi-die SSD with a page-level FTL (greedy garbage
//! collection, over-provisioning, dynamic write striping), a per-die
//! transaction scheduler that gives user I/O priority over SSD-internal
//! operations, optional erase suspension at erase-loop granularity, and
//! nanosecond-resolution latency accounting with tail percentiles.
//!
//! Dies on the same channel share one data bus, as on the paper's 8 × 2
//! evaluation SSD: page data transfers serialize per channel (FCFS) while
//! NAND array time overlaps across dies, so the channel layout — not just
//! the die count — shapes read tail latency. Per-channel bus occupancy and
//! contention counters are reported in [`report::ChannelStats`], and every
//! [`RunReport`] is run-local: erase statistics (via
//! [`aero_core::EraseStats::diff`]), GC counters, suspension counts, and
//! channel accounting cover only that replay.
//!
//! Every physical die is backed by a full [`aero_nand::Chip`] model, and every
//! block erasure goes through an [`aero_core`] erase scheme, so the simulated
//! tail latency directly reflects how long each scheme keeps a die busy
//! erasing.
//!
//! # Driving the simulator
//!
//! Runs are **sessions**: [`Ssd::session`] opens a [`Simulation`] over any
//! [`aero_workloads::WorkloadSource`] (a trace, a lazy synthetic stream, a
//! line-by-line MSRC parser), which can be stepped event by event
//! ([`Simulation::step`]), advanced to a simulated timestamp
//! ([`Simulation::run_until`]), observed mid-run ([`Simulation::snapshot`],
//! [`session::SimObserver`]), or drained ([`Simulation::run_to_end`]).
//! Workload memory is O(1) for streamed sources and completion state lives
//! in an in-flight map, so run length is bounded by simulated work — not by
//! workload-in-RAM. [`Ssd::run_trace`] remains as a thin wrapper for the
//! common replay-a-trace case:
//!
//! ```
//! use aero_ssd::{Ssd, SsdConfig};
//! use aero_core::SchemeKind;
//! use aero_workloads::SyntheticWorkload;
//!
//! let config = SsdConfig::small_test(SchemeKind::Aero);
//! let mut ssd = Ssd::new(config);
//! ssd.fill_fraction(0.5);
//! let trace = SyntheticWorkload::default_test().generate(200, 1);
//! let report = ssd.run_trace(&trace);
//! assert_eq!(report.reads_completed + report.writes_completed, 200);
//! ```
//!
//! Streaming the same workload instead of materializing it:
//!
//! ```
//! use aero_ssd::{Ssd, SsdConfig};
//! use aero_core::SchemeKind;
//! use aero_workloads::{IterSource, SyntheticWorkload};
//!
//! let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
//! ssd.fill_fraction(0.5);
//! let source = IterSource::new(SyntheticWorkload::default_test().stream(1).take(200));
//! let report = ssd.session(source).run_to_end();
//! assert_eq!(report.reads_completed + report.writes_completed, 200);
//! ```
//!
//! # Auditing the simulator
//!
//! The [`audit`] module provides model-based differential testing of the
//! drive state itself: [`Ssd::audit`] verifies the FTL's global invariants
//! at any instant, a [`ShadowFtl`] reference model tracks every page write
//! and erase independently and is compared against the real FTL at
//! checkpoints, and an [`Auditor`] attaches both to a running session
//! ([`Simulation::attach_auditor`]). The [`scenario`] module executes
//! deterministic fuzz scenarios (from [`aero_workloads::fuzz`]) under the
//! auditor and shrinks failures to minimal request prefixes.
//!
//! # Snapshots and crash recovery
//!
//! The [`persist`] module serializes the full drive state — mapping, FTL
//! bookkeeping, per-block NAND wear and erase state, RNG streams, erase
//! statistics, scheme-private state — into a versioned, checksummed binary
//! snapshot ([`Ssd::save_snapshot`] / [`Ssd::restore_snapshot`]). A run
//! split across a save/restore continues byte-identically, and torn or
//! corrupted snapshots are rejected with a typed [`PersistError`] (the
//! restore path re-audits the decoded drive before returning it).
//! [`Simulation::crash_at`] models the power cut itself: it tears down a
//! running session mid-workload, dropping queued requests the way a real
//! power loss drops the in-flight queue.
//!
//! # Multi-tenant host interface
//!
//! The [`host`] module multiplexes several tenants onto one drive the way
//! an NVMe host does: a [`host::HostInterface`] owns per-tenant submission
//! queues (each fed by its own workload source, bounded by a per-queue
//! depth) and merges them into the session event loop under one of three
//! [`aero_workloads::tenant::ArbiterKind`] policies — round-robin,
//! weighted-share, or earliest-deadline. Completions are attributed back to
//! their tenant with queueing delay split from device latency, filling the
//! per-tenant [`report::TenantReport`] slices of the final [`RunReport`].

#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod ftl;
pub mod host;
pub mod latency;
pub mod persist;
pub mod report;
pub mod scenario;
pub mod session;
pub mod ssd;

pub use audit::{AuditReport, Auditor, Invariant, ShadowFtl, Violation};
pub use config::SsdConfig;
pub use host::{HostInterface, TenantConfig};
pub use latency::{LatencyRecorder, TailLatencies};
pub use persist::{
    apply_torn_write, PersistError, TornWrite, CHECKSUM_BYTES, FORMAT_VERSION, HEADER_BYTES, MAGIC,
};
pub use report::{ChannelStats, DriveHealth, RunReport, TenantReport};
pub use session::{CompletionStatus, SimObserver, Simulation};
pub use ssd::Ssd;
