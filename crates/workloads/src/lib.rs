//! # aero-workloads — storage workloads for the AERO evaluation
//!
//! The paper's system-level evaluation replays eleven block-I/O traces from
//! two public suites (Alibaba Cloud and MSR Cambridge). The traces themselves
//! are not redistributable, but the paper publishes their key statistics
//! (Table 3): read ratio, average request size, and average inter-request
//! arrival time. This crate provides:
//!
//! * [`request`] — the I/O request and trace data model;
//! * [`synth`] — a seeded synthetic generator that produces traces matching a
//!   target read ratio, request-size distribution, arrival process, and
//!   locality profile;
//! * [`catalog`] — the eleven workloads of Table 3, each expressed as a
//!   synthetic-generator configuration (with the MSRC 10× arrival-time
//!   acceleration the paper applies);
//! * [`trace`] — MSR-Cambridge-format CSV parsing (eager and line-by-line
//!   streaming), so users who do have the original traces can replay them
//!   directly;
//! * [`source`] — the [`WorkloadSource`] pull interface the SSD simulator's
//!   session API consumes, with adapters for traces ([`TraceSource`]) and
//!   arbitrary request iterators ([`IterSource`]);
//! * [`fuzz`] — deterministic seeded scenario generation (schemes ×
//!   layouts × wear × multi-phase sessions × multi-tenant plans) for the
//!   simulator's audit-driven scenario fuzzer;
//! * [`tenant`] — multi-tenant policy descriptions ([`ArbiterKind`],
//!   [`QueueFullPolicy`]) consumed by the simulator's host-interface layer.
//!
//! Workloads can be **materialized** (a [`Trace`] holding every request) or
//! **streamed** (a [`WorkloadSource`] yielding requests one at a time with
//! O(1) memory — see [`SyntheticWorkload::stream`] and
//! [`trace::MsrcSource`]):
//!
//! ```
//! use aero_workloads::catalog::WorkloadId;
//!
//! let spec = WorkloadId::AliA.spec();
//! // Materialized: a bounded, sorted Vec of requests.
//! let trace = spec.generate(2_000, 42);
//! assert_eq!(trace.len(), 2_000);
//! // Streamed: the same request sequence, generated lazily.
//! let streamed: Vec<_> = spec.synthetic().stream(42).take(2_000).collect();
//! assert_eq!(streamed.as_slice(), trace.requests());
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod fuzz;
pub mod request;
pub mod source;
pub mod synth;
pub mod tenant;
pub mod trace;

pub use catalog::{WorkloadId, WorkloadSpec};
pub use fuzz::{CrashPlan, FuzzScenario, MultiTenantPlan, PhasePlan, SessionPlan, TenantPlan};
pub use request::{IoOp, IoRequest, Trace};
pub use source::{IterSource, TraceSource, WorkloadSource};
pub use synth::{SyntheticStream, SyntheticWorkload};
pub use tenant::{ArbiterKind, QueueFullPolicy};
