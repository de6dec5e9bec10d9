//! # aero-bench — the experiment harness
//!
//! One entry point per table and figure of the paper's evaluation. Each
//! `figNN`/`tableN` binary in `src/bin/` is a thin wrapper around a function
//! in [`figures`] (device-level characterization studies) or [`system`]
//! (SSD-level trace-replay studies) that runs the experiment and prints the
//! regenerated series as an aligned text table.
//!
//! Every harness accepts a [`Scale`]: `Quick` runs a reduced population /
//! request count suited to laptops and CI, `Full` runs the paper-sized
//! configuration (160 × 120 blocks, full workload sweeps). Pass `full` as the
//! first CLI argument of any binary to select the full scale.
//!
//! ## Binary map
//!
//! Device-level (backed by [`figures`]): `fig04` (mtBERS distribution vs
//! PEC), `fig07` (fail bits vs pulse time), `fig08` (FELP accuracy), `fig09`
//! (shallow erasure), `fig10` (reliability margin), `fig11` (2D TLC / 3D
//! MLC), `fig13` (lifetime study), `table1` (the EPT), `table2` (SSD
//! configuration), `table3` (workload characteristics).
//!
//! System-level (backed by [`system`]): `fig14` (read tail latency per
//! workload), `fig15` (erase suspension), `fig16` (misprediction
//! sensitivity), `fig17` (RBER-requirement sensitivity), `table4` (average
//! latency / IOPS).
//!
//! Multi-tenant (backed by [`interference`]): `interference_study` — a
//! latency-sensitive reader against a write-heavy noisy neighbor, swept over
//! every erase scheme × arbitration policy, reporting per-tenant p99.99 tail
//! latency and the reader's inflation over its solo baseline.
//!
//! ```console
//! $ cargo run --release -p aero-bench --bin fig04          # quick scale
//! $ cargo run --release -p aero-bench --bin fig04 full     # paper scale
//! ```
//!
//! The three Criterion benches under `benches/` measure host-side model
//! overhead (scheme decision cost, characterization primitives, simulator
//! throughput) rather than simulated flash time.

#![warn(missing_docs)]

pub mod figures;
pub mod interference;
pub mod scale;
pub mod system;

pub use scale::Scale;
