//! # aero-core — AERO: Adaptive ERase Operation
//!
//! This crate implements the paper's contribution: erase schemes that decide,
//! loop by loop, how long the next erase pulse of a NAND flash block should
//! be, plus the FTL-side data structures (Erase-timing Parameter Table and
//! Shallow-Erasure Flags) and the controller that drives a
//! [`aero_nand::Chip`] under any scheme.
//!
//! Five schemes are provided, matching the paper's evaluation (§7):
//!
//! * [`BaselineIspe`](baseline::BaselineIspe) — the conventional ISPE scheme
//!   (fixed worst-case pulse latency every loop);
//! * [`IntelligentIspe`](iispe::IntelligentIspe) — i-ISPE, which skips the
//!   early erase loops by jumping to the voltage of the last successful loop;
//! * [`Dpes`](dpes::Dpes) — Dynamic Program and Erase Scaling, which lowers
//!   the erase voltage (while it still can) at the cost of slower programs;
//! * [`Aero`](aero::Aero) in conservative mode (`AERO_CONS`) — fail-bit-based
//!   erase-latency prediction plus shallow erasure;
//! * [`Aero`](aero::Aero) in aggressive mode (`AERO`) — additionally spends
//!   the ECC-capability margin to shorten or skip the final loop.
//!
//! ## Quick example
//!
//! ```
//! use aero_core::{controller::EraseController, aero::Aero, scheme::BlockId};
//! use aero_nand::{Chip, ChipConfig, ChipFamily, BlockAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut chip = Chip::new(ChipConfig::new(ChipFamily::small_test()).with_seed(1));
//! let mut controller = EraseController::new(Aero::aggressive());
//! let exec = controller.erase(&mut chip, BlockAddr::new(0, 0), BlockId(0))?;
//! assert!(exec.report.total_latency <= chip.family().timings.erase_loop());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aero;
pub mod baseline;
pub mod config;
pub mod controller;
pub mod dpes;
pub mod ept;
pub mod felp;
pub mod fingerprint;
pub mod iispe;
pub mod lifetime;
pub mod scheme;
pub mod sef;
pub mod stats;
pub mod wire;

pub use aero::Aero;
pub use baseline::BaselineIspe;
pub use config::SchemeKind;
pub use controller::{EraseController, EraseExecution};
pub use dpes::Dpes;
pub use ept::Ept;
pub use felp::Felp;
pub use fingerprint::Fingerprint;
pub use iispe::IntelligentIspe;
pub use scheme::{BlockContext, BlockId, EraseAction, EraseScheme};
pub use sef::ShallowEraseFlags;
pub use stats::EraseStats;
