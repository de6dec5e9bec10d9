//! # aero-nand — NAND flash device substrate for the AERO reproduction
//!
//! This crate models the parts of a NAND flash chip that matter for erase-path
//! research: block/page organization, the Incremental Step Pulse Erasure
//! (ISPE) scheme with its erase-pulse (EP) and verify-read (VR) steps,
//! per-block erase characteristics with process variation, fail-bit dynamics,
//! wear accumulation, raw bit-error-rate (RBER) and ECC modelling. The
//! GET/SET FEATURE hooks that the AERO FTL uses to tune erase-pulse latency
//! and read back fail-bit counts are [`Chip`] methods
//! ([`Chip::set_erase_pulse`], [`Chip::run_erase_loop`]), which the erase
//! controller calls directly.
//!
//! The model is *parametric and statistical*: it does not simulate individual
//! cells, but per-block quantities (erase "dose", fail-bit counts, RBER) whose
//! distributions are calibrated to the real-device characterization published
//! in the AERO paper (ASPLOS 2024). Any erase-scheme logic that consumes
//! `N_ISPE`, fail-bit counts, minimum erase latencies, and RBER therefore
//! exercises the same decision paths it would against real silicon.
//!
//! ## Quick example
//!
//! ```
//! use aero_nand::{Chip, ChipConfig, ChipFamily, BlockAddr};
//!
//! # fn main() -> Result<(), aero_nand::NandError> {
//! let config = ChipConfig::new(ChipFamily::tlc_3d_48l()).with_seed(7);
//! let mut chip = Chip::new(config);
//! let block = BlockAddr::new(0, 0);
//! // Erase with the chip's default (worst-case) pulse latency until done.
//! let report = chip.erase_block_default(block)?;
//! assert!(report.completely_erased());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod chip;
pub mod chip_family;
pub mod erase;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod reliability;
pub mod timing;
pub mod wear;

pub use cell::{CellTechnology, DataPattern};
pub use chip::{BlockOverlay, Chip, ChipConfig, EraseReport};
pub use chip_family::ChipFamily;
pub use erase::characteristics::{BlockEraseState, EraseCharacteristics};
pub use erase::failbits::FailBitModel;
pub use erase::ispe::{EraseLoopOutcome, IspeEngine, IspeParams};
pub use error::NandError;
pub use fault::{recover_read, FaultConfig, FaultModel, ReadRecovery, MAX_READ_RETRIES};
pub use geometry::{BlockAddr, ChipGeometry, PageAddr, PlaneId};
pub use reliability::ecc::{EccConfig, EccOutcome};
pub use reliability::rber::{RberModel, RberSample};
pub use reliability::retention::RetentionSpec;
pub use timing::{Micros, NandTimings};
pub use wear::WearState;
