//! # aero-characterize — the real-device characterization study, in silico
//!
//! The AERO paper grounds its design in measurements of 160 real 48-layer 3D
//! TLC NAND flash chips (plus 2D TLC and 3D MLC chips for generality). Those
//! chips are replaced here by a synthetic *population*: per-block erase
//! characteristics sampled from the calibrated process-variation model of
//! [`aero_nand`]. Every study of the paper's §5 is reproduced against that
//! population:
//!
//! * [`study::erase_latency_variation`] — Figure 4 (CDF of `mtBERS` vs PEC);
//! * [`study::failbit_vs_tep`] — Figure 7 (fail bits fall linearly with
//!   accumulated pulse time; slope δ, floor γ);
//! * [`study::felp_accuracy`] — Figure 8 (fail-bit range predicts `mtEP`);
//! * [`study::shallow_erase`] — Figure 9 (fail-bit distribution after the
//!   shallow probe for different `tSE`);
//! * [`study::reliability_margin`] — Figure 10 (`M_RBER` after complete vs
//!   insufficient erasure, against ECC capability and requirement);
//! * [`study::other_chip_type`] — Figure 11 (2D TLC and 3D MLC);
//! * [`lifetime_study`] — Figure 13 (average `M_RBER` vs PEC for the five
//!   erase schemes).

#![warn(missing_docs)]

pub mod lifetime_study;
pub mod mispe;
pub mod population;
pub mod report;
pub mod study;

pub use mispe::{MIspeProbe, MIspeResult};
pub use population::{BlockSample, Population, PopulationConfig};
