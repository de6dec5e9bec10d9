//! Chip families and their calibrated model parameters.
//!
//! The paper characterizes three kinds of Samsung NAND flash chips: 48-layer
//! 3D TLC (the primary devices), 2x-nm 2D TLC, and 48-layer 3D MLC (§5.5,
//! Figure 11). Each [`ChipFamily`] bundles the geometry, timing, cell
//! technology, and the calibrated constants of the erase/reliability model so
//! that the same AERO logic can be exercised against different device types.
//!
//! ## The dose/stress model in one paragraph
//!
//! Erasure progress is tracked as *dose*: normalized voltage-time units where
//! 0.5 ms of erase pulse at the first-loop erase voltage delivers 1.0 unit,
//! and loop `i` delivers `v(i) = 1 + (i-1)·voltage_step` units per 0.5 ms. A
//! block is completely erased once the delivered dose reaches its *required
//! dose*, which grows super-linearly with P/E cycles and varies across blocks
//! (process variation). Cell *damage* is tracked separately as *stress*:
//! `v(i)^stress_voltage_exponent` per 0.5 ms, because erasing at higher
//! voltage is disproportionately damaging — this is what makes incremental
//! stepping (ISPE) gentler than jumping straight to a high voltage, and what
//! AERO improves by trimming unnecessary pulse time.

use crate::cell::CellTechnology;
use crate::geometry::ChipGeometry;
use crate::timing::{Micros, NandTimings};

/// Calibrated constants for the per-block erase-difficulty ("dose") model.
///
/// Doses are in normalized units where one unit equals the dose delivered by
/// 0.5 ms of erase pulse at the first-loop erase voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EraseModelParams {
    /// Mean erase dose required by a brand-new (PEC = 0) block.
    pub base_dose: f64,
    /// Dose added at 1K P/E cycles for a block with average wear sensitivity;
    /// growth follows `dose_per_kpec * kpec^pec_growth_exponent`.
    pub dose_per_kpec: f64,
    /// Exponent of the super-linear dose growth with P/E cycles.
    pub pec_growth_exponent: f64,
    /// Standard deviation of the per-block intrinsic dose offset
    /// (process variation across blocks, independent of wear).
    pub block_sigma: f64,
    /// Log-normal sigma of the per-block wear-sensitivity multiplier (how
    /// quickly a given block's erase difficulty grows relative to the family
    /// average). This is the dominant source of block-to-block variation at
    /// high P/E-cycle counts.
    pub wear_sensitivity_sigma: f64,
    /// Standard deviation of the per-erase-operation jitter (temporal noise).
    pub operation_sigma: f64,
    /// Accumulated erase stress that corresponds to 1K P/E cycles of
    /// conventional (worst-case latency) cycling on a fresh block. Together
    /// with `stress_wear_exponent` it converts accumulated stress into the
    /// *effective* wear that drives erase-difficulty growth, so gentler erase
    /// schemes age blocks more slowly.
    pub stress_ref_per_kpec: f64,
    /// Exponent of the stress → effective-wear conversion
    /// (`effective_kpec = (stress / stress_ref_per_kpec)^(1/exponent)`),
    /// calibrated so conventional cycling maps back to its own P/E count.
    pub stress_wear_exponent: f64,
    /// Relative increase in erase voltage per ISPE loop
    /// (`V_ERASE(i) = V_ERASE(1) · (1 + (i-1) · voltage_step)`).
    pub voltage_step: f64,
    /// Exponent applied to the voltage factor when converting pulse time into
    /// cell *stress* (damage); > 1 makes high-voltage pulses disproportionately
    /// damaging.
    pub stress_voltage_exponent: f64,
    /// Maximum number of erase loops before the chip reports a permanent
    /// erase failure.
    pub max_loops: u32,
}

/// Calibrated constants for the fail-bit model.
///
/// Fail-bit counts are in the same arbitrary units the paper uses: the slope
/// `delta` is the decrease in fail bits per 0.5 ms of additional erase pulse,
/// and `gamma` is the floor reached just before complete erasure (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailBitParams {
    /// Fail-bit decrease per 0.5 ms of erase pulse (δ in the paper, ≈ 5000).
    pub delta: f64,
    /// Residual fail-bit count when 0.5 ms of erasing remains (γ ≪ δ).
    pub gamma: f64,
    /// Pass threshold `F_PASS`: the erase succeeds when the fail-bit count
    /// drops to or below this value.
    pub f_pass: f64,
    /// `F_HIGH` threshold: above this there is no room for latency reduction
    /// in the next loop.
    pub f_high: f64,
    /// Relative standard deviation of measurement noise on fail-bit counts.
    pub noise_rel_sigma: f64,
}

/// Calibrated constants for the reliability (RBER) model.
///
/// RBER values are expressed as *raw bit errors per 1 KiB codeword*, matching
/// the paper's figures (ECC capability 72, requirement 63).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityParams {
    /// Errors per 1 KiB for a fresh, completely erased, just-programmed block
    /// read back immediately.
    pub base_errors: f64,
    /// Errors added by the reference retention period (1 year at 30 °C) for a
    /// fresh block.
    pub retention_errors: f64,
    /// Errors added per unit of `(accumulated erase stress / 1000)` raised to
    /// `stress_exponent`.
    pub errors_per_stress: f64,
    /// Super-linear exponent applied to accumulated erase stress.
    pub stress_exponent: f64,
    /// Errors added per unit of `(accumulated program stress / 1000)`.
    pub errors_per_program_stress: f64,
    /// Errors added per normalized dose unit left un-erased when a block is
    /// programmed after insufficient erasure (already discounted for data
    /// randomization).
    pub errors_per_residual_unit: f64,
    /// Per-block standard deviation of the error level (process variation).
    pub block_sigma: f64,
}

/// A NAND flash chip family: geometry, timing, and calibrated model constants.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipFamily {
    /// Human-readable family name.
    pub name: String,
    /// Cell technology (SLC/MLC/TLC).
    pub cell: CellTechnology,
    /// Chip geometry.
    pub geometry: ChipGeometry,
    /// Operation timings.
    pub timings: NandTimings,
    /// Erase-difficulty model constants.
    pub erase: EraseModelParams,
    /// Fail-bit model constants.
    pub fail_bits: FailBitParams,
    /// Reliability model constants.
    pub reliability: ReliabilityParams,
}

impl ChipFamily {
    /// The 48-layer 3D TLC family used for the paper's main characterization
    /// (160 chips, default `tEP` = 3.5 ms).
    ///
    /// Calibration targets (from Figure 4):
    /// * PEC 0: every block needs a single loop; >70 % can be erased in 2.5 ms.
    /// * PEC 1K: ~76.5 % single-loop.
    /// * PEC 2K: essentially every block needs ≥ 2 loops (2–4).
    /// * PEC 3K: a large fraction (~40 %) of blocks need 3 loops.
    /// * PEC 3.5K: std-dev of mtBERS of a few ms.
    /// * PEC 5K: up to ~5 loops.
    pub fn tlc_3d_48l() -> Self {
        ChipFamily {
            name: "3D TLC 48-layer".to_string(),
            cell: CellTechnology::Tlc,
            geometry: ChipGeometry::paper_default(),
            timings: NandTimings::tlc_3d_default(),
            erase: EraseModelParams {
                base_dose: 4.4,
                dose_per_kpec: 2.3,
                pec_growth_exponent: 1.6,
                block_sigma: 0.8,
                wear_sensitivity_sigma: 0.35,
                operation_sigma: 0.35,
                stress_ref_per_kpec: 7_000.0,
                stress_wear_exponent: 2.2,
                voltage_step: 0.25,
                stress_voltage_exponent: 3.0,
                max_loops: 9,
            },
            fail_bits: FailBitParams {
                delta: 5_000.0,
                gamma: 450.0,
                f_pass: 96.0,
                f_high: 36_000.0,
                noise_rel_sigma: 0.03,
            },
            reliability: ReliabilityParams {
                base_errors: 9.0,
                retention_errors: 6.0,
                errors_per_stress: 0.084,
                stress_exponent: 1.1,
                errors_per_program_stress: 2.0,
                errors_per_residual_unit: 16.0,
                block_sigma: 1.6,
            },
        }
    }

    /// The 2x-nm 2D TLC family (Figure 11): smaller blocks, slower program,
    /// slightly different δ/γ, similar reliability envelope.
    pub fn tlc_2d_2xnm() -> Self {
        let mut f = ChipFamily::tlc_3d_48l();
        f.name = "2D TLC 2x-nm".to_string();
        f.geometry = ChipGeometry {
            planes: 4,
            blocks_per_plane: 512,
            pages_per_block: 384,
            page_size_bytes: 8 * 1024,
            wordlines_per_block: 128,
        };
        f.timings.program = Micros::from_micros(1_200);
        f.erase.base_dose = 4.0;
        f.erase.dose_per_kpec = 2.4;
        f.erase.block_sigma = 0.7;
        f.fail_bits.delta = 3_800.0;
        f.fail_bits.gamma = 350.0;
        f.fail_bits.f_high = 28_000.0;
        f.reliability.base_errors = 10.0;
        f.reliability.errors_per_stress = 0.090;
        f
    }

    /// The 48-layer 3D MLC family (Figure 11).
    pub fn mlc_3d_48l() -> Self {
        let mut f = ChipFamily::tlc_3d_48l();
        f.name = "3D MLC 48-layer".to_string();
        f.cell = CellTechnology::Mlc;
        f.geometry.pages_per_block = 1408;
        f.timings.program = Micros::from_micros(650);
        f.erase.base_dose = 4.2;
        f.erase.dose_per_kpec = 1.9;
        f.fail_bits.delta = 4_400.0;
        f.fail_bits.gamma = 400.0;
        f.fail_bits.f_high = 31_000.0;
        f.reliability.base_errors = 7.5;
        f.reliability.errors_per_stress = 0.075;
        f
    }

    /// A scaled-down family for fast unit tests: tiny geometry, same model
    /// constants as the 3D TLC family.
    pub fn small_test() -> Self {
        let mut f = ChipFamily::tlc_3d_48l();
        f.name = "test (small geometry 3D TLC)".to_string();
        f.geometry = ChipGeometry::small();
        f
    }

    /// Converts a block's accumulated erase stress into the effective wear (in
    /// thousands of "conventional" P/E cycles) that drives its
    /// erase-difficulty growth. Conventional cycling maps back onto its own
    /// P/E-cycle count; gentler schemes produce a lower effective wear.
    pub fn effective_kpec(&self, erase_stress: f64) -> f64 {
        (erase_stress.max(0.0) / self.erase.stress_ref_per_kpec)
            .powf(1.0 / self.erase.stress_wear_exponent)
    }

    /// Relative erase-voltage factor of ISPE loop `loop_index` (1-based). The
    /// ladder saturates at the chip's loop budget: real chips cannot raise
    /// `V_ERASE` indefinitely, so retries beyond `max_loops` reuse the highest
    /// voltage.
    pub fn voltage_factor(&self, loop_index: u32) -> f64 {
        assert!(loop_index >= 1, "loop index is 1-based");
        let index = loop_index.min(self.erase.max_loops);
        1.0 + (index as f64 - 1.0) * self.erase.voltage_step
    }

    /// Erasure dose delivered by a pulse of the given latency at ISPE loop
    /// `loop_index` (1-based), in normalized dose units.
    ///
    /// Loop 1 at 0.5 ms delivers exactly 1.0 unit; higher loops deliver more
    /// because the erase voltage is stepped up by `ΔV_ISPE`.
    pub fn dose_for_pulse(&self, loop_index: u32, pulse: Micros) -> f64 {
        self.voltage_factor(loop_index) * half_ms_units(pulse)
    }

    /// Cell *stress* (damage) inflicted by a pulse of the given latency at
    /// loop `loop_index`, with an optional erase-voltage scale (< 1.0 for
    /// schemes like DPES that lower the erase voltage).
    pub fn stress_for_pulse(&self, loop_index: u32, pulse: Micros, voltage_scale: f64) -> f64 {
        self.stress_factor(loop_index, voltage_scale) * half_ms_units(pulse)
    }

    /// Stress per 0.5 ms of pulse at loop `loop_index` under an erase-voltage
    /// scale: `(v(i) · voltage_scale)^stress_voltage_exponent`. It depends
    /// on the loop index only up to `max_loops`, where the voltage ladder
    /// saturates, so a chip can memoize it per loop.
    pub fn stress_factor(&self, loop_index: u32, voltage_scale: f64) -> f64 {
        assert!(voltage_scale.is_finite() && voltage_scale > 0.0);
        (self.voltage_factor(loop_index) * voltage_scale).powf(self.erase.stress_voltage_exponent)
    }

    /// Number of 0.5 ms pulse steps available within the default `tEP`.
    pub fn pulse_steps_per_loop(&self) -> u32 {
        let step = self.timings.erase_pulse_step.as_micros_f64();
        (self.timings.erase_pulse.as_micros_f64() / step).round() as u32
    }
}

/// A pulse's length in the dose and stress unit: 0.5 ms.
pub(crate) fn half_ms_units(pulse: Micros) -> f64 {
    pulse.as_micros_f64() / 500.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_have_distinct_names_and_cells() {
        let tlc3d = ChipFamily::tlc_3d_48l();
        let tlc2d = ChipFamily::tlc_2d_2xnm();
        let mlc3d = ChipFamily::mlc_3d_48l();
        assert_ne!(tlc3d.name, tlc2d.name);
        assert_ne!(tlc3d.name, mlc3d.name);
        assert_eq!(tlc3d.cell, CellTechnology::Tlc);
        assert_eq!(mlc3d.cell, CellTechnology::Mlc);
    }

    #[test]
    fn dose_scales_with_voltage_and_time() {
        let f = ChipFamily::tlc_3d_48l();
        let d1 = f.dose_for_pulse(1, Micros::from_millis_f64(0.5));
        assert!((d1 - 1.0).abs() < 1e-9);
        let d1_full = f.dose_for_pulse(1, Micros::from_millis_f64(3.5));
        assert!((d1_full - 7.0).abs() < 1e-9);
        let d2 = f.dose_for_pulse(2, Micros::from_millis_f64(0.5));
        assert!(d2 > d1);
        assert!((d2 - (1.0 + f.erase.voltage_step)).abs() < 1e-9);
    }

    #[test]
    fn stress_is_superlinear_in_voltage() {
        let f = ChipFamily::tlc_3d_48l();
        let pulse = Micros::from_millis_f64(0.5);
        let s1 = f.stress_for_pulse(1, pulse, 1.0);
        let s3 = f.stress_for_pulse(3, pulse, 1.0);
        let v3 = f.voltage_factor(3);
        // Stress grows faster than the dose (which is linear in voltage).
        assert!(s3 / s1 > v3);
        // Lowering the erase voltage lowers the stress superlinearly too.
        let s1_scaled = f.stress_for_pulse(1, pulse, 0.9);
        assert!(s1_scaled < s1 * 0.9);
    }

    #[test]
    fn pulse_steps_per_loop_matches_m_ispe_granularity() {
        let f = ChipFamily::tlc_3d_48l();
        assert_eq!(f.pulse_steps_per_loop(), 7);
    }

    #[test]
    fn fresh_blocks_fit_in_single_loop() {
        // base_dose + 3 sigma must stay below the 7 units a full first loop
        // delivers, matching the paper's observation that every fresh block is
        // erased in one loop.
        let f = ChipFamily::tlc_3d_48l();
        assert!(f.erase.base_dose + 3.0 * f.erase.block_sigma < 7.0);
        assert!(f.erase.base_dose - 3.0 * f.erase.block_sigma > 0.0);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn dose_for_pulse_rejects_zero_loop() {
        let f = ChipFamily::tlc_3d_48l();
        let _ = f.dose_for_pulse(0, Micros::from_millis_f64(0.5));
    }
}
