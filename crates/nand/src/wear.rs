//! Per-block wear accounting.
//!
//! The paper attributes ~80 % of cell wear to erase operations because the
//! erase voltage is applied for milliseconds (vs. hundreds of microseconds for
//! a program). AERO's lifetime benefit comes precisely from reducing the
//! voltage-time product each erase applies, so wear is tracked as accumulated
//! *stress*: the normalized voltage-time dose delivered to the block over its
//! life, plus a smaller program-stress component.

/// Accumulated wear of one flash block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WearState {
    /// Number of completed program/erase cycles.
    pub pec: u32,
    /// Accumulated erase stress (normalized voltage-time dose summed over all
    /// erase pulses ever applied to the block).
    pub erase_stress: f64,
    /// Accumulated program stress (one unit per full-block program at the
    /// nominal program latency).
    pub program_stress: f64,
}

impl WearState {
    /// A brand-new block with no wear.
    pub fn new() -> Self {
        WearState::default()
    }

    /// Records the stress of one erase operation and increments the P/E-cycle
    /// count.
    ///
    /// `dose` is the total normalized voltage-time dose the operation applied
    /// (summed over all its erase pulses, including pulses delivered after the
    /// block was already fully erased — over-erasure still damages cells,
    /// which is the inefficiency AERO removes).
    pub fn record_erase(&mut self, dose: f64) {
        assert!(
            dose.is_finite() && dose >= 0.0,
            "erase dose must be non-negative"
        );
        self.erase_stress += dose;
        self.pec += 1;
    }

    /// Records the stress of programming pages in the block.
    ///
    /// `fraction_of_block` is the share of the block's pages programmed (1.0
    /// for a full-block program), and `latency_scale` captures schemes such as
    /// DPES that lengthen the program pulse (scale > 1 adds stress
    /// proportionally).
    pub fn record_program(&mut self, fraction_of_block: f64, latency_scale: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction_of_block),
            "fraction_of_block must be within [0, 1]"
        );
        assert!(latency_scale.is_finite() && latency_scale > 0.0);
        self.program_stress += fraction_of_block * latency_scale;
    }

    /// Thousands of P/E cycles, the unit the paper's plots use.
    pub fn kpec(&self) -> f64 {
        self.pec as f64 / 1000.0
    }

    /// Total stress with erase and program contributions weighted by the
    /// given reliability constants.
    pub fn weighted_stress(&self, errors_per_stress: f64, errors_per_program_stress: f64) -> f64 {
        self.erase_stress * errors_per_stress + self.program_stress * errors_per_program_stress
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erase_increments_pec_and_stress() {
        let mut w = WearState::new();
        w.record_erase(7.0);
        w.record_erase(5.0);
        assert_eq!(w.pec, 2);
        assert!((w.erase_stress - 12.0).abs() < 1e-12);
        assert!((w.kpec() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn program_stress_scales_with_latency() {
        let mut w = WearState::new();
        w.record_program(1.0, 1.0);
        w.record_program(1.0, 1.3);
        assert!((w.program_stress - 2.3).abs() < 1e-12);
        assert_eq!(w.pec, 0);
    }

    #[test]
    fn weighted_stress_combines_components() {
        let mut w = WearState::new();
        w.record_erase(10.0);
        w.record_program(1.0, 1.0);
        let s = w.weighted_stress(0.5, 0.1);
        assert!((s - (10.0 * 0.5 + 0.1)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dose_rejected() {
        let mut w = WearState::new();
        w.record_erase(-1.0);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn bad_program_fraction_rejected() {
        let mut w = WearState::new();
        w.record_program(1.5, 1.0);
    }
}
