//! DPES — Dynamic Program and Erase Scaling (Jeong et al., FAST'14 / TC'17).
//!
//! DPES reduces erase-induced cell stress by lowering the erase voltage,
//! which narrows the threshold-voltage window available for the programmed
//! states; to keep the same reliability, programming must then form narrower
//! distributions, which takes longer (10–30 % higher `tPROG`). The AERO paper
//! models DPES as applicable only up to 3K P/E cycles on its chips: beyond
//! that, no amount of extra program time can compensate for the reduced
//! window, so DPES falls back to conventional behaviour.

use aero_nand::erase::ispe::EraseLoopOutcome;
use aero_nand::timing::Micros;

use crate::scheme::{BlockContext, EraseAction, EraseScheme};

/// Configuration of the DPES scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpesConfig {
    /// Relative erase-voltage reduction while DPES is active (paper: 8–10 %).
    pub voltage_scale: f64,
    /// Program-latency scale at low wear (paper Table 2: 385 µs / 350 µs = 1.1
    /// at 0.5K PEC).
    pub program_scale_low: f64,
    /// Program-latency scale near the applicability limit (paper Table 2:
    /// 455 µs / 350 µs = 1.3 at 2.5K PEC).
    pub program_scale_high: f64,
    /// P/E-cycle count beyond which DPES can no longer be applied.
    pub applicable_until_pec: u32,
}

impl Default for DpesConfig {
    fn default() -> Self {
        DpesConfig {
            voltage_scale: 0.90,
            program_scale_low: 1.1,
            program_scale_high: 1.3,
            applicable_until_pec: 3_000,
        }
    }
}

/// The DPES erase scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct Dpes {
    default_pulse: Micros,
    config: DpesConfig,
}

impl Dpes {
    /// Creates DPES with the given chip default pulse and configuration.
    pub fn new(default_pulse: Micros, config: DpesConfig) -> Self {
        Dpes {
            default_pulse,
            config,
        }
    }

    /// Creates DPES with the paper's parameters.
    pub fn paper_default() -> Self {
        Dpes::new(Micros::from_millis_f64(3.5), DpesConfig::default())
    }

    /// The scheme's configuration.
    pub fn config(&self) -> &DpesConfig {
        &self.config
    }

    /// True if DPES is still applicable at the given wear level.
    pub fn is_applicable(&self, pec: u32) -> bool {
        pec < self.config.applicable_until_pec
    }
}

impl Default for Dpes {
    fn default() -> Self {
        Dpes::paper_default()
    }
}

impl EraseScheme for Dpes {
    fn name(&self) -> &'static str {
        "DPES"
    }

    fn next_action(&mut self, _ctx: &BlockContext, history: &[EraseLoopOutcome]) -> EraseAction {
        match history.last() {
            Some(last) if last.passed => EraseAction::finish(),
            _ => EraseAction::pulse(self.default_pulse),
        }
    }

    fn program_latency_scale(&self, pec: u32) -> f64 {
        if !self.is_applicable(pec) {
            return 1.0;
        }
        // Interpolate between the low-wear and high-wear scales across the
        // applicability window (matching the paper's 1.1x at 0.5K PEC and
        // 1.3x at 2.5K PEC).
        let t = (pec as f64 / self.config.applicable_until_pec as f64).clamp(0.0, 1.0);
        self.config.program_scale_low
            + (self.config.program_scale_high - self.config.program_scale_low) * t * 1.2
    }

    fn erase_voltage_scale(&self, pec: u32) -> f64 {
        if self.is_applicable(pec) {
            self.config.voltage_scale
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::BlockId;

    #[test]
    fn applies_voltage_reduction_until_3k_pec() {
        let s = Dpes::paper_default();
        assert!((s.erase_voltage_scale(500) - 0.90).abs() < 1e-12);
        assert!((s.erase_voltage_scale(2_999) - 0.90).abs() < 1e-12);
        assert_eq!(s.erase_voltage_scale(3_000), 1.0);
        assert_eq!(s.erase_voltage_scale(4_500), 1.0);
    }

    #[test]
    fn program_latency_matches_paper_table2_points() {
        let s = Dpes::paper_default();
        // ~1.1x at 0.5K PEC, ~1.3x at 2.5K PEC, 1.0x once inapplicable.
        let at_500 = s.program_latency_scale(500);
        let at_2500 = s.program_latency_scale(2_500);
        assert!(
            (1.08..=1.18).contains(&at_500),
            "scale at 0.5K was {at_500}"
        );
        assert!(
            (1.25..=1.35).contains(&at_2500),
            "scale at 2.5K was {at_2500}"
        );
        assert_eq!(s.program_latency_scale(4_500), 1.0);
    }

    #[test]
    fn erase_policy_is_conventional() {
        let mut s = Dpes::paper_default();
        let ctx = BlockContext::new(BlockId(0), 500);
        assert_eq!(
            s.next_action(&ctx, &[]),
            EraseAction::pulse(Micros::from_millis_f64(3.5))
        );
    }

    #[test]
    fn custom_config_respected() {
        let s = Dpes::new(
            Micros::from_millis_f64(3.5),
            DpesConfig {
                voltage_scale: 0.85,
                program_scale_low: 1.2,
                program_scale_high: 1.4,
                applicable_until_pec: 1_000,
            },
        );
        assert!((s.erase_voltage_scale(999) - 0.85).abs() < 1e-12);
        assert_eq!(s.erase_voltage_scale(1_000), 1.0);
        assert!(s.program_latency_scale(0) >= 1.2);
    }
}
