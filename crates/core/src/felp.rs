//! FELP — Fail-bit-count-based Erase Latency Prediction.
//!
//! FELP is the prediction step of AERO: it turns the fail-bit count reported
//! by the previous verify-read step into the pulse latency of the next erase
//! loop by consulting the [`Ept`]. It also classifies whether a prediction
//! later turned out to be wrong (a *misprediction*), and supports injecting
//! artificial mispredictions for the paper's Figure 16 sensitivity study.

use aero_nand::chip_family::ChipFamily;
use aero_nand::erase::failbits::FailBitModel;
use aero_nand::timing::Micros;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::ept::{Ept, EptDecision};

/// The prediction FELP makes for the next erase loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FelpPrediction {
    /// The previous loop already satisfied the pass condition; nothing to do.
    AlreadyComplete,
    /// Skip the next loop; the block is left insufficiently erased on purpose.
    Skip,
    /// Run the next loop with this (possibly reduced) pulse latency, with the
    /// expectation that it completes the erasure.
    Pulse {
        /// Pulse latency to use.
        pulse: Micros,
        /// True if the latency was reduced below the default.
        reduced: bool,
        /// True if the reduction spends ECC margin (the block may legitimately
        /// end up insufficiently erased).
        spends_margin: bool,
    },
}

/// Fail-bit-count-based erase-latency predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct Felp {
    ept: Ept,
    fail_model: FailBitModel,
    aggressive: bool,
    /// Artificial misprediction rate in [0, 1] (Figure 16); a misprediction
    /// forces the predicted pulse to fall short by one 0.5 ms step.
    misprediction_rate: f64,
}

impl Felp {
    /// Creates a predictor for a chip family using the given EPT.
    pub fn new(family: &ChipFamily, ept: Ept, aggressive: bool) -> Self {
        Felp {
            ept,
            fail_model: FailBitModel::new(family.fail_bits),
            aggressive,
            misprediction_rate: 0.0,
        }
    }

    /// Enables artificial mispredictions at the given rate (for sensitivity
    /// studies).
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside [0, 1].
    pub fn with_misprediction_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "misprediction rate must be in [0, 1]"
        );
        self.misprediction_rate = rate;
        self
    }

    /// Whether this predictor spends the ECC-capability margin.
    pub fn is_aggressive(&self) -> bool {
        self.aggressive
    }

    /// The EPT used by this predictor.
    pub fn ept(&self) -> &Ept {
        &self.ept
    }

    /// The fail-bit model used for range classification.
    pub fn fail_model(&self) -> &FailBitModel {
        &self.fail_model
    }

    /// Predicts the action for erase loop `next_loop_index` (1-based) given
    /// the fail-bit count of the previous verify-read step.
    ///
    /// `rng` is used only when an artificial misprediction rate is configured.
    pub fn predict(
        &self,
        next_loop_index: u32,
        previous_fail_bits: u64,
        rng: &mut ChaCha12Rng,
    ) -> FelpPrediction {
        if self.fail_model.passes(previous_fail_bits) {
            return FelpPrediction::AlreadyComplete;
        }
        let decision = self.ept.decide(
            &self.fail_model,
            next_loop_index,
            previous_fail_bits,
            self.aggressive,
        );
        let mispredict =
            self.misprediction_rate > 0.0 && rng.gen::<f64>() < self.misprediction_rate;
        match decision {
            EptDecision::Skip => FelpPrediction::Skip,
            EptDecision::NoReduction => FelpPrediction::Pulse {
                pulse: self.ept.default_pulse(),
                reduced: false,
                spends_margin: false,
            },
            EptDecision::Pulse(pulse) => {
                let step = Micros::from_millis_f64(0.5);
                let pulse = if mispredict {
                    // A misprediction under-erases by one step; the controller
                    // pays an extra 0.5 ms loop afterwards.
                    pulse.saturating_sub(step).max(step)
                } else {
                    pulse
                };
                FelpPrediction::Pulse {
                    pulse,
                    reduced: true,
                    spends_margin: self.aggressive,
                }
            }
        }
    }

    /// Predicts the remainder-erasure latency after shallow erasure (the
    /// "row 1" lookup of Figure 12). Returns `Skip` when the aggressive mode
    /// decides the shallow pulse alone was enough.
    pub fn predict_remainder(
        &self,
        shallow_fail_bits: u64,
        rng: &mut ChaCha12Rng,
    ) -> FelpPrediction {
        self.predict(1, shallow_fail_bits, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn family() -> ChipFamily {
        ChipFamily::tlc_3d_48l()
    }

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(5)
    }

    #[test]
    fn pass_count_means_already_complete() {
        let f = family();
        let felp = Felp::new(&f, Ept::paper_table1(), false);
        let p = felp.predict(2, f.fail_bits.f_pass as u64, &mut rng());
        assert_eq!(p, FelpPrediction::AlreadyComplete);
    }

    #[test]
    fn conservative_predicts_reduced_pulse() {
        let f = family();
        let felp = Felp::new(&f, Ept::paper_table1(), false);
        let delta = f.fail_bits.delta as u64;
        match felp.predict(2, delta, &mut rng()) {
            FelpPrediction::Pulse {
                pulse,
                reduced,
                spends_margin,
            } => {
                assert_eq!(pulse, Micros::from_millis_f64(1.0));
                assert!(reduced);
                assert!(!spends_margin);
            }
            other => panic!("unexpected prediction {other:?}"),
        }
    }

    #[test]
    fn aggressive_skips_where_table_allows() {
        let f = family();
        let felp = Felp::new(&f, Ept::paper_table1(), true);
        let delta = f.fail_bits.delta as u64;
        assert_eq!(felp.predict(2, delta, &mut rng()), FelpPrediction::Skip);
        // Row 5 never skips.
        assert!(matches!(
            felp.predict(5, delta, &mut rng()),
            FelpPrediction::Pulse { .. }
        ));
    }

    #[test]
    fn high_fail_bits_mean_no_reduction() {
        let f = family();
        let felp = Felp::new(&f, Ept::paper_table1(), true);
        let high = f.fail_bits.f_high as u64 * 2;
        match felp.predict(2, high, &mut rng()) {
            FelpPrediction::Pulse { pulse, reduced, .. } => {
                assert_eq!(pulse, f.timings.erase_pulse);
                assert!(!reduced);
            }
            other => panic!("unexpected prediction {other:?}"),
        }
    }

    #[test]
    fn misprediction_shortens_pulse_sometimes() {
        let f = family();
        let felp = Felp::new(&f, Ept::paper_table1(), false).with_misprediction_rate(1.0);
        let two_delta = (2.0 * f.fail_bits.delta) as u64;
        match felp.predict(2, two_delta, &mut rng()) {
            FelpPrediction::Pulse { pulse, .. } => {
                // Table value 1.5 ms, shortened by one step.
                assert_eq!(pulse, Micros::from_millis_f64(1.0));
            }
            other => panic!("unexpected prediction {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "misprediction rate")]
    fn invalid_misprediction_rate_rejected() {
        let f = family();
        let _ = Felp::new(&f, Ept::paper_table1(), false).with_misprediction_rate(1.5);
    }

    #[test]
    fn shallow_remainder_uses_row_one() {
        let f = family();
        let felp = Felp::new(&f, Ept::paper_table1(), false);
        let two_delta = (2.0 * f.fail_bits.delta) as u64;
        match felp.predict_remainder(two_delta, &mut rng()) {
            FelpPrediction::Pulse { pulse, .. } => {
                assert_eq!(pulse, Micros::from_millis_f64(1.5));
            }
            other => panic!("unexpected prediction {other:?}"),
        }
    }
}
