//! The m-ISPE measurement procedure (§5.1 of the paper).
//!
//! To measure a block's minimum erase latency, the paper modifies the ISPE
//! scheme in two ways: the fixed pulse latency is reduced from 3.5 ms to
//! 0.5 ms (splitting each erase loop into seven short loops), and the erase
//! voltage is stepped up only every seven short loops, so the voltage ladder
//! matches the original scheme. Observing the short loop at which the block
//! finally passes yields `N_ISPE` and `mtEP(N_ISPE)` at 0.5 ms granularity,
//! and the fail-bit count after every short loop gives the data behind
//! Figures 7–9.

use aero_nand::chip_family::ChipFamily;
use aero_nand::erase::ispe::IspeEngine;
use aero_nand::timing::Micros;
use rand_chacha::ChaCha12Rng;

/// One observation of the m-ISPE probe: the state after one 0.5 ms step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MIspeStep {
    /// The emulated ISPE loop this step belongs to (1-based).
    pub loop_index: u32,
    /// Accumulated pulse time within that loop, in 0.5 ms steps.
    pub steps_in_loop: u32,
    /// Fail-bit count after this step.
    pub fail_bits: u64,
    /// True if the pass condition was met.
    pub passed: bool,
}

/// Result of probing one block with the m-ISPE procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MIspeResult {
    /// Every 0.5 ms step observed, in order.
    pub steps: Vec<MIspeStep>,
    /// The emulated `N_ISPE` (loop in which the block passed).
    pub n_ispe: u32,
    /// The minimum final-loop pulse latency `mtEP(N_ISPE)`.
    pub m_t_ep: Micros,
}

impl MIspeResult {
    /// The block's total minimum erase latency `mtBERS` under the original
    /// ISPE timing (full loops before the final one, `mtEP` plus verify-read
    /// in the final one).
    pub fn m_t_bers(&self, family: &ChipFamily) -> Micros {
        let full_loop = family.timings.erase_pulse + family.timings.verify_read;
        full_loop * (self.n_ispe - 1) + self.m_t_ep + family.timings.verify_read
    }

    /// Fail-bit count observed just before the final loop (`F(N_ISPE - 1)`),
    /// i.e. the value FELP would use to predict `mtEP(N_ISPE)`. For
    /// single-loop blocks this is `None` (there is no previous loop).
    pub fn fail_bits_before_final_loop(&self) -> Option<u64> {
        self.steps
            .iter()
            .rfind(|s| s.loop_index < self.n_ispe)
            .map(|s| s.fail_bits)
    }

    /// Fail-bit count after a given accumulated pulse time in the final loop.
    pub fn fail_bits_in_final_loop(&self, steps_in_loop: u32) -> Option<u64> {
        self.steps
            .iter()
            .find(|s| s.loop_index == self.n_ispe && s.steps_in_loop == steps_in_loop)
            .map(|s| s.fail_bits)
    }
}

/// The m-ISPE probe: measures a block's erase behaviour at 0.5 ms resolution.
#[derive(Debug, Clone)]
pub struct MIspeProbe<'a> {
    family: &'a ChipFamily,
}

impl<'a> MIspeProbe<'a> {
    /// Creates a probe for a chip family.
    pub fn new(family: &'a ChipFamily) -> Self {
        MIspeProbe { family }
    }

    /// Probes a block whose current erase operation requires `required_dose`
    /// normalized dose units.
    pub fn probe(&self, required_dose: f64, rng: &mut ChaCha12Rng) -> MIspeResult {
        let steps_per_loop = self.family.pulse_steps_per_loop();
        let step_latency = self.family.timings.erase_pulse_step;
        let mut engine = IspeEngine::new(self.family, required_dose);
        let mut steps = Vec::new();
        let max_steps = self.family.erase.max_loops * steps_per_loop;
        for s in 0..max_steps {
            let loop_index = s / steps_per_loop + 1;
            let steps_in_loop = s % steps_per_loop + 1;
            engine.force_loop_index(loop_index);
            engine
                .set_next_pulse(step_latency)
                .expect("0.5 ms is always a valid pulse latency");
            let outcome = engine.run_loop(self.family, rng);
            steps.push(MIspeStep {
                loop_index,
                steps_in_loop,
                fail_bits: outcome.fail_bits,
                passed: outcome.passed,
            });
            if outcome.passed {
                return MIspeResult {
                    n_ispe: loop_index,
                    m_t_ep: step_latency * steps_in_loop,
                    steps,
                };
            }
        }
        // Exhausted the loop budget; report the final state.
        MIspeResult {
            n_ispe: self.family.erase.max_loops,
            m_t_ep: self.family.timings.erase_pulse,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(17)
    }

    #[test]
    fn small_dose_is_single_loop() {
        let family = ChipFamily::tlc_3d_48l();
        let probe = MIspeProbe::new(&family);
        let result = probe.probe(3.9, &mut rng());
        assert_eq!(result.n_ispe, 1);
        assert_eq!(result.m_t_ep, Micros::from_millis_f64(2.0));
        assert_eq!(result.m_t_bers(&family), Micros::from_millis_f64(2.1));
        assert!(result.fail_bits_before_final_loop().is_none());
    }

    #[test]
    fn large_dose_spans_multiple_loops() {
        let family = ChipFamily::tlc_3d_48l();
        let probe = MIspeProbe::new(&family);
        // Needs loop 1 (7 units) + loop 2 (8.75) + a bit of loop 3.
        let result = probe.probe(17.0, &mut rng());
        assert_eq!(result.n_ispe, 3);
        assert!(result.m_t_ep >= Micros::from_millis_f64(0.5));
        assert!(result.fail_bits_before_final_loop().is_some());
        // 7 steps in each of the first two loops plus the final partial loop.
        assert!(result.steps.len() > 14);
    }

    #[test]
    fn fail_bits_decrease_within_each_loop() {
        let family = ChipFamily::tlc_3d_48l();
        let probe = MIspeProbe::new(&family);
        let result = probe.probe(20.0, &mut rng());
        for pair in result.steps.windows(2) {
            if pair[0].loop_index == pair[1].loop_index {
                // Allow for the 3% measurement noise on large counts.
                let slack = (pair[0].fail_bits as f64 * 0.1).max(500.0) as u64;
                assert!(pair[1].fail_bits <= pair[0].fail_bits + slack);
            }
        }
    }

    #[test]
    fn probe_matches_ispe_decomposition() {
        use aero_nand::erase::characteristics::ispe_decomposition;
        let family = ChipFamily::tlc_3d_48l();
        let probe = MIspeProbe::new(&family);
        for dose in [2.0, 6.9, 9.0, 14.0, 22.0, 31.0] {
            let probed = probe.probe(dose, &mut rng());
            let analytic = ispe_decomposition(&family, dose);
            assert_eq!(probed.n_ispe, analytic.n_ispe, "dose {dose}");
            assert_eq!(probed.m_t_ep, analytic.final_pulse, "dose {dose}");
        }
    }
}
