//! Per-block erase characteristics: the "erase dose" model.
//!
//! Each block has an intrinsic erase difficulty that grows with wear and
//! varies across blocks due to process variation. We express difficulty as a
//! *required dose*: the voltage-weighted pulse time (in normalized units where
//! 0.5 ms at the first-loop erase voltage equals 1.0) needed to pull every
//! cell in the block below the verify voltage.
//!
//! The required dose of a block at `kpec` thousand P/E cycles is
//!
//! ```text
//! D = base_dose + offset_block + dose_per_kpec * kpec^growth_exponent * wear_sensitivity
//! ```
//!
//! where `offset_block` is a small Gaussian process-variation term and
//! `wear_sensitivity` is a log-normal multiplier. The log-normal term makes
//! the block-to-block spread grow with wear, which is what the paper's
//! Figure 4 shows: identical blocks at 0 PEC, a multi-millisecond spread in
//! minimum erase latency at 3.5K PEC.
//!
//! The ISPE engine draws a fresh required dose for every erase operation
//! (difficulty fluctuates slightly between operations) and then integrates the
//! dose delivered by each erase pulse; the remaining dose determines both the
//! verify-read outcome and the fail-bit count.

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::chip_family::ChipFamily;
use crate::timing::Micros;
use crate::wear::WearState;

/// Intrinsic, per-block erase characteristics (fixed at manufacturing time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EraseCharacteristics {
    /// Process-variation offset added to the family's base dose for this
    /// block (normalized dose units; may be negative for easy-to-erase
    /// blocks).
    pub dose_offset: f64,
    /// Per-block reliability offset (errors per 1 KiB added to or subtracted
    /// from the family's base error level).
    pub reliability_offset: f64,
    /// Per-block wear sensitivity multiplier (how quickly this block's erase
    /// difficulty grows with P/E cycling relative to the family average);
    /// log-normally distributed with median 1.0.
    pub wear_sensitivity: f64,
}

impl EraseCharacteristics {
    /// Samples the intrinsic characteristics of one block from the family's
    /// process-variation distributions.
    pub fn sample(family: &ChipFamily, rng: &mut ChaCha12Rng) -> Self {
        let dose_offset = truncated_gaussian(rng) * family.erase.block_sigma;
        let reliability_offset = gaussian(rng) * family.reliability.block_sigma;
        let wear_sensitivity = (gaussian(rng) * family.erase.wear_sensitivity_sigma).exp();
        EraseCharacteristics {
            dose_offset,
            reliability_offset,
            wear_sensitivity,
        }
    }

    /// Characteristics of a hypothetical perfectly average block.
    pub fn nominal() -> Self {
        EraseCharacteristics {
            dose_offset: 0.0,
            reliability_offset: 0.0,
            wear_sensitivity: 1.0,
        }
    }

    /// Mean required dose of this block at the given wear level.
    ///
    /// Erase difficulty is driven by the block's *effective* wear — its
    /// accumulated erase stress converted back into equivalent conventional
    /// P/E cycles — so schemes that erase more gently (AERO) also slow down
    /// the growth of the erase difficulty itself, while schemes that reach for
    /// high voltages early (i-ISPE at high wear) accelerate it.
    pub fn mean_required_dose(&self, family: &ChipFamily, wear: &WearState) -> f64 {
        let effective_kpec = family.effective_kpec(wear.erase_stress);
        let wear_dose = family.erase.dose_per_kpec
            * effective_kpec.powf(family.erase.pec_growth_exponent)
            * self.wear_sensitivity;
        (family.erase.base_dose + self.dose_offset + wear_dose).max(0.5)
    }

    /// Draws the required dose for one particular erase operation (mean plus
    /// operation-to-operation jitter).
    pub fn sample_required_dose(
        &self,
        family: &ChipFamily,
        wear: &WearState,
        rng: &mut ChaCha12Rng,
    ) -> f64 {
        let mean = self.mean_required_dose(family, wear);
        (mean + gaussian(rng) * family.erase.operation_sigma).max(0.25)
    }
}

/// Dynamic erase state of a block: whether it currently holds data, whether
/// its last erase completed, and how much residual charge (un-erased dose) it
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BlockEraseState {
    /// Freshly manufactured or fully erased; ready to be programmed.
    #[default]
    Erased,
    /// Erased, but the erase finished with the fail-bit count above `F_PASS`
    /// (insufficient erasure, used deliberately by AERO's aggressive mode).
    /// The payload is the residual dose left un-erased.
    PartiallyErased {
        /// Dose that would still have been required for complete erasure.
        residual_units: f64,
    },
    /// At least one page has been programmed since the last erase.
    Programmed,
}

impl BlockEraseState {
    /// Residual (un-erased) dose carried into the next program operation.
    pub fn residual_units(&self) -> f64 {
        match self {
            BlockEraseState::PartiallyErased { residual_units } => *residual_units,
            _ => 0.0,
        }
    }

    /// True if the block may legally be programmed (erase-before-write rule).
    pub fn is_programmable(&self) -> bool {
        matches!(
            self,
            BlockEraseState::Erased | BlockEraseState::PartiallyErased { .. }
        )
    }
}

/// The paper's `mtBERS` decomposition for a block: how many ISPE loops it
/// needs and the minimum pulse latency of the final loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimumEraseLatency {
    /// Number of erase loops required for complete erasure (`N_ISPE`).
    pub n_ispe: u32,
    /// Minimum erase-pulse latency of the final loop (`mtEP(N_ISPE)`).
    pub final_pulse: Micros,
}

impl MinimumEraseLatency {
    /// Total minimum erase latency `mtBERS = (N_ISPE - 1) * (tEP + tVR) +
    /// mtEP(N_ISPE) + tVR`.
    pub fn m_t_bers(&self, family: &ChipFamily) -> Micros {
        let full_loop = family.timings.erase_pulse + family.timings.verify_read;
        full_loop * (self.n_ispe - 1) + self.final_pulse + family.timings.verify_read
    }
}

/// Computes, from a required dose, the ISPE decomposition a conventional chip
/// would experience: how many full-`tEP` loops it takes and the minimum final
/// pulse latency, measured at the chip's pulse-step granularity (0.5 ms).
///
/// This mirrors the paper's m-ISPE measurement procedure (§5.1): the required
/// dose is consumed by successive loops, each loop delivering
/// `voltage_factor(i) * tEP` of dose, and within the final loop the minimum
/// pulse is the smallest multiple of the pulse step whose dose covers the
/// remainder.
pub fn ispe_decomposition(family: &ChipFamily, required_dose: f64) -> MinimumEraseLatency {
    assert!(required_dose.is_finite() && required_dose > 0.0);
    let steps_per_loop = family.pulse_steps_per_loop();
    let step = family.timings.erase_pulse_step;
    let mut remaining = required_dose;
    let mut loop_index = 1u32;
    loop {
        let full_loop_dose = family.dose_for_pulse(loop_index, family.timings.erase_pulse);
        if remaining <= full_loop_dose || loop_index >= family.erase.max_loops {
            // Final loop: find the minimum number of steps that covers the
            // remainder.
            let step_dose = family.dose_for_pulse(loop_index, step);
            let mut steps = (remaining / step_dose).ceil() as u32;
            steps = steps.clamp(1, steps_per_loop);
            return MinimumEraseLatency {
                n_ispe: loop_index,
                final_pulse: step * steps,
            };
        }
        remaining -= full_loop_dose;
        loop_index += 1;
    }
}

/// The wear state a nominal block reaches after `pec` P/E cycles of
/// conventional ISPE cycling (worst-case pulse latency every loop).
///
/// Used wherever a study or the chip model needs to pre-age a block "the way
/// the paper does" — the paper increases PEC by programming and erasing with
/// the default `tEP` — without simulating every intervening cycle.
pub fn baseline_equivalent_wear(family: &ChipFamily, pec: u32) -> WearState {
    let nominal = EraseCharacteristics::nominal();
    let mut wear = WearState {
        pec: 0,
        erase_stress: 0.0,
        program_stress: 0.0,
    };
    let chunk = 100u32;
    let mut cycled = 0u32;
    while cycled < pec {
        let step = chunk.min(pec - cycled);
        let dose = nominal.mean_required_dose(family, &wear);
        let n = ispe_decomposition(family, dose).n_ispe;
        let per_erase: f64 = (1..=n)
            .map(|i| family.stress_for_pulse(i, family.timings.erase_pulse, 1.0))
            .sum();
        wear.erase_stress += per_erase * step as f64;
        wear.program_stress += step as f64;
        wear.pec += step;
        cycled += step;
    }
    wear
}

/// Draws a standard normal variate truncated to ±3σ.
///
/// Used for the per-block intrinsic dose offset: process variation on
/// shipped blocks is physically bounded (outliers are screened out as bad
/// blocks at manufacturing), which is why the paper observes that *every*
/// fresh block erases in a single loop (Figure 4, PEC 0) — a guarantee the
/// family calibration expresses as `base_dose + 3σ < one full loop's dose`.
/// Clamping (rather than rejection-resampling) keeps the RNG stream
/// position identical whether or not the tail is hit, so seeded simulations
/// stay reproducible across model revisions.
pub(crate) fn truncated_gaussian(rng: &mut ChaCha12Rng) -> f64 {
    gaussian(rng).clamp(-3.0, 3.0)
}

/// Draws a standard normal variate using the Box–Muller transform.
pub(crate) fn gaussian(rng: &mut ChaCha12Rng) -> f64 {
    // Box-Muller with rejection of u1 == 0.
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(42)
    }

    fn sample_n_ispe(pec: u32, samples: usize) -> Vec<u32> {
        let family = ChipFamily::tlc_3d_48l();
        let wear = baseline_equivalent_wear(&family, pec);
        let mut r = rng();
        (0..samples)
            .map(|_| {
                let c = EraseCharacteristics::sample(&family, &mut r);
                let dose = c.sample_required_dose(&family, &wear, &mut r);
                ispe_decomposition(&family, dose).n_ispe
            })
            .collect()
    }

    #[test]
    fn fresh_block_single_loop() {
        let loops = sample_n_ispe(0, 300);
        assert!(
            loops.iter().all(|&n| n == 1),
            "fresh blocks must erase in a single loop"
        );
    }

    #[test]
    fn most_blocks_single_loop_at_1k_pec() {
        // 4000 samples: the model's true fraction here is ~0.57, so the
        // sampling noise (sigma ~0.008) keeps this comfortably inside the
        // band; at 500 samples the test sat within one sigma of the floor.
        let loops = sample_n_ispe(1_000, 4_000);
        let single = loops.iter().filter(|&&n| n == 1).count() as f64 / loops.len() as f64;
        // Paper: 76.5% single-loop at 1K PEC. Accept a generous band.
        assert!(
            (0.55..=0.95).contains(&single),
            "single-loop fraction at 1K PEC was {single}"
        );
    }

    #[test]
    fn almost_all_blocks_multi_loop_at_2k_pec() {
        let loops = sample_n_ispe(2_000, 4_000);
        let multi = loops.iter().filter(|&&n| n >= 2).count() as f64 / loops.len() as f64;
        assert!(multi > 0.95, "multi-loop fraction at 2K PEC was {multi}");
        assert!(
            loops.iter().all(|&n| n <= 4),
            "at 2K PEC blocks need 2-4 loops"
        );
    }

    #[test]
    fn loop_count_grows_to_about_five_by_5k_pec() {
        let loops = sample_n_ispe(5_000, 500);
        let max = *loops.iter().max().unwrap();
        let mean = loops.iter().sum::<u32>() as f64 / loops.len() as f64;
        assert!((4..=7).contains(&max), "max loops at 5K PEC was {max}");
        assert!(
            (3.0..=5.5).contains(&mean),
            "mean loops at 5K PEC was {mean}"
        );
    }

    #[test]
    fn spread_grows_with_pec() {
        let family = ChipFamily::tlc_3d_48l();
        let spread = |pec: u32| {
            let wear = baseline_equivalent_wear(&family, pec);
            let mut r = rng();
            let lat: Vec<f64> = (0..400)
                .map(|_| {
                    let c = EraseCharacteristics::sample(&family, &mut r);
                    let dose = c.sample_required_dose(&family, &wear, &mut r);
                    ispe_decomposition(&family, dose)
                        .m_t_bers(&family)
                        .as_millis_f64()
                })
                .collect();
            let mean = lat.iter().sum::<f64>() / lat.len() as f64;
            (lat.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / lat.len() as f64).sqrt()
        };
        let s0 = spread(0);
        let s35 = spread(3_500);
        assert!(
            s35 > 2.5 * s0,
            "mtBERS spread must grow with wear (s0={s0:.2}ms, s3.5K={s35:.2}ms)"
        );
        // The paper reports a std-dev of ~2.7 ms at 3.5K PEC.
        assert!(
            (1.0..=5.0).contains(&s35),
            "mtBERS std-dev at 3.5K PEC was {s35:.2}ms"
        );
    }

    #[test]
    fn decomposition_monotone_in_dose() {
        let family = ChipFamily::tlc_3d_48l();
        let mut prev = Micros::ZERO;
        for dose_tenths in 1..400u32 {
            let dose = dose_tenths as f64 / 10.0;
            let d = ispe_decomposition(&family, dose);
            let total = d.m_t_bers(&family);
            assert!(total >= prev, "mtBERS must be monotone in required dose");
            prev = total;
        }
    }

    #[test]
    fn decomposition_final_pulse_bounds() {
        let family = ChipFamily::tlc_3d_48l();
        for dose_tenths in 1..400u32 {
            let d = ispe_decomposition(&family, dose_tenths as f64 / 10.0);
            assert!(d.final_pulse >= family.timings.erase_pulse_min);
            assert!(d.final_pulse <= family.timings.erase_pulse);
            assert!(d.n_ispe >= 1 && d.n_ispe <= family.erase.max_loops);
        }
    }

    #[test]
    fn m_t_bers_formula() {
        let family = ChipFamily::tlc_3d_48l();
        let d = MinimumEraseLatency {
            n_ispe: 3,
            final_pulse: Micros::from_millis_f64(1.5),
        };
        // 2 full loops (3.6ms each) + final pulse 1.5ms + VR 0.1ms = 8.8ms
        assert_eq!(d.m_t_bers(&family), Micros::from_micros(8_800));
    }

    #[test]
    fn block_state_rules() {
        assert!(BlockEraseState::Erased.is_programmable());
        assert!(BlockEraseState::PartiallyErased {
            residual_units: 0.4
        }
        .is_programmable());
        assert!(!BlockEraseState::Programmed.is_programmable());
        assert_eq!(
            BlockEraseState::PartiallyErased {
                residual_units: 0.4
            }
            .residual_units(),
            0.4
        );
        assert_eq!(BlockEraseState::Erased.residual_units(), 0.0);
    }

    #[test]
    fn gaussian_has_roughly_unit_variance() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn wear_sensitivity_lognormal_median_near_one() {
        let family = ChipFamily::tlc_3d_48l();
        let mut r = rng();
        let mut sens: Vec<f64> = (0..2_000)
            .map(|_| EraseCharacteristics::sample(&family, &mut r).wear_sensitivity)
            .collect();
        sens.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sens[sens.len() / 2];
        assert!(
            (median - 1.0).abs() < 0.05,
            "median wear sensitivity {median}"
        );
        assert!(sens.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn nominal_block_dose_matches_base_at_zero_pec() {
        let family = ChipFamily::tlc_3d_48l();
        let wear = WearState::new();
        let d = EraseCharacteristics::nominal().mean_required_dose(&family, &wear);
        assert!((d - family.erase.base_dose).abs() < 1e-12);
    }
}
