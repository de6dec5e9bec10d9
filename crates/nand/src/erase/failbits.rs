//! Fail-bit model: the observable proxy for remaining erase dose.
//!
//! After every erase pulse, the verify-read (VR) step senses all wordlines
//! simultaneously and counts the number of *fail bits* — bitlines that still
//! contain at least one insufficiently-erased cell. The paper's key empirical
//! finding (Figure 7) is that this count falls **linearly** with accumulated
//! erase-pulse time: each extra 0.5 ms of pulse removes roughly δ ≈ 5,000 fail
//! bits, until a floor γ ≪ δ is reached just before complete erasure.
//!
//! The model below maps "remaining dose" (from
//! [`characteristics`](super::characteristics)) to a fail-bit count with that
//! exact structure, plus a small amount of multiplicative measurement noise.

use rand_chacha::ChaCha12Rng;

use crate::chip_family::FailBitParams;

/// Fail-bit model of a chip family.
///
/// The model is deliberately simple: with `r` normalized dose units remaining
/// (1 unit = 0.5 ms at first-loop voltage),
///
/// * `r <= 0`  → fail bits ≈ `F_PASS / 2` (completely erased; the count the VR
///   step reports is far below the pass threshold),
/// * `0 < r <= 1` → fail bits ≈ γ (the floor the paper observes for blocks
///   that need only one more 0.5 ms step),
/// * `r > 1`  → fail bits ≈ γ + δ·(r − 1) (the linear region).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailBitModel {
    params: FailBitParams,
}

impl FailBitModel {
    /// Creates the model from a family's fail-bit parameters.
    pub fn new(params: FailBitParams) -> Self {
        FailBitModel { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &FailBitParams {
        &self.params
    }

    /// Expected (noise-free) fail-bit count for a given remaining dose.
    pub fn expected_fail_bits(&self, remaining_dose: f64) -> f64 {
        let p = &self.params;
        if remaining_dose <= 0.0 {
            // Fully erased: only a handful of stragglers remain, safely below
            // F_PASS.
            (p.f_pass * 0.4).max(1.0)
        } else if remaining_dose <= 1.0 {
            // Needs at most one more 0.5 ms step: the γ floor.
            p.gamma
        } else {
            p.gamma + p.delta * (remaining_dose - 1.0)
        }
    }

    /// Fail-bit count with measurement noise, as reported by the on-chip
    /// counter after a verify-read step.
    pub fn observed_fail_bits(&self, remaining_dose: f64, rng: &mut ChaCha12Rng) -> u64 {
        let expected = self.expected_fail_bits(remaining_dose);
        let noise: f64 = 1.0 + self.params.noise_rel_sigma * gaussian(rng);
        (expected * noise.max(0.0)).round().max(0.0) as u64
    }

    /// True if a fail-bit count satisfies the ISPE pass condition.
    pub fn passes(&self, fail_bits: u64) -> bool {
        (fail_bits as f64) <= self.params.f_pass
    }

    /// True if a fail-bit count is above `F_HIGH`, i.e. the next loop has no
    /// room for pulse-latency reduction.
    pub fn is_high(&self, fail_bits: u64) -> bool {
        (fail_bits as f64) > self.params.f_high
    }

    /// Converts a fail-bit count into the equivalent remaining dose
    /// (the inverse of [`FailBitModel::expected_fail_bits`] on the linear
    /// region). Used by prediction logic and by tests.
    pub fn dose_for_fail_bits(&self, fail_bits: f64) -> f64 {
        let p = &self.params;
        if fail_bits <= p.f_pass {
            0.0
        } else if fail_bits <= p.gamma {
            1.0
        } else {
            1.0 + (fail_bits - p.gamma) / p.delta
        }
    }

    /// The fail-bit *range index* used by the paper's EPT (Table 1): ranges
    /// are `[0, γ]`, `(γ, δ]`, `(δ, 2δ]`, …, expressed as multiples of δ with
    /// the γ range as index 0.
    pub fn range_index(&self, fail_bits: u64) -> u32 {
        let f = fail_bits as f64;
        let p = &self.params;
        if f <= p.gamma {
            0
        } else {
            // (γ, δ] -> 1, (δ, 2δ] -> 2, ...
            (f / p.delta).ceil().max(1.0) as u32
        }
    }

    /// Number of gamma/delta fail-bit ranges needed to span counts up to
    /// `F_HIGH`.
    pub fn range_count(&self) -> u32 {
        self.range_index(self.params.f_high as u64) + 1
    }
}

fn gaussian(rng: &mut ChaCha12Rng) -> f64 {
    super::characteristics::gaussian(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip_family::ChipFamily;
    use rand::SeedableRng;

    fn model() -> FailBitModel {
        FailBitModel::new(ChipFamily::tlc_3d_48l().fail_bits)
    }

    #[test]
    fn linear_region_slope_is_delta() {
        let m = model();
        let delta = m.params().delta;
        let f3 = m.expected_fail_bits(3.0);
        let f4 = m.expected_fail_bits(4.0);
        assert!((f4 - f3 - delta).abs() < 1e-9, "slope must equal delta");
    }

    #[test]
    fn floor_is_gamma() {
        let m = model();
        assert_eq!(m.expected_fail_bits(0.7), m.params().gamma);
        assert_eq!(m.expected_fail_bits(1.0), m.params().gamma);
    }

    #[test]
    fn erased_block_passes() {
        let m = model();
        let f = m.expected_fail_bits(0.0);
        assert!(m.passes(f.round() as u64));
        assert!(!m.passes(m.params().gamma as u64));
    }

    #[test]
    fn monotone_decreasing_with_erasure() {
        let m = model();
        let mut prev = f64::INFINITY;
        for i in (0..=80).rev() {
            let dose = i as f64 / 10.0;
            let f = m.expected_fail_bits(dose);
            assert!(f <= prev + 1e-9);
            prev = f;
        }
    }

    #[test]
    fn observed_fail_bits_close_to_expected() {
        let m = model();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let expected = m.expected_fail_bits(4.0);
        let n = 2_000;
        let mean = (0..n)
            .map(|_| m.observed_fail_bits(4.0, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - expected).abs() / expected < 0.02);
    }

    #[test]
    fn dose_inversion_roundtrip() {
        let m = model();
        for dose in [1.5, 2.0, 3.7, 6.0] {
            let f = m.expected_fail_bits(dose);
            let back = m.dose_for_fail_bits(f);
            assert!((back - dose).abs() < 1e-9, "dose {dose} -> {f} -> {back}");
        }
    }

    #[test]
    fn range_indices_match_table1_structure() {
        let m = model();
        let gamma = m.params().gamma;
        let delta = m.params().delta;
        assert_eq!(m.range_index(0), 0);
        assert_eq!(m.range_index(gamma as u64), 0);
        assert_eq!(m.range_index(gamma as u64 + 1), 1);
        assert_eq!(m.range_index(delta as u64), 1);
        assert_eq!(m.range_index(delta as u64 + 1), 2);
        assert_eq!(m.range_index((2.0 * delta) as u64), 2);
        assert_eq!(m.range_index((6.5 * delta) as u64), 7);
        assert!(m.range_count() >= 8);
    }

    #[test]
    fn high_threshold() {
        let m = model();
        assert!(m.is_high(m.params().f_high as u64 + 1));
        assert!(!m.is_high(m.params().f_high as u64));
    }
}
