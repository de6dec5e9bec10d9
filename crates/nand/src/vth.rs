//! A coarse threshold-voltage (V_TH) distribution model.
//!
//! The AERO mechanism never inspects individual cell voltages, but a simple
//! V_TH abstraction is useful for two purposes: (i) explaining *why* fail-bit
//! counts fall linearly with accumulated erase-pulse time (each pulse shifts
//! the block's V_TH distribution downwards by an amount proportional to the
//! voltage-time product), and (ii) deriving the verify-read outcome (how many
//! bitlines still contain a cell above `V_VERIFY`).
//!
//! We model the upper tail of the per-block V_TH distribution as a normal
//! distribution whose mean moves down as erase dose accumulates. Fail bits are
//! the expected number of bitlines with at least one cell above the verify
//! voltage.

/// Summary of a block's threshold-voltage state during an erase operation.
///
/// All voltages are in arbitrary normalized units where the verify voltage is
/// at 0.0 and the pre-erase distribution mean starts positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VthDistribution {
    /// Mean of the upper (slow-to-erase) tail relative to `V_VERIFY`.
    pub mean: f64,
    /// Standard deviation of the tail.
    pub sigma: f64,
}

impl VthDistribution {
    /// Creates a distribution summary.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not strictly positive and finite.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
        VthDistribution { mean, sigma }
    }

    /// Shifts the distribution downwards by an erase dose (voltage-time
    /// product in normalized units).
    pub fn shifted_down(self, dose: f64) -> Self {
        VthDistribution {
            mean: self.mean - dose,
            ..self
        }
    }

    /// Fraction of cells still above the verify voltage (`V_TH > 0`).
    pub fn fraction_above_verify(self) -> f64 {
        // P(X > 0) for X ~ N(mean, sigma)
        normal_sf(-self.mean / self.sigma)
    }

    /// Expected number of fail *bitlines* among `bitlines` bitlines where each
    /// bitline holds `cells_per_bitline` cells: a bitline fails if any of its
    /// cells is above the verify voltage.
    pub fn expected_fail_bits(self, bitlines: u64, cells_per_bitline: u32) -> f64 {
        let p_cell = self.fraction_above_verify().clamp(0.0, 1.0);
        // P(bitline has >= 1 fail cell) = 1 - (1-p)^n
        let p_bitline = 1.0 - (1.0 - p_cell).powi(cells_per_bitline as i32);
        p_bitline * bitlines as f64
    }
}

/// Survival function of the standard normal distribution, `P(Z > x)`.
///
/// Uses the Abramowitz–Stegun style erfc approximation, accurate to ~1e-7,
/// which is more than enough for this model.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Cumulative distribution function of the standard normal distribution.
pub fn normal_cdf(x: f64) -> f64 {
    1.0 - normal_sf(x)
}

/// Complementary error function approximation.
fn erfc(x: f64) -> f64 {
    // Numerical Recipes rational approximation.
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_sf_reference_points() {
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_sf(1.0) - 0.158_655_25).abs() < 1e-6);
        assert!((normal_sf(-1.0) - 0.841_344_75).abs() < 1e-6);
        assert!(normal_sf(6.0) < 1e-8);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn shift_reduces_fail_fraction() {
        let d = VthDistribution::new(1.0, 0.5);
        let before = d.fraction_above_verify();
        let after = d.shifted_down(1.0).fraction_above_verify();
        assert!(after < before);
    }

    #[test]
    fn expected_fail_bits_monotone_in_mean() {
        let high = VthDistribution::new(0.5, 0.3).expected_fail_bits(1 << 17, 64);
        let low = VthDistribution::new(-0.5, 0.3).expected_fail_bits(1 << 17, 64);
        assert!(high > low);
        assert!(low >= 0.0);
        assert!(high <= (1 << 17) as f64);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn zero_sigma_rejected() {
        let _ = VthDistribution::new(0.0, 0.0);
    }
}
