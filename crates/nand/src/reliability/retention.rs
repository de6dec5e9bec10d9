//! Retention specifications and accelerated-bake equivalence.
//!
//! NAND cells leak charge over time (retention loss), which adds raw bit
//! errors. The paper follows the JEDEC accelerated-lifetime methodology: a
//! 1-year retention period at 30 °C is emulated by baking chips at 85 °C for
//! 13 hours, per the Arrhenius relation. We model retention as a normalized
//! *severity* in [0, ~1.5] where 1.0 equals the paper's reference condition
//! (1 year at 30 °C), and provide the Arrhenius conversion so callers can
//! express conditions either as (duration, temperature) pairs or directly as
//! severities.

/// Boltzmann constant in eV/K.
const BOLTZMANN_EV: f64 = 8.617_333e-5;

/// Activation energy (eV) used for charge-loss acceleration. 1.1 eV is a
/// typical value for charge-trap NAND retention and is consistent with
/// 13 h @ 85 °C ≈ 1 year @ 30 °C.
const ACTIVATION_ENERGY_EV: f64 = 1.1;

/// A retention condition: how long data sits before being read, and at what
/// temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionSpec {
    /// Retention duration in hours.
    pub hours: f64,
    /// Storage temperature in degrees Celsius.
    pub celsius: f64,
}

impl RetentionSpec {
    /// The paper's reference worst-case requirement: 1 year at 30 °C.
    pub fn one_year_30c() -> Self {
        RetentionSpec {
            hours: 365.0 * 24.0,
            celsius: 30.0,
        }
    }

    /// The accelerated bake the paper uses to emulate the reference
    /// requirement: 13 hours at 85 °C.
    pub fn jedec_bake_13h_85c() -> Self {
        RetentionSpec {
            hours: 13.0,
            celsius: 85.0,
        }
    }

    /// No retention (data read back immediately after programming).
    pub fn immediate() -> Self {
        RetentionSpec {
            hours: 0.0,
            celsius: 30.0,
        }
    }

    /// Arrhenius acceleration factor of this condition relative to `reference`
    /// (how many times faster charge loss proceeds at this temperature).
    pub fn acceleration_factor_vs(&self, reference: &RetentionSpec) -> f64 {
        let t1 = self.celsius + 273.15;
        let t0 = reference.celsius + 273.15;
        (ACTIVATION_ENERGY_EV / BOLTZMANN_EV * (1.0 / t0 - 1.0 / t1)).exp()
    }

    /// Effective retention hours at the reference temperature that this
    /// condition is equivalent to.
    pub fn equivalent_hours_at(&self, reference: &RetentionSpec) -> f64 {
        self.hours * self.acceleration_factor_vs(reference)
    }

    /// Normalized retention severity: 1.0 equals the paper's reference
    /// condition (1 year at 30 °C). Severity grows sub-linearly (square root)
    /// with equivalent time, reflecting the early-dominated retention loss of
    /// charge-trap cells.
    pub fn severity(&self) -> f64 {
        let reference = RetentionSpec::one_year_30c();
        let eq_hours = self.equivalent_hours_at(&reference);
        (eq_hours / reference.hours).sqrt()
    }
}

impl Default for RetentionSpec {
    fn default() -> Self {
        RetentionSpec::one_year_30c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_severity_is_one() {
        let s = RetentionSpec::one_year_30c().severity();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn immediate_severity_is_zero() {
        assert_eq!(RetentionSpec::immediate().severity(), 0.0);
    }

    #[test]
    fn jedec_bake_emulates_one_year() {
        // 13 h at 85 °C should be within a factor ~2 of 1 year at 30 °C given
        // the chosen activation energy (the paper quotes them as equivalent).
        let bake = RetentionSpec::jedec_bake_13h_85c();
        let s = bake.severity();
        assert!(
            s > 0.6 && s < 1.6,
            "bake severity {s} should approximate 1.0"
        );
    }

    #[test]
    fn hotter_is_worse() {
        let cold = RetentionSpec {
            hours: 100.0,
            celsius: 30.0,
        };
        let hot = RetentionSpec {
            hours: 100.0,
            celsius: 55.0,
        };
        assert!(hot.severity() > cold.severity());
    }

    #[test]
    fn acceleration_factor_identity() {
        let r = RetentionSpec::one_year_30c();
        assert!((r.acceleration_factor_vs(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn severity_monotone_in_time() {
        let short = RetentionSpec {
            hours: 24.0 * 30.0,
            celsius: 30.0,
        };
        let long = RetentionSpec {
            hours: 24.0 * 300.0,
            celsius: 30.0,
        };
        assert!(long.severity() > short.severity());
    }
}
