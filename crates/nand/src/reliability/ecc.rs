//! ECC capability model.
//!
//! Modern SSDs protect each 1 KiB codeword with strong LDPC-style ECC. The
//! paper's chips use an ECC capability of 72 raw bit errors per 1 KiB, with a
//! conservative *RBER requirement* of 63 errors (a safety margin against
//! sampling error): a block is considered unusable once its maximum RBER
//! exceeds the requirement. AERO's aggressive mode spends part of the
//! remaining margin (requirement − observed errors) on shorter erase pulses.

use crate::timing::Micros;

/// ECC configuration of an SSD controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccConfig {
    /// Maximum correctable raw bit errors per 1 KiB codeword.
    pub capability_per_kib: u32,
    /// RBER requirement per 1 KiB: the threshold used to declare a block
    /// unusable (includes a sampling-error safety margin below the raw
    /// capability).
    pub requirement_per_kib: u32,
    /// Hard-decision decode latency (hidden behind sensing/transfer in
    /// practice).
    pub hard_decode_latency: Micros,
    /// Soft-decision decode latency, paid only when hard decoding fails.
    pub soft_decode_latency: Micros,
    /// Probability that hard decoding fails when the error count is within
    /// the requirement (kept < 1e-5 per the paper's discussion).
    pub hard_failure_rate: f64,
}

impl EccConfig {
    /// The paper's configuration: 72-bit capability, 63-bit requirement,
    /// 8 µs hard-decision decode.
    pub fn paper_default() -> Self {
        EccConfig {
            capability_per_kib: 72,
            requirement_per_kib: 63,
            hard_decode_latency: Micros::from_micros(8),
            soft_decode_latency: Micros::from_micros(80),
            hard_failure_rate: 1e-5,
        }
    }

    /// A configuration with a weaker requirement, used by the Figure 17
    /// sensitivity study (requirement 40 or 50 bits per 1 KiB).
    ///
    /// # Panics
    ///
    /// Panics if the requirement exceeds the capability.
    pub fn with_requirement(mut self, requirement_per_kib: u32) -> Self {
        assert!(
            requirement_per_kib <= self.capability_per_kib,
            "requirement cannot exceed ECC capability"
        );
        self.requirement_per_kib = requirement_per_kib;
        self
    }

    /// Classifies a read of a codeword with `errors_per_kib` raw bit errors.
    pub fn decode(&self, errors_per_kib: f64) -> EccOutcome {
        if errors_per_kib <= self.capability_per_kib as f64 {
            EccOutcome::Corrected {
                errors: errors_per_kib,
                margin: self.capability_per_kib as f64 - errors_per_kib,
            }
        } else {
            EccOutcome::Uncorrectable {
                errors: errors_per_kib,
            }
        }
    }

    /// True if a block with maximum RBER `errors_per_kib` still meets the
    /// lifetime requirement.
    pub fn meets_requirement(&self, errors_per_kib: f64) -> bool {
        errors_per_kib <= self.requirement_per_kib as f64
    }

    /// The ECC-capability margin available above a given error level, relative
    /// to the *requirement* (the budget AERO's aggressive mode may spend).
    /// Returns 0 when the level already exceeds the requirement.
    pub fn margin(&self, errors_per_kib: f64) -> f64 {
        (self.requirement_per_kib as f64 - errors_per_kib).max(0.0)
    }
}

impl Default for EccConfig {
    fn default() -> Self {
        EccConfig::paper_default()
    }
}

/// Result of decoding one codeword.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EccOutcome {
    /// All raw bit errors were corrected.
    Corrected {
        /// Raw bit errors present in the codeword.
        errors: f64,
        /// Remaining correction capability.
        margin: f64,
    },
    /// The codeword had more errors than the ECC can correct; the controller
    /// would fall back to read-retry / soft decoding.
    Uncorrectable {
        /// Raw bit errors present in the codeword.
        errors: f64,
    },
}

impl EccOutcome {
    /// True if the codeword was recovered.
    pub fn is_corrected(&self) -> bool {
        matches!(self, EccOutcome::Corrected { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let e = EccConfig::paper_default();
        assert_eq!(e.capability_per_kib, 72);
        assert_eq!(e.requirement_per_kib, 63);
    }

    #[test]
    fn decode_classification() {
        let e = EccConfig::paper_default();
        assert!(e.decode(50.0).is_corrected());
        assert!(e.decode(72.0).is_corrected());
        assert!(!e.decode(72.1).is_corrected());
    }

    #[test]
    fn requirement_and_margin() {
        let e = EccConfig::paper_default();
        assert!(e.meets_requirement(63.0));
        assert!(!e.meets_requirement(63.5));
        assert_eq!(e.margin(47.0), 16.0);
        assert_eq!(e.margin(70.0), 0.0);
    }

    #[test]
    fn weaker_requirement_for_sensitivity_study() {
        let e = EccConfig::paper_default().with_requirement(40);
        assert_eq!(e.requirement_per_kib, 40);
        assert!(!e.meets_requirement(45.0));
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn requirement_above_capability_rejected() {
        let _ = EccConfig::paper_default().with_requirement(80);
    }
}
