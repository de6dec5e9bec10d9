//! Timing primitives and NAND operation latencies.
//!
//! All latencies in this crate are expressed as [`Micros`], a fixed-point
//! microsecond quantity with 0.1 µs resolution carried in an integer. Using a
//! newtype (rather than `f64` or `std::time::Duration`) keeps arithmetic
//! exact for the 0.5 ms erase-pulse granularity the paper's m-ISPE procedure
//! uses, and makes it impossible to mix up microseconds with nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative time duration with 0.1 µs resolution.
///
/// # Examples
///
/// ```
/// use aero_nand::timing::Micros;
///
/// let tep = Micros::from_millis_f64(3.5);
/// let tvr = Micros::from_micros(100);
/// assert_eq!((tep + tvr).as_micros_f64(), 3600.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(u64);

impl Micros {
    /// Zero duration.
    pub const ZERO: Micros = Micros(0);

    /// Internal ticks per microsecond (0.1 µs resolution).
    const TICKS_PER_US: u64 = 10;

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Micros(us * Self::TICKS_PER_US)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000 * Self::TICKS_PER_US)
    }

    /// Creates a duration from fractional milliseconds (rounded to 0.1 µs).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be finite and non-negative"
        );
        Micros((ms * 1_000.0 * Self::TICKS_PER_US as f64).round() as u64)
    }

    /// The duration in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / Self::TICKS_PER_US as f64
    }

    /// The duration in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.as_micros_f64() / 1_000.0
    }

    /// The duration in whole nanoseconds (exact; 0.1 µs = 100 ns).
    pub fn as_nanos(self) -> u64 {
        self.0 * 100
    }

    /// Creates a duration from whole nanoseconds, truncating to the 0.1 µs
    /// tick resolution. Exact inverse of [`as_nanos`](Micros::as_nanos) for
    /// any value that function can produce.
    pub const fn from_nanos(ns: u64) -> Self {
        Micros(ns / 100)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Micros) -> Micros {
        Micros(self.0.saturating_sub(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Micros) -> Micros {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Micros) -> Micros {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// True if the duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a float factor, rounding to 0.1 µs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Micros {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        Micros((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 10_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.1}us", self.as_micros_f64())
        }
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for Micros {
    fn sub_assign(&mut self, rhs: Micros) {
        *self = *self - rhs;
    }
}

impl Mul<u32> for Micros {
    type Output = Micros;
    fn mul(self, rhs: u32) -> Micros {
        Micros(self.0 * rhs as u64)
    }
}

impl Div<u32> for Micros {
    type Output = Micros;
    fn div(self, rhs: u32) -> Micros {
        Micros(self.0 / rhs as u64)
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        iter.fold(Micros::ZERO, Add::add)
    }
}

/// Default operation latencies of a NAND flash chip.
///
/// The values follow the paper's Table 2 / §2.1: read 40 µs, program 350 µs,
/// erase-pulse 3.5 ms, verify-read ~100 µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NandTimings {
    /// Page read latency (`tR`).
    pub read: Micros,
    /// Page program latency (`tPROG`).
    pub program: Micros,
    /// Default erase-pulse latency per loop (`tEP`).
    pub erase_pulse: Micros,
    /// Verify-read latency after each erase pulse (`tVR`).
    pub verify_read: Micros,
    /// Minimum erase-pulse latency the chip accepts via SET FEATURE.
    pub erase_pulse_min: Micros,
    /// Granularity at which the erase-pulse latency can be tuned.
    pub erase_pulse_step: Micros,
}

impl NandTimings {
    /// Timing parameters of the 48-layer 3D TLC chips characterized in the
    /// paper (default `tEP` = 3.5 ms, tunable down to 0.5 ms in 0.5 ms steps).
    pub fn tlc_3d_default() -> Self {
        NandTimings {
            read: Micros::from_micros(40),
            program: Micros::from_micros(350),
            erase_pulse: Micros::from_millis_f64(3.5),
            verify_read: Micros::from_micros(100),
            erase_pulse_min: Micros::from_millis_f64(0.5),
            erase_pulse_step: Micros::from_millis_f64(0.5),
        }
    }

    /// Full latency of one conventional ISPE erase loop (`tEP + tVR`).
    pub fn erase_loop(&self) -> Micros {
        self.erase_pulse + self.verify_read
    }

    /// Conventional `tBERS` for a given number of ISPE loops, per Equation (1).
    pub fn t_bers(&self, n_ispe: u32) -> Micros {
        self.erase_loop() * n_ispe
    }

    /// Validates that a requested erase-pulse latency is within the supported
    /// range and aligned to the tuning granularity.
    pub fn validate_erase_pulse(&self, requested: Micros) -> Result<(), crate::NandError> {
        if requested < self.erase_pulse_min || requested > self.erase_pulse {
            return Err(crate::NandError::InvalidErasePulseLatency {
                requested,
                min: self.erase_pulse_min,
                max: self.erase_pulse,
            });
        }
        Ok(())
    }
}

impl Default for NandTimings {
    fn default() -> Self {
        NandTimings::tlc_3d_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_roundtrip() {
        let m = Micros::from_millis_f64(3.5);
        assert_eq!(m.as_millis_f64(), 3.5);
        assert_eq!(m.as_micros_f64(), 3500.0);
        assert_eq!(m.as_nanos(), 3_500_000);
        assert_eq!(Micros::from_nanos(m.as_nanos()), m);
        // Sub-tick nanosecond counts truncate toward zero.
        assert_eq!(Micros::from_nanos(199), Micros::from_nanos(100));
    }

    #[test]
    fn micros_arithmetic() {
        let a = Micros::from_micros(100);
        let b = Micros::from_micros(40);
        assert_eq!(a + b, Micros::from_micros(140));
        assert_eq!(a - b, Micros::from_micros(60));
        assert_eq!(a * 3, Micros::from_micros(300));
        assert_eq!(a / 2, Micros::from_micros(50));
        assert_eq!(a.saturating_sub(Micros::from_micros(500)), Micros::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn micros_sum_and_scale() {
        let total: Micros = [Micros::from_micros(10), Micros::from_micros(20)]
            .into_iter()
            .sum();
        assert_eq!(total, Micros::from_micros(30));
        assert_eq!(Micros::from_micros(100).scale(0.5), Micros::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn micros_sub_underflow_panics() {
        let _ = Micros::from_micros(1) - Micros::from_micros(2);
    }

    #[test]
    fn display_chooses_unit() {
        assert_eq!(Micros::from_micros(40).to_string(), "40.0us");
        assert_eq!(Micros::from_millis_f64(3.5).to_string(), "3.50ms");
    }

    #[test]
    fn default_timings_match_paper() {
        let t = NandTimings::tlc_3d_default();
        assert_eq!(t.read, Micros::from_micros(40));
        assert_eq!(t.program, Micros::from_micros(350));
        assert_eq!(t.erase_pulse, Micros::from_millis_f64(3.5));
        assert_eq!(t.erase_loop(), Micros::from_micros(3600));
        assert_eq!(t.t_bers(3), Micros::from_micros(10_800));
    }

    #[test]
    fn erase_pulse_validation() {
        let t = NandTimings::tlc_3d_default();
        assert!(t.validate_erase_pulse(Micros::from_millis_f64(0.5)).is_ok());
        assert!(t.validate_erase_pulse(Micros::from_millis_f64(3.5)).is_ok());
        assert!(t
            .validate_erase_pulse(Micros::from_millis_f64(0.2))
            .is_err());
        assert!(t
            .validate_erase_pulse(Micros::from_millis_f64(4.0))
            .is_err());
    }
}
