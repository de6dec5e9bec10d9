//! The ISPE (Incremental Step Pulse Erasure) engine.
//!
//! This is the chip-internal erase state machine: it executes erase-pulse (EP)
//! steps followed by verify-read (VR) steps, steps the erase voltage up after
//! each failed loop, and reports fail-bit counts. The pulse latency of the
//! *next* EP step can be tuned between loops (the SET FEATURE hook AERO relies
//! on), and an in-flight erase can be suspended and resumed at loop
//! granularity (used by the SSD simulator's erase-suspension model).

use rand_chacha::ChaCha12Rng;

use crate::chip_family::{half_ms_units, ChipFamily};
use crate::erase::failbits::FailBitModel;
use crate::timing::Micros;

/// Static parameters of the ISPE scheme for a chip family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IspeParams {
    /// Default erase-pulse latency (`tEP`).
    pub default_pulse: Micros,
    /// Verify-read latency (`tVR`).
    pub verify_read: Micros,
    /// Minimum pulse latency accepted via SET FEATURE.
    pub min_pulse: Micros,
    /// Pulse tuning granularity.
    pub pulse_step: Micros,
    /// Maximum number of erase loops before declaring a permanent failure.
    pub max_loops: u32,
}

impl IspeParams {
    /// Builds the ISPE parameters of a chip family.
    pub fn from_family(family: &ChipFamily) -> Self {
        IspeParams {
            default_pulse: family.timings.erase_pulse,
            verify_read: family.timings.verify_read,
            min_pulse: family.timings.erase_pulse_min,
            pulse_step: family.timings.erase_pulse_step,
            max_loops: family.erase.max_loops,
        }
    }
}

/// Result of one erase loop (one EP step followed by one VR step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EraseLoopOutcome {
    /// 1-based index of the loop within the erase operation. Shallow erasure
    /// performed by AERO uses the pulse latency of loop 1, so it also reports
    /// index 1 here; the AERO controller tracks its own loop numbering.
    pub loop_index: u32,
    /// Pulse latency that was applied.
    pub pulse: Micros,
    /// Latency of this loop including the verify-read step.
    pub latency: Micros,
    /// Fail-bit count reported by the verify-read step.
    pub fail_bits: u64,
    /// True if the fail-bit count is at or below `F_PASS`.
    pub passed: bool,
}

/// The state of an in-progress erase operation on one block.
///
/// The engine is the ground-truth side of the model: it knows the block's
/// required dose and integrates the dose delivered by each pulse. The FTL only
/// ever sees [`EraseLoopOutcome`] values.
#[derive(Debug, Clone, PartialEq)]
pub struct IspeEngine {
    params: IspeParams,
    fail_bit_model: FailBitModel,
    /// Dose still required for complete erasure.
    remaining_dose: f64,
    /// Dose delivered so far (includes over-erase).
    delivered_dose: f64,
    /// Cell stress (damage) delivered so far; grows super-linearly with the
    /// erase voltage of each loop.
    delivered_stress: f64,
    /// Relative erase-voltage scale (1.0 for conventional erasure, < 1.0 for
    /// voltage-reducing schemes such as DPES).
    voltage_scale: f64,
    /// Effective voltage factor of the most recently applied pulse (1.0
    /// before any pulse); used to express residual erasure in verify-read
    /// time units.
    last_voltage_factor: f64,
    /// Index of the next loop to run (1-based).
    next_loop: u32,
    /// Voltage step factor per loop.
    voltage_step: f64,
    /// Pulse latency to use for the next EP step.
    next_pulse: Micros,
    /// Total time spent on this erase operation so far.
    elapsed: Micros,
    /// Latest fail-bit count observed.
    last_fail_bits: Option<u64>,
    /// True once a VR step has passed.
    completed: bool,
}

impl IspeEngine {
    /// Starts a new erase operation for a block that requires `required_dose`
    /// normalized dose units for complete erasure.
    ///
    /// # Panics
    ///
    /// Panics if `required_dose` is not finite and positive.
    pub fn new(family: &ChipFamily, required_dose: f64) -> Self {
        assert!(
            required_dose.is_finite() && required_dose > 0.0,
            "required dose must be positive"
        );
        IspeEngine {
            params: IspeParams::from_family(family),
            fail_bit_model: FailBitModel::new(family.fail_bits),
            remaining_dose: required_dose,
            delivered_dose: 0.0,
            delivered_stress: 0.0,
            voltage_scale: 1.0,
            last_voltage_factor: 1.0,
            next_loop: 1,
            voltage_step: family.erase.voltage_step,
            next_pulse: family.timings.erase_pulse,
            elapsed: Micros::ZERO,
            last_fail_bits: None,
            completed: false,
        }
    }

    /// The ISPE parameters in use.
    pub fn params(&self) -> &IspeParams {
        &self.params
    }

    /// Sets the pulse latency for the next EP step (the SET FEATURE hook).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NandError::InvalidErasePulseLatency`] if the latency is
    /// outside the supported range.
    pub fn set_next_pulse(&mut self, pulse: Micros) -> Result<(), crate::NandError> {
        if pulse < self.params.min_pulse || pulse > self.params.default_pulse {
            return Err(crate::NandError::InvalidErasePulseLatency {
                requested: pulse,
                min: self.params.min_pulse,
                max: self.params.default_pulse,
            });
        }
        self.next_pulse = pulse;
        Ok(())
    }

    /// The pulse latency currently configured for the next EP step.
    pub fn next_pulse(&self) -> Micros {
        self.next_pulse
    }

    /// Index (1-based) of the next loop that [`IspeEngine::run_loop`] would run.
    pub fn next_loop_index(&self) -> u32 {
        self.next_loop
    }

    /// True once a verify-read step has reported success.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// True if the engine has exhausted the maximum loop count without
    /// completing.
    pub fn is_exhausted(&self) -> bool {
        !self.completed && self.next_loop > self.params.max_loops
    }

    /// Total dose delivered so far.
    pub fn delivered_dose(&self) -> f64 {
        self.delivered_dose
    }

    /// Total cell stress (damage) delivered so far; the quantity wear
    /// accounting consumes.
    pub fn delivered_stress(&self) -> f64 {
        self.delivered_stress
    }

    /// Sets the relative erase-voltage scale used for all remaining pulses.
    /// Values below 1.0 (e.g. DPES's 0.90) erase more slowly but inflict
    /// super-linearly less stress.
    ///
    /// # Panics
    ///
    /// Panics if the scale is not within (0, 1].
    pub fn set_voltage_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "voltage scale must be in (0, 1]"
        );
        self.voltage_scale = scale;
    }

    /// Dose still required for complete erasure (0 once erased). This is
    /// ground truth that real firmware cannot observe; it is exposed for
    /// tests, characterization, and reliability accounting.
    pub fn remaining_dose(&self) -> f64 {
        self.remaining_dose.max(0.0)
    }

    /// Total time spent on EP and VR steps so far.
    pub fn elapsed(&self) -> Micros {
        self.elapsed
    }

    /// The most recent fail-bit count, if a VR step has run.
    pub fn last_fail_bits(&self) -> Option<u64> {
        self.last_fail_bits
    }

    /// Starts the next erase loop **at a given voltage index** without
    /// advancing the voltage ladder. Used by i-ISPE, which jumps straight to
    /// the voltage of a later loop.
    ///
    /// # Panics
    ///
    /// Panics if `loop_index` is zero.
    pub fn force_loop_index(&mut self, loop_index: u32) {
        assert!(loop_index >= 1, "loop index is 1-based");
        self.next_loop = loop_index;
    }

    /// Runs one erase loop: applies the configured pulse at the voltage of the
    /// current loop index, then performs a verify-read step.
    ///
    /// The engine keeps running loops even after completion is reported (extra
    /// loops deliver over-erase stress but always pass); callers normally stop
    /// at the first passing outcome.
    pub fn run_loop(&mut self, family: &ChipFamily, rng: &mut ChaCha12Rng) -> EraseLoopOutcome {
        let stress_factor = family.stress_factor(self.next_loop, self.voltage_scale);
        self.apply_loop(family, stress_factor, rng)
    }

    /// [`IspeEngine::run_loop`], with the loop's stress factor taken from a
    /// chip's memo instead of recomputed.
    pub(crate) fn run_loop_memoized(
        &mut self,
        family: &ChipFamily,
        memo: &mut StressMemo,
        rng: &mut ChaCha12Rng,
    ) -> EraseLoopOutcome {
        let stress_factor = memo.factor(family, self.next_loop, self.voltage_scale);
        self.apply_loop(family, stress_factor, rng)
    }

    /// Runs the next loop given its [`ChipFamily::stress_factor`].
    fn apply_loop(
        &mut self,
        family: &ChipFamily,
        stress_factor: f64,
        rng: &mut ChaCha12Rng,
    ) -> EraseLoopOutcome {
        let loop_index = self.next_loop;
        let pulse = self.next_pulse;
        let dose = family.dose_for_pulse(loop_index, pulse) * self.voltage_scale;
        let stress = stress_factor * half_ms_units(pulse);
        self.delivered_dose += dose;
        self.delivered_stress += stress;
        self.remaining_dose -= dose;
        self.last_voltage_factor = family.voltage_factor(loop_index) * self.voltage_scale;
        // The verify-read step measures how much *pulse time at the voltage
        // just applied* the block still needs: this makes the fail-bit slope
        // δ per 0.5 ms independent of the loop index, matching the paper's
        // Figure 7.
        let fail_bits = self
            .fail_bit_model
            .observed_fail_bits(self.remaining_dose.max(0.0) / self.last_voltage_factor, rng);
        let passed = self.fail_bit_model.passes(fail_bits);
        if passed {
            self.completed = true;
        }
        let latency = pulse + self.params.verify_read;
        self.elapsed += latency;
        self.last_fail_bits = Some(fail_bits);
        self.next_loop = loop_index + 1;
        // Reset pulse latency to the default for the following loop; the FTL
        // must explicitly request a reduced pulse before every loop.
        self.next_pulse = self.params.default_pulse;
        EraseLoopOutcome {
            loop_index,
            pulse,
            latency,
            fail_bits,
            passed,
        }
    }

    /// Runs loops with the default pulse latency until the pass condition is
    /// met, exactly like the conventional ISPE scheme. Returns all loop
    /// outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NandError::EraseFailure`] via the caller if the
    /// maximum loop count is exhausted; here the outcomes so far are returned
    /// and the caller checks [`IspeEngine::is_exhausted`].
    pub fn run_to_completion(
        &mut self,
        family: &ChipFamily,
        rng: &mut ChaCha12Rng,
    ) -> Vec<EraseLoopOutcome> {
        let mut outcomes = Vec::new();
        while !self.completed && self.next_loop <= self.params.max_loops {
            outcomes.push(self.run_loop(family, rng));
        }
        outcomes
    }

    /// Residual erasure left behind if the erase were abandoned right now,
    /// expressed in the same unit the fail-bit ranges measure: 0.5 ms of
    /// missing erase pulse at the most recently applied erase voltage. Used
    /// when AERO deliberately stops after an "insufficient" erasure.
    pub fn residual_units(&self) -> f64 {
        self.remaining_dose.max(0.0) / self.last_voltage_factor
    }
}

/// A chip's memo of [`ChipFamily::stress_factor`], one slot per step of the
/// ISPE voltage ladder. Each slot is keyed by the exact bits of the
/// erase-voltage scale it was computed under and is recomputed when asked
/// for another scale, so a scheme that changes the scale between erases
/// (DPES) still gets the bit-identical factor.
#[derive(Debug, Clone)]
pub(crate) struct StressMemo {
    /// `(voltage-scale bits, factor)` of loops `1..=max_loops`; later loops
    /// share the last slot, as they share its voltage.
    slots: Vec<(u64, f64)>,
}

impl StressMemo {
    /// A memo for a family's ladder. Every slot starts keyed by the scale
    /// 0.0, which no erase can use, so each is computed on first use.
    pub(crate) fn new(family: &ChipFamily) -> Self {
        StressMemo {
            slots: vec![(0f64.to_bits(), 0.0); family.erase.max_loops.max(1) as usize],
        }
    }

    /// [`ChipFamily::stress_factor`], recomputed only when the slot of
    /// `loop_index` holds another scale.
    pub(crate) fn factor(
        &mut self,
        family: &ChipFamily,
        loop_index: u32,
        voltage_scale: f64,
    ) -> f64 {
        let slot = loop_index.min(family.erase.max_loops).saturating_sub(1) as usize;
        let (key, factor) = &mut self.slots[slot];
        if *key != voltage_scale.to_bits() {
            *factor = family.stress_factor(loop_index, voltage_scale);
            *key = voltage_scale.to_bits();
        }
        *factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip_family::ChipFamily;
    use rand::SeedableRng;

    fn family() -> ChipFamily {
        ChipFamily::tlc_3d_48l()
    }

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(7)
    }

    #[test]
    fn single_loop_for_small_dose() {
        let f = family();
        let mut e = IspeEngine::new(&f, 4.0);
        let mut r = rng();
        let outcomes = e.run_to_completion(&f, &mut r);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].passed);
        assert!(e.is_complete());
        assert_eq!(e.elapsed(), f.timings.erase_pulse + f.timings.verify_read);
    }

    #[test]
    fn multi_loop_for_large_dose() {
        let f = family();
        // 16 units: loop1 delivers 7, loop2 delivers 7*1.12=7.84, loop3 covers rest.
        let mut e = IspeEngine::new(&f, 16.0);
        let mut r = rng();
        let outcomes = e.run_to_completion(&f, &mut r);
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].passed);
        assert!(!outcomes[1].passed);
        assert!(outcomes[2].passed);
    }

    #[test]
    fn reduced_pulse_must_be_reapplied_each_loop() {
        let f = family();
        let mut e = IspeEngine::new(&f, 16.0);
        let mut r = rng();
        e.set_next_pulse(Micros::from_millis_f64(1.0)).unwrap();
        let o1 = e.run_loop(&f, &mut r);
        assert_eq!(o1.pulse, Micros::from_millis_f64(1.0));
        // Without another SET FEATURE the next loop reverts to the default.
        let o2 = e.run_loop(&f, &mut r);
        assert_eq!(o2.pulse, f.timings.erase_pulse);
    }

    #[test]
    fn invalid_pulse_rejected() {
        let f = family();
        let mut e = IspeEngine::new(&f, 4.0);
        assert!(e.set_next_pulse(Micros::from_millis_f64(0.2)).is_err());
        assert!(e.set_next_pulse(Micros::from_millis_f64(4.5)).is_err());
        assert!(e.set_next_pulse(Micros::from_millis_f64(2.0)).is_ok());
    }

    #[test]
    fn fail_bits_decrease_across_loops() {
        let f = family();
        let mut e = IspeEngine::new(&f, 20.0);
        let mut r = rng();
        let outcomes = e.run_to_completion(&f, &mut r);
        assert!(outcomes.len() >= 2);
        for pair in outcomes.windows(2) {
            assert!(
                pair[1].fail_bits <= pair[0].fail_bits,
                "fail bits must not increase across loops"
            );
        }
    }

    #[test]
    fn exhaustion_detected() {
        let f = family();
        // An absurd dose the maximum loop count cannot cover.
        let mut e = IspeEngine::new(&f, 500.0);
        let mut r = rng();
        let outcomes = e.run_to_completion(&f, &mut r);
        assert_eq!(outcomes.len() as u32, f.erase.max_loops);
        assert!(e.is_exhausted());
        assert!(!e.is_complete());
    }

    #[test]
    fn delivered_dose_accumulates_including_over_erase() {
        let f = family();
        let mut e = IspeEngine::new(&f, 2.0);
        let mut r = rng();
        let _ = e.run_loop(&f, &mut r);
        // The single full-latency loop delivered 7 units for a 2-unit need.
        assert!((e.delivered_dose() - 7.0).abs() < 1e-9);
        assert_eq!(e.remaining_dose(), 0.0);
        assert!(e.is_complete());
    }

    #[test]
    fn forced_loop_index_uses_higher_voltage() {
        let f = family();
        let mut a = IspeEngine::new(&f, 9.0);
        let mut b = IspeEngine::new(&f, 9.0);
        b.force_loop_index(3);
        let mut r1 = rng();
        let mut r2 = rng();
        let oa = a.run_loop(&f, &mut r1);
        let ob = b.run_loop(&f, &mut r2);
        // Same pulse latency, but the higher voltage of loop 3 delivers more
        // dose and therefore leaves fewer fail bits.
        assert!(ob.fail_bits <= oa.fail_bits);
        assert!(b.delivered_dose() > a.delivered_dose());
    }

    #[test]
    fn elapsed_matches_t_bers_formula() {
        let f = family();
        let mut e = IspeEngine::new(&f, 16.0);
        let mut r = rng();
        let outcomes = e.run_to_completion(&f, &mut r);
        let expected = f.timings.t_bers(outcomes.len() as u32);
        assert_eq!(e.elapsed(), expected);
    }
}
