//! The AERO erase scheme (conservative and aggressive variants).
//!
//! AERO keeps the ISPE voltage ladder untouched but adjusts the *pulse
//! latency* of each loop to be just long enough, using three mechanisms:
//!
//! 1. **FELP** — the fail-bit count of the previous verify-read step selects
//!    the next loop's latency from the [`Ept`];
//! 2. **Shallow erasure** — the first loop starts with a short probe pulse
//!    (`tSE`) whose verify-read supplies the fail-bit count needed to pick the
//!    remainder latency, so even single-loop erases benefit;
//! 3. **ECC-margin exploitation** (aggressive mode only) — where the offline
//!    characterization shows the resulting extra raw bit errors still fit
//!    under the RBER requirement, the final loop is shortened further or
//!    skipped outright, leaving the block deliberately under-erased.
//!
//! Mispredictions (a reduced pulse that unexpectedly fails to complete the
//! erasure in conservative mode) are repaired with extra 0.5 ms pulses at the
//! same voltage, exactly as §6 of the paper describes.

use aero_nand::chip_family::ChipFamily;
use aero_nand::erase::ispe::EraseLoopOutcome;
use aero_nand::timing::Micros;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::ept::Ept;
use crate::felp::{Felp, FelpPrediction};
use crate::scheme::{BlockContext, EraseAction, EraseScheme};
use crate::sef::ShallowEraseFlags;
use crate::wire;

/// Leading tag byte of an AERO state blob (see
/// [`EraseScheme::export_state`]).
const AERO_STATE_TAG: u8 = 0xA0;

/// What the scheme issued most recently within the current erase operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LastIssue {
    /// Nothing issued yet.
    None,
    /// The shallow probe pulse.
    Shallow,
    /// A full default-latency pulse for logical loop `n`.
    Full(u32),
    /// A reduced pulse for logical loop `n`; `spends_margin` marks aggressive
    /// reductions that are allowed to leave the block under-erased.
    Reduced {
        /// Logical loop index.
        logical: u32,
        /// True if the reduction spends ECC margin.
        spends_margin: bool,
    },
    /// A 0.5 ms misprediction-recovery pulse for logical loop `n`.
    Recovery(u32),
}

/// The AERO erase scheme.
#[derive(Debug, Clone)]
pub struct Aero {
    felp: Felp,
    sef: ShallowEraseFlags,
    default_pulse: Micros,
    shallow_pulse: Micros,
    step: Micros,
    max_loops: u32,
    aggressive: bool,
    rng: ChaCha12Rng,
    last_issue: LastIssue,
    mispredictions: u64,
    shallow_erases: u64,
    skipped_final_loops: u64,
}

impl Aero {
    /// Builds an AERO scheme for a chip family with an explicit EPT.
    pub fn with_ept(family: &ChipFamily, ept: Ept, aggressive: bool) -> Self {
        let shallow_pulse = ept.shallow_pulse();
        let default_pulse = family.timings.erase_pulse;
        Aero {
            felp: Felp::new(family, ept, aggressive),
            sef: ShallowEraseFlags::new(0),
            default_pulse,
            shallow_pulse,
            step: family.timings.erase_pulse_step,
            max_loops: family.erase.max_loops,
            aggressive,
            rng: ChaCha12Rng::seed_from_u64(0xAE20),
            last_issue: LastIssue::None,
            mispredictions: 0,
            shallow_erases: 0,
            skipped_final_loops: 0,
        }
    }

    /// The aggressive variant (paper's "AERO"): exploits the ECC-capability
    /// margin, configured for the characterized 3D TLC chips.
    pub fn aggressive() -> Self {
        Aero::with_ept(&ChipFamily::tlc_3d_48l(), Ept::paper_table1(), true)
    }

    /// The conservative variant (paper's "AERO_CONS"): process-variation-only
    /// latency reduction.
    pub fn conservative() -> Self {
        Aero::with_ept(&ChipFamily::tlc_3d_48l(), Ept::paper_table1(), false)
    }

    /// Injects artificial mispredictions at the given rate (Figure 16).
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside [0, 1].
    pub fn with_misprediction_rate(mut self, rate: f64) -> Self {
        self.felp = self.felp.with_misprediction_rate(rate);
        self
    }

    /// Reseeds the internal RNG used for misprediction injection.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = ChaCha12Rng::seed_from_u64(seed);
        self
    }

    /// Whether this instance spends the ECC-capability margin.
    pub fn is_aggressive(&self) -> bool {
        self.aggressive
    }

    /// Number of mispredictions repaired so far.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Number of erases that started with a shallow probe pulse.
    pub fn shallow_erases(&self) -> u64 {
        self.shallow_erases
    }

    /// Number of final loops skipped by the aggressive mode.
    pub fn skipped_final_loops(&self) -> u64 {
        self.skipped_final_loops
    }

    /// Read access to the shallow-erasure flags (for inspection and tests).
    pub fn sef(&self) -> &ShallowEraseFlags {
        &self.sef
    }

    fn issue_from_prediction(
        &mut self,
        prediction: FelpPrediction,
        logical_loop: u32,
    ) -> EraseAction {
        match prediction {
            FelpPrediction::AlreadyComplete => EraseAction::finish(),
            FelpPrediction::Skip => {
                self.skipped_final_loops += 1;
                EraseAction::Finish {
                    accept_partial: true,
                }
            }
            FelpPrediction::Pulse {
                pulse,
                reduced,
                spends_margin,
            } => {
                self.last_issue = if reduced {
                    LastIssue::Reduced {
                        logical: logical_loop,
                        spends_margin,
                    }
                } else {
                    LastIssue::Full(logical_loop)
                };
                EraseAction::Pulse {
                    pulse,
                    voltage_index: Some(logical_loop),
                }
            }
        }
    }
}

impl EraseScheme for Aero {
    fn name(&self) -> &'static str {
        if self.aggressive {
            "AERO"
        } else {
            "AERO_CONS"
        }
    }

    fn shallow_flags(&self) -> Option<&ShallowEraseFlags> {
        Some(&self.sef)
    }

    fn begin(&mut self, ctx: &BlockContext) {
        if ctx.block_id.0 >= self.sef.len() {
            self.sef.grow_to((ctx.block_id.0 + 1).next_power_of_two());
        }
        self.last_issue = LastIssue::None;
    }

    fn next_action(&mut self, ctx: &BlockContext, history: &[EraseLoopOutcome]) -> EraseAction {
        if let Some(last) = history.last() {
            if last.passed {
                return EraseAction::finish();
            }
        }
        // Hard stop: never exceed the chip's loop budget.
        if history.len() as u32 >= self.max_loops {
            return EraseAction::Finish {
                accept_partial: true,
            };
        }
        let last_fail_bits = history.last().map(|o| o.fail_bits);
        match self.last_issue {
            LastIssue::None => {
                if self.sef.is_enabled(ctx.block_id) {
                    self.shallow_erases += 1;
                    self.last_issue = LastIssue::Shallow;
                    EraseAction::Pulse {
                        pulse: self.shallow_pulse,
                        voltage_index: Some(1),
                    }
                } else {
                    self.last_issue = LastIssue::Full(1);
                    EraseAction::Pulse {
                        pulse: self.default_pulse,
                        voltage_index: Some(1),
                    }
                }
            }
            LastIssue::Shallow => {
                let f0 = last_fail_bits.expect("shallow pulse must have an outcome");
                let prediction = self.felp.predict_remainder(f0, &mut self.rng);
                // If the remainder cannot shrink the first loop below the
                // default latency, shallow erasure is not paying off for this
                // block any more; clear its flag so future erases skip the
                // probe (Figure 12, step 5).
                if let FelpPrediction::Pulse { pulse, .. } = prediction {
                    if self.shallow_pulse + pulse >= self.default_pulse {
                        self.sef.set(ctx.block_id, false);
                    }
                }
                match prediction {
                    // Remainder erasure continues at the first-loop voltage.
                    FelpPrediction::Pulse {
                        pulse,
                        reduced,
                        spends_margin,
                    } => {
                        self.last_issue = if reduced {
                            LastIssue::Reduced {
                                logical: 1,
                                spends_margin,
                            }
                        } else {
                            LastIssue::Full(1)
                        };
                        EraseAction::Pulse {
                            pulse,
                            voltage_index: Some(1),
                        }
                    }
                    other => self.issue_from_prediction(other, 1),
                }
            }
            LastIssue::Full(logical) => {
                let f = last_fail_bits.expect("full pulse must have an outcome");
                let next_logical = logical + 1;
                let prediction = self.felp.predict(next_logical, f, &mut self.rng);
                self.issue_from_prediction(prediction, next_logical)
            }
            LastIssue::Reduced {
                logical,
                spends_margin,
            } => {
                if spends_margin {
                    // Aggressive reductions are allowed to leave the block
                    // under-erased; this is not a misprediction.
                    EraseAction::Finish {
                        accept_partial: true,
                    }
                } else {
                    // Conservative reduction should have completed the erase:
                    // repair the misprediction with a 0.5 ms pulse at the same
                    // voltage.
                    self.mispredictions += 1;
                    self.last_issue = LastIssue::Recovery(logical);
                    EraseAction::Pulse {
                        pulse: self.step,
                        voltage_index: Some(logical),
                    }
                }
            }
            LastIssue::Recovery(logical) => {
                // Keep stepping 0.5 ms at the same voltage until the pass
                // condition is met (the accumulated latency stays below the
                // conventional tBERS for any realistic misprediction).
                self.last_issue = LastIssue::Recovery(logical);
                EraseAction::Pulse {
                    pulse: self.step,
                    voltage_index: Some(logical),
                }
            }
        }
    }

    fn finish(&mut self, _ctx: &BlockContext, _history: &[EraseLoopOutcome], _complete: bool) {
        self.last_issue = LastIssue::None;
    }

    /// AERO's mutable state: the SEF bitmap, the misprediction-injection
    /// RNG position, and the three lifetime counters. Everything else
    /// (EPT, FELP, pulse parameters) is configuration-derived and excluded.
    /// `last_issue` is transient — it is `None` at every erase boundary,
    /// which is the only place snapshots are taken.
    fn export_state(&self) -> Vec<u8> {
        let mut out = vec![AERO_STATE_TAG, self.aggressive as u8];
        wire::put_u64(&mut out, self.sef.len() as u64);
        for &word in self.sef.words() {
            wire::put_u64(&mut out, word);
        }
        for &word in self.rng.dump_state().iter() {
            wire::put_u32(&mut out, word);
        }
        wire::put_u64(&mut out, self.mispredictions);
        wire::put_u64(&mut out, self.shallow_erases);
        wire::put_u64(&mut out, self.skipped_final_loops);
        out
    }

    fn import_state(&mut self, state: &[u8]) -> bool {
        let mut r = wire::Reader::new(state);
        if r.u8() != Some(AERO_STATE_TAG) || r.u8() != Some(self.aggressive as u8) {
            return false;
        }
        let Some(sef_len) = r.u64() else { return false };
        let Ok(sef_len) = usize::try_from(sef_len) else {
            return false;
        };
        let word_count = sef_len.div_ceil(64);
        // The declared bitmap must actually fit in the blob — this bounds
        // the allocation before it happens.
        if word_count > r.remaining() / 8 {
            return false;
        }
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            match r.u64() {
                Some(w) => words.push(w),
                None => return false,
            }
        }
        let Some(sef) = ShallowEraseFlags::from_raw(words, sef_len) else {
            return false;
        };
        let mut rng_words = [0u32; 33];
        for word in rng_words.iter_mut() {
            match r.u32() {
                Some(v) => *word = v,
                None => return false,
            }
        }
        let Some(rng) = ChaCha12Rng::from_state(&rng_words) else {
            return false;
        };
        let (mispredictions, shallow_erases, skipped_final_loops) =
            match (r.u64(), r.u64(), r.u64()) {
                (Some(m), Some(s), Some(k)) => (m, s, k),
                _ => return false,
            };
        if !r.is_empty() {
            return false;
        }
        self.sef = sef;
        self.rng = rng;
        self.mispredictions = mispredictions;
        self.shallow_erases = shallow_erases;
        self.skipped_final_loops = skipped_final_loops;
        self.last_issue = LastIssue::None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::BlockId;

    fn outcome(fail_bits: u64, passed: bool, pulse_ms: f64) -> EraseLoopOutcome {
        EraseLoopOutcome {
            loop_index: 1,
            pulse: Micros::from_millis_f64(pulse_ms),
            latency: Micros::from_millis_f64(pulse_ms + 0.1),
            fail_bits,
            passed,
        }
    }

    fn delta() -> u64 {
        ChipFamily::tlc_3d_48l().fail_bits.delta as u64
    }

    #[test]
    fn fresh_block_starts_with_shallow_probe() {
        let mut aero = Aero::conservative();
        let ctx = BlockContext::new(BlockId(0), 0);
        aero.begin(&ctx);
        assert_eq!(
            aero.next_action(&ctx, &[]),
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(1.0),
                voltage_index: Some(1),
            }
        );
        assert_eq!(aero.shallow_erases(), 1);
    }

    #[test]
    fn remainder_latency_follows_ept_row_one() {
        let mut aero = Aero::conservative();
        let ctx = BlockContext::new(BlockId(0), 0);
        aero.begin(&ctx);
        let _ = aero.next_action(&ctx, &[]);
        // Shallow probe left F(0) in the (δ, 2δ] range -> 1.5 ms remainder.
        let history = vec![outcome(2 * delta() - 100, false, 1.0)];
        assert_eq!(
            aero.next_action(&ctx, &history),
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(1.5),
                voltage_index: Some(1),
            }
        );
    }

    #[test]
    fn aggressive_skips_final_loop_when_margin_allows() {
        let mut aero = Aero::aggressive();
        let ctx = BlockContext::new(BlockId(0), 100);
        aero.begin(&ctx);
        let _ = aero.next_action(&ctx, &[]);
        // F(0) within (γ, δ]: the aggressive table says the remainder can be
        // skipped entirely.
        let history = vec![outcome(delta() - 500, false, 1.0)];
        assert_eq!(
            aero.next_action(&ctx, &history),
            EraseAction::Finish {
                accept_partial: true
            }
        );
        assert_eq!(aero.skipped_final_loops(), 1);
    }

    #[test]
    fn sef_cleared_when_shallow_stops_helping() {
        let mut aero = Aero::conservative();
        let ctx = BlockContext::new(BlockId(3), 2_500);
        aero.begin(&ctx);
        let _ = aero.next_action(&ctx, &[]);
        // Very high fail bits after the probe: remainder needs the full
        // default latency, so shallow erasure stops paying off.
        let history = vec![outcome(40 * delta(), false, 1.0)];
        let action = aero.next_action(&ctx, &history);
        assert!(
            matches!(action, EraseAction::Pulse { pulse, .. } if pulse == Micros::from_millis_f64(3.5))
        );
        assert!(!aero.sef().is_enabled(BlockId(3)));
        // The next erase of this block starts with a full default pulse.
        aero.finish(&ctx, &history, true);
        aero.begin(&ctx);
        assert_eq!(
            aero.next_action(&ctx, &[]),
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(3.5),
                voltage_index: Some(1),
            }
        );
    }

    #[test]
    fn multi_loop_erase_reduces_only_final_loop() {
        let mut aero = Aero::conservative();
        let ctx = BlockContext::new(BlockId(1), 2_500);
        aero.begin(&ctx);
        let mut history = Vec::new();
        let _ = aero.next_action(&ctx, &history); // shallow probe
                                                  // Probe reports very high fail bits (> F_HIGH): no reduction for
                                                  // loop 1.
        history.push(outcome(60 * delta(), false, 1.0));
        let a1 = aero.next_action(&ctx, &history);
        assert!(
            matches!(a1, EraseAction::Pulse { pulse, .. } if pulse == Micros::from_millis_f64(3.5))
        );
        // Loop 1 still fails with high fail bits: loop 2 keeps the default.
        history.push(outcome(50 * delta(), false, 3.5));
        let a2 = aero.next_action(&ctx, &history);
        assert!(
            matches!(a2, EraseAction::Pulse { pulse, voltage_index: Some(2) } if pulse == Micros::from_millis_f64(3.5))
        );
        // Loop 2 leaves F within (2δ, 3δ]: loop 3 runs with 2.0 ms.
        history.push(outcome(3 * delta() - 10, false, 3.5));
        let a3 = aero.next_action(&ctx, &history);
        assert_eq!(
            a3,
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(2.0),
                voltage_index: Some(3),
            }
        );
        // Loop 3 passes: finish cleanly.
        history.push(outcome(10, true, 2.0));
        assert_eq!(aero.next_action(&ctx, &history), EraseAction::finish());
    }

    #[test]
    fn conservative_misprediction_triggers_recovery_pulses() {
        let mut aero = Aero::conservative();
        let ctx = BlockContext::new(BlockId(2), 500);
        aero.begin(&ctx);
        let mut history = Vec::new();
        let _ = aero.next_action(&ctx, &history); // shallow
        history.push(outcome(2 * delta() - 100, false, 1.0));
        let _ = aero.next_action(&ctx, &history); // reduced remainder (1.5 ms)
                                                  // The reduced pulse unexpectedly failed: misprediction.
        history.push(outcome(500, false, 1.5));
        let rec = aero.next_action(&ctx, &history);
        assert_eq!(
            rec,
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(0.5),
                voltage_index: Some(1),
            }
        );
        assert_eq!(aero.mispredictions(), 1);
        // Still failing: another 0.5 ms pulse, but no new misprediction count.
        history.push(outcome(300, false, 0.5));
        let rec2 = aero.next_action(&ctx, &history);
        assert!(
            matches!(rec2, EraseAction::Pulse { pulse, .. } if pulse == Micros::from_millis_f64(0.5))
        );
        assert_eq!(aero.mispredictions(), 1);
    }

    #[test]
    fn aggressive_partial_result_is_not_a_misprediction() {
        let mut aero = Aero::aggressive();
        let ctx = BlockContext::new(BlockId(4), 1_500);
        aero.begin(&ctx);
        let mut history = Vec::new();
        let _ = aero.next_action(&ctx, &history); // shallow
                                                  // F(0) in (2δ, 3δ]: aggressive remainder of 1.0 ms (reduced, margin).
        history.push(outcome(3 * delta() - 10, false, 1.0));
        let a = aero.next_action(&ctx, &history);
        assert_eq!(
            a,
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(1.0),
                voltage_index: Some(1),
            }
        );
        // It did not fully erase; aggressive mode accepts the partial state.
        history.push(outcome(600, false, 1.0));
        assert_eq!(
            aero.next_action(&ctx, &history),
            EraseAction::Finish {
                accept_partial: true
            }
        );
        assert_eq!(aero.mispredictions(), 0);
    }

    #[test]
    fn loop_budget_is_respected() {
        let mut aero = Aero::conservative();
        let ctx = BlockContext::new(BlockId(5), 5_000);
        aero.begin(&ctx);
        let mut history = Vec::new();
        let _ = aero.next_action(&ctx, &history);
        for _ in 0..9 {
            history.push(outcome(60 * delta(), false, 3.5));
        }
        assert_eq!(
            aero.next_action(&ctx, &history),
            EraseAction::Finish {
                accept_partial: true
            }
        );
    }

    #[test]
    fn names_reflect_mode() {
        assert_eq!(Aero::aggressive().name(), "AERO");
        assert_eq!(Aero::conservative().name(), "AERO_CONS");
        assert!(Aero::aggressive().is_aggressive());
        assert!(!Aero::conservative().is_aggressive());
    }

    #[test]
    fn state_round_trips_through_export_import() {
        let mut aero = Aero::conservative().with_misprediction_rate(0.5);
        // Mutate every piece of persisted state: grow + clear SEF bits,
        // advance the RNG, bump the counters.
        let ctx = BlockContext::new(BlockId(70), 2_500);
        aero.begin(&ctx);
        let _ = aero.next_action(&ctx, &[]);
        let history = vec![outcome(40 * delta(), false, 1.0)];
        let _ = aero.next_action(&ctx, &history);
        aero.finish(&ctx, &history, true);
        assert!(!aero.sef().is_enabled(BlockId(70)));
        assert!(aero.shallow_erases() > 0);

        let blob = aero.export_state();
        let mut restored = Aero::conservative().with_misprediction_rate(0.5);
        assert!(restored.import_state(&blob));
        assert_eq!(restored.sef(), aero.sef());
        assert_eq!(restored.shallow_erases(), aero.shallow_erases());
        assert_eq!(restored.mispredictions(), aero.mispredictions());
        assert_eq!(restored.skipped_final_loops(), aero.skipped_final_loops());
        // The RNG resumed at the same position: both sides draw identical
        // predictions from here on.
        restored.begin(&ctx);
        aero.begin(&ctx);
        let probe = vec![outcome(2 * delta() - 100, false, 1.0)];
        let _ = restored.next_action(&ctx, &[]);
        let _ = aero.next_action(&ctx, &[]);
        assert_eq!(
            restored.next_action(&ctx, &probe),
            aero.next_action(&ctx, &probe)
        );
    }

    #[test]
    fn corrupt_state_blobs_are_rejected() {
        let aero = Aero::aggressive();
        let blob = aero.export_state();
        let mut target = Aero::aggressive();
        // Truncations at every boundary.
        for cut in 0..blob.len() {
            assert!(
                !target.import_state(&blob[..cut]),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage.
        let mut long = blob.clone();
        long.push(0);
        assert!(!target.import_state(&long));
        // Wrong variant tag (conservative blob into an aggressive scheme).
        let cons_blob = Aero::conservative().export_state();
        assert!(!target.import_state(&cons_blob));
        // An absurd SEF length cannot cause a huge allocation: the length
        // is validated against the blob size first.
        let mut huge = blob.clone();
        huge[2..10].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(!target.import_state(&huge));
        // The untouched blob still imports.
        assert!(target.import_state(&blob));
    }
}
