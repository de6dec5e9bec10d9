//! Deterministic NAND fault injection and read-retry recovery.
//!
//! Real NAND fails: programs report status failures, erases on worn blocks
//! refuse to converge, blocks grow bad in the field, and reads occasionally
//! come back with more raw bit errors than a single hard-decision decode
//! can fix. This module models those events as a seeded, per-die
//! [`FaultModel`] so a simulated drive can exercise its firmware recovery
//! paths — remapping, bad-block retirement, read-retry ladders, graceful
//! degradation — under exactly reproducible fault sequences.
//!
//! Two properties drive the design:
//!
//! * **Determinism.** Every fault decision is drawn from a dedicated
//!   `ChaCha12Rng` owned by the model (never the chip's noise RNG), so
//!   enabling faults does not perturb the chip's existing random streams,
//!   and a given seed + event order replays the identical fault sequence.
//!   The RNG state is exportable ([`FaultModel::export_rng`]) so snapshots
//!   can capture a drive mid-stream.
//! * **Zero cost when disabled.** With every rate at zero
//!   ([`FaultConfig::disabled`], the default) each query short-circuits to
//!   `false` without touching the RNG, keeping the fault checks off the
//!   simulator's hot path.
//!
//! Erase-status failures are *wear- and scheme-aware*: the probability
//! scales with the block's accumulated P/E cycles and with the residual
//! un-erased dose the operation left behind, so a shallow AERO erase on a
//! worn block fails more often than a deep Baseline erase on the same
//! block — the exact risk the paper's erase-status check exists to manage.
//!
//! Uncorrectable reads are handled by a multi-level read-retry ladder
//! ([`recover_read`]): each retry re-senses the page (paying `tR` plus a
//! hard decode again) with a slightly shifted read reference voltage that
//! recovers a fraction of the raw errors; when the ladder is exhausted a
//! soft-decision decode buys a last capability boost at a much higher
//! latency. Only if all of that fails is the read uncorrectable — a media
//! error the FTL must surface instead of panicking.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::chip::EraseReport;
use crate::reliability::ecc::EccConfig;

/// Maximum number of read-retry levels attempted before soft decoding.
pub const MAX_READ_RETRIES: u32 = 4;

/// Fraction of raw bit errors recovered by each read-retry level (a
/// shifted read reference voltage re-centers part of the distribution).
pub const RETRY_ERROR_REDUCTION: f64 = 0.12;

/// Correction-capability multiplier bought by a soft-decision decode.
pub const SOFT_DECODE_GAIN: f64 = 1.15;

/// Injection rates for the NAND fault model, in events per million
/// operations. All-zero (the [`FaultConfig::disabled`] default) turns the
/// model off entirely; individual classes can be enabled independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Program-status failures per million page programs. A failed program
    /// wastes the page slot: the firmware must remap the in-flight write to
    /// the next page and leave the failed one dead.
    pub program_fail_per_million: u32,
    /// Base erase-status failures per million block erases. The effective
    /// probability is scaled up by block wear and by residual un-erased
    /// dose (see [`FaultModel::erase_fails`]), so worn blocks and shallow
    /// erases fail more often.
    pub erase_fail_per_million: u32,
    /// Grown-bad-block declarations per million page programs. A grown-bad
    /// block keeps serving its current data but must fail its next erase
    /// status check and be retired.
    pub grown_bad_per_million: u32,
    /// Raw-bit-error spikes per million page reads: a spiked read comes
    /// back with an error count near or beyond the ECC capability and must
    /// go through the read-retry ladder ([`recover_read`]).
    pub read_fault_per_million: u32,
}

impl FaultConfig {
    /// The all-zero configuration: no faults are ever injected and the
    /// fault checks stay off the hot path.
    pub fn disabled() -> Self {
        FaultConfig {
            program_fail_per_million: 0,
            erase_fail_per_million: 0,
            grown_bad_per_million: 0,
            read_fault_per_million: 0,
        }
    }

    /// True if any fault class has a non-zero rate.
    pub fn any_enabled(&self) -> bool {
        self.program_fail_per_million != 0
            || self.erase_fail_per_million != 0
            || self.grown_bad_per_million != 0
            || self.read_fault_per_million != 0
    }

    /// True if read-error spikes are enabled (the only fault class that
    /// adds work to the read path).
    pub fn read_faults_enabled(&self) -> bool {
        self.read_fault_per_million != 0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// A seeded, per-die fault injector. See the [module docs](self) for the
/// design; one model is owned by each die so fault draws stay local to the
/// die's deterministic event order.
#[derive(Debug, Clone)]
pub struct FaultModel {
    config: FaultConfig,
    rng: ChaCha12Rng,
}

impl FaultModel {
    /// Builds a fault model with the given rates and RNG seed. Two models
    /// built with the same arguments produce identical draw sequences.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultModel {
            config,
            rng: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True if any fault class is enabled.
    pub fn any_enabled(&self) -> bool {
        self.config.any_enabled()
    }

    /// Draws whether the next page program reports a status failure.
    /// Consumes no randomness when the class is disabled.
    pub fn program_fails(&mut self) -> bool {
        let rate = self.config.program_fail_per_million;
        rate != 0 && self.rng.gen::<f64>() * 1e6 < rate as f64
    }

    /// Draws whether the block being programmed is declared grown-bad.
    /// Consumes no randomness when the class is disabled.
    pub fn grows_bad(&mut self) -> bool {
        let rate = self.config.grown_bad_per_million;
        rate != 0 && self.rng.gen::<f64>() * 1e6 < rate as f64
    }

    /// Draws whether a just-finished erase reports a status failure.
    ///
    /// The base rate is scaled by the operation's wear and depth: each
    /// thousand P/E cycles on the block adds 25 % to the base probability,
    /// and residual un-erased dose (the signature of a shallow erase)
    /// multiplies it further — so AERO's aggressive partial erases on worn
    /// blocks are the riskiest operations, exactly as the paper's
    /// status-check discussion argues. Consumes no randomness when the
    /// class is disabled.
    pub fn erase_fails(&mut self, report: &EraseReport) -> bool {
        let rate = self.config.erase_fail_per_million;
        if rate == 0 {
            return false;
        }
        let wear_factor = 1.0 + report.pec_after as f64 / 4_000.0;
        let depth_factor = 1.0 + 3.0 * report.residual_units.max(0.0);
        let p = (rate as f64 / 1e6 * wear_factor * depth_factor).min(1.0);
        self.rng.gen::<f64>() < p
    }

    /// Draws whether this read suffers a raw-bit-error spike and, if so,
    /// the spiked error count: uniform in `[0.85, 2.0] ×` the ECC
    /// capability, so some spikes recover after a retry or two, most yield
    /// to the full ladder or the soft decode, and the worst are
    /// uncorrectable media errors. Returns `None` (consuming no
    /// randomness) when the class is disabled, and `None` (after one draw)
    /// when no spike fires.
    pub fn read_spike(&mut self, capability_per_kib: u32) -> Option<f64> {
        let rate = self.config.read_fault_per_million;
        if rate == 0 || self.rng.gen::<f64>() * 1e6 >= rate as f64 {
            return None;
        }
        let scale = self.rng.gen_range(0.85..2.0);
        Some(capability_per_kib as f64 * scale)
    }

    /// The fault RNG's full internal state (33 little-endian words), for
    /// exact snapshotting mid-stream (same contract as
    /// [`Chip::export_rng`](crate::Chip::export_rng)).
    pub fn export_rng(&self) -> [u32; 33] {
        self.rng.dump_state()
    }

    /// Restores the fault RNG from a previously exported state. Returns
    /// `false` (and changes nothing) if the state is invalid.
    pub fn import_rng(&mut self, words: &[u32; 33]) -> bool {
        match ChaCha12Rng::from_state(words) {
            Some(rng) => {
                self.rng = rng;
                true
            }
            None => false,
        }
    }
}

/// Outcome of driving one page read through the read-retry ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadRecovery {
    /// Number of retry levels used (0 = the initial hard decode
    /// succeeded; at most [`MAX_READ_RETRIES`]).
    pub retries: u32,
    /// True if the read fell through to a soft-decision decode.
    pub soft_decoded: bool,
    /// True if the data was recovered; false is an uncorrectable media
    /// error.
    pub corrected: bool,
    /// Extra latency paid beyond the initial sense, in nanoseconds: hard
    /// decodes, retry re-senses, and the soft decode if reached.
    pub extra_latency_ns: u64,
}

/// Drives one page read through the multi-level read-retry ladder.
///
/// The initial sense has already been paid by the caller; this function
/// accounts everything after it. Level 0 is the ordinary hard-decision
/// decode. Each subsequent retry re-senses the page with a shifted read
/// reference (another `sense_ns` plus another hard decode) and recovers
/// [`RETRY_ERROR_REDUCTION`] of the remaining raw errors. After
/// [`MAX_READ_RETRIES`] retries a soft-decision decode is attempted at
/// [`SOFT_DECODE_GAIN`] × the hard capability and the soft-decode latency.
/// The returned [`ReadRecovery`] reports how far the ladder went, whether
/// the data came back, and the extra latency the recovery cost — the
/// latency-for-correction trade the ladder exists to make.
pub fn recover_read(ecc: &EccConfig, errors_per_kib: f64, sense_ns: u64) -> ReadRecovery {
    let capability = ecc.capability_per_kib as f64;
    let hard_ns = ecc.hard_decode_latency.as_nanos();
    let mut errors = errors_per_kib;
    let mut extra = hard_ns;
    let mut retries = 0;
    while errors > capability && retries < MAX_READ_RETRIES {
        retries += 1;
        errors *= 1.0 - RETRY_ERROR_REDUCTION;
        extra += sense_ns + hard_ns;
    }
    if errors <= capability {
        return ReadRecovery {
            retries,
            soft_decoded: false,
            corrected: true,
            extra_latency_ns: extra,
        };
    }
    extra += ecc.soft_decode_latency.as_nanos();
    ReadRecovery {
        retries,
        soft_decoded: true,
        corrected: errors <= capability * SOFT_DECODE_GAIN,
        extra_latency_ns: extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BlockAddr;
    use crate::timing::Micros;

    fn erase_report(residual_units: f64, pec_after: u32) -> EraseReport {
        EraseReport {
            block: BlockAddr::new(0, 0),
            loops: Vec::new(),
            total_latency: Micros::from_millis_f64(3.5),
            stress: 1.0,
            residual_units,
            pec_after,
        }
    }

    #[test]
    fn disabled_model_never_fires_and_never_draws() {
        let mut m = FaultModel::new(FaultConfig::disabled(), 7);
        let before = m.export_rng();
        for _ in 0..100 {
            assert!(!m.program_fails());
            assert!(!m.grows_bad());
            assert!(!m.erase_fails(&erase_report(1.0, 5_000)));
            assert!(m.read_spike(72).is_none());
        }
        assert_eq!(m.export_rng(), before, "disabled queries must not draw");
        assert!(!m.any_enabled());
    }

    #[test]
    fn same_seed_replays_the_same_fault_sequence() {
        let config = FaultConfig {
            program_fail_per_million: 100_000,
            erase_fail_per_million: 200_000,
            grown_bad_per_million: 50_000,
            read_fault_per_million: 150_000,
        };
        let mut a = FaultModel::new(config, 42);
        let mut b = FaultModel::new(config, 42);
        for i in 0..500 {
            assert_eq!(a.program_fails(), b.program_fails(), "draw {i}");
            assert_eq!(a.grows_bad(), b.grows_bad(), "draw {i}");
            assert_eq!(
                a.erase_fails(&erase_report(0.5, 1_000)),
                b.erase_fails(&erase_report(0.5, 1_000)),
                "draw {i}"
            );
            assert_eq!(a.read_spike(72), b.read_spike(72), "draw {i}");
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let config = FaultConfig {
            program_fail_per_million: 250_000, // 25 %
            erase_fail_per_million: 0,
            grown_bad_per_million: 0,
            read_fault_per_million: 0,
        };
        let mut m = FaultModel::new(config, 3);
        let fails = (0..10_000).filter(|_| m.program_fails()).count();
        assert!(
            (2_000..3_000).contains(&fails),
            "25 % rate drew {fails} failures in 10k trials"
        );
    }

    #[test]
    fn erase_failures_scale_with_wear_and_shallowness() {
        let config = FaultConfig {
            program_fail_per_million: 0,
            erase_fail_per_million: 30_000,
            grown_bad_per_million: 0,
            read_fault_per_million: 0,
        };
        let trials = 20_000;
        let count = |residual: f64, pec: u32, seed: u64| {
            let mut m = FaultModel::new(config, seed);
            let report = erase_report(residual, pec);
            (0..trials).filter(|_| m.erase_fails(&report)).count()
        };
        let deep_fresh = count(0.0, 0, 1);
        let shallow_worn = count(1.5, 4_500, 1);
        assert!(
            shallow_worn > deep_fresh * 3,
            "shallow erases on worn blocks must fail far more often \
             ({shallow_worn} vs {deep_fresh} in {trials} trials)"
        );
    }

    #[test]
    fn read_spikes_land_near_the_ecc_capability() {
        let config = FaultConfig {
            program_fail_per_million: 0,
            erase_fail_per_million: 0,
            grown_bad_per_million: 0,
            read_fault_per_million: 1_000_000, // every read spikes
        };
        let mut m = FaultModel::new(config, 9);
        for _ in 0..200 {
            let errors = m.read_spike(72).expect("rate 1.0 always spikes");
            assert!((61.0..144.1).contains(&errors), "spike {errors}");
        }
    }

    #[test]
    fn retry_ladder_trades_latency_for_correction() {
        let ecc = EccConfig::paper_default();
        let sense_ns = 50_000;
        // Clean read: one hard decode, no retries.
        let clean = recover_read(&ecc, 20.0, sense_ns);
        assert!(clean.corrected && !clean.soft_decoded);
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.extra_latency_ns, ecc.hard_decode_latency.as_nanos());
        // Mild spike: a couple of retries, each paying a re-sense.
        let mild = recover_read(&ecc, 80.0, sense_ns);
        assert!(mild.corrected && !mild.soft_decoded);
        assert!(mild.retries >= 1 && mild.retries <= MAX_READ_RETRIES);
        assert!(mild.extra_latency_ns > clean.extra_latency_ns + sense_ns);
        // Heavy spike: the ladder exhausts and the soft decode recovers it.
        let heavy = recover_read(&ecc, 130.0, sense_ns);
        assert!(heavy.corrected && heavy.soft_decoded);
        assert_eq!(heavy.retries, MAX_READ_RETRIES);
        assert!(heavy.extra_latency_ns > mild.extra_latency_ns);
        // Catastrophic spike: uncorrectable even after soft decoding.
        let lost = recover_read(&ecc, 200.0, sense_ns);
        assert!(!lost.corrected && lost.soft_decoded);
        // Monotone: more errors never cost less recovery latency.
        let mut last = 0;
        for errors in [10.0, 75.0, 85.0, 100.0, 130.0, 200.0] {
            let r = recover_read(&ecc, errors, sense_ns);
            assert!(r.extra_latency_ns >= last, "latency dipped at {errors}");
            last = r.extra_latency_ns;
        }
    }

    #[test]
    fn rng_state_round_trips() {
        let config = FaultConfig {
            program_fail_per_million: 500_000,
            erase_fail_per_million: 0,
            grown_bad_per_million: 0,
            read_fault_per_million: 0,
        };
        let mut m = FaultModel::new(config, 5);
        for _ in 0..37 {
            let _ = m.program_fails();
        }
        let words = m.export_rng();
        let mut restored = FaultModel::new(config, 5);
        assert!(restored.import_rng(&words));
        for i in 0..100 {
            assert_eq!(restored.program_fails(), m.program_fails(), "draw {i}");
        }
        let mut bad = words;
        bad[32] = 99;
        assert!(!restored.import_rng(&bad));
    }
}
