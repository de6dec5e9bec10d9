//! The Erase-timing Parameter Table (EPT).
//!
//! The EPT is the offline-profiled lookup table at the heart of AERO FTL
//! (Figure 12): given which erase loop is about to run (the predicted final
//! loop, `N_ISPE`) and the fail-bit range reported by the previous verify-read
//! step, it returns the minimum erase-pulse latency `mtEP` to use. Each entry
//! has two values (the paper's Table 1):
//!
//! * the **conservative** latency, derived purely from process-variation
//!   characterization (Figures 7/8) — long enough for *complete* erasure;
//! * the **aggressive** latency, which additionally spends the ECC-capability
//!   margin (Figure 10) — it may leave the block insufficiently erased, but
//!   only where the resulting extra raw bit errors still fit under the RBER
//!   requirement. An aggressive latency of zero means the loop is skipped
//!   entirely.
//!
//! [`Ept::paper_table1`] reproduces the paper's published table verbatim;
//! [`Ept::derive`] rebuilds the table from the device model and an arbitrary
//! ECC requirement (used by the Figure 17 sensitivity study).

use aero_nand::chip_family::ChipFamily;
use aero_nand::erase::characteristics::ispe_decomposition;
use aero_nand::erase::failbits::FailBitModel;
use aero_nand::reliability::ecc::EccConfig;
use aero_nand::reliability::rber::{RberModel, RberSample};
use aero_nand::reliability::retention::RetentionSpec;
use aero_nand::timing::Micros;
use aero_nand::wear::WearState;

/// Number of `N_ISPE` rows the table carries (loops 1..=5, as in Table 1).
pub const EPT_ROWS: usize = 5;
/// Number of fail-bit ranges per row: `≤γ`, `≤δ`, `≤2δ`, …, `≤7δ`.
pub const EPT_RANGES: usize = 8;

/// One EPT entry: the conservative and aggressive pulse latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EptEntry {
    /// Pulse latency when exploiting process variation only (`AERO_CONS`).
    pub conservative: Micros,
    /// Pulse latency when also spending the ECC-capability margin (`AERO`).
    /// Zero means the loop is skipped.
    pub aggressive: Micros,
}

/// The decision an EPT lookup produces for the next erase loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EptDecision {
    /// Skip the loop entirely and accept the block as (insufficiently)
    /// erased.
    Skip,
    /// Run the loop with the given reduced pulse latency.
    Pulse(Micros),
    /// No reduction is possible; run the loop with the default latency.
    NoReduction,
}

/// The Erase-timing Parameter Table.
#[derive(Debug, Clone, PartialEq)]
pub struct Ept {
    rows: Vec<Vec<EptEntry>>,
    default_pulse: Micros,
    shallow_pulse: Micros,
}

impl Ept {
    /// Builds an EPT from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if the row/column counts do not match [`EPT_ROWS`] and
    /// [`EPT_RANGES`].
    pub fn from_rows(
        rows: Vec<Vec<EptEntry>>,
        default_pulse: Micros,
        shallow_pulse: Micros,
    ) -> Self {
        assert_eq!(rows.len(), EPT_ROWS, "EPT must have {EPT_ROWS} rows");
        for row in &rows {
            assert_eq!(
                row.len(),
                EPT_RANGES,
                "EPT rows must have {EPT_RANGES} entries"
            );
        }
        Ept {
            rows,
            default_pulse,
            shallow_pulse,
        }
    }

    /// The paper's Table 1 for the characterized 3D TLC chips
    /// (default `tEP` = 3.5 ms, `tSE` = 1 ms).
    pub fn paper_table1() -> Self {
        fn ms(v: f64) -> Micros {
            Micros::from_millis_f64(v)
        }
        fn e(c: f64, a: f64) -> EptEntry {
            EptEntry {
                conservative: ms(c),
                aggressive: ms(a),
            }
        }
        let rows = vec![
            // N_ISPE = 1 (after shallow erasure; remainder capped at 2.5 ms).
            vec![
                e(0.5, 0.0),
                e(1.0, 0.0),
                e(1.5, 0.5),
                e(2.0, 1.0),
                e(2.5, 1.5),
                e(2.5, 2.0),
                e(2.5, 2.5),
                e(2.5, 2.5),
            ],
            // N_ISPE = 2.
            vec![
                e(0.5, 0.0),
                e(1.0, 0.0),
                e(1.5, 0.5),
                e(2.0, 1.0),
                e(2.5, 1.5),
                e(3.0, 2.0),
                e(3.5, 2.5),
                e(3.5, 3.0),
            ],
            // N_ISPE = 3.
            vec![
                e(0.5, 0.0),
                e(1.0, 0.0),
                e(1.5, 0.5),
                e(2.0, 1.0),
                e(2.5, 1.5),
                e(3.0, 2.0),
                e(3.5, 2.5),
                e(3.5, 3.0),
            ],
            // N_ISPE = 4.
            vec![
                e(0.5, 0.0),
                e(1.0, 0.5),
                e(1.5, 1.0),
                e(2.0, 1.5),
                e(2.5, 2.0),
                e(3.0, 2.5),
                e(3.5, 3.0),
                e(3.5, 3.5),
            ],
            // N_ISPE = 5: no aggressive reduction is safe.
            vec![
                e(0.5, 0.5),
                e(1.0, 1.0),
                e(1.5, 1.5),
                e(2.0, 2.0),
                e(2.5, 2.5),
                e(3.0, 3.0),
                e(3.5, 3.5),
                e(3.5, 3.5),
            ],
        ];
        Ept::from_rows(rows, ms(3.5), ms(1.0))
    }

    /// Derives an EPT from the device model and an ECC configuration, the way
    /// the paper's offline profiling (Figures 7–10) does:
    ///
    /// * conservative entries cover the worst-case remaining erase time of
    ///   each fail-bit range;
    /// * aggressive entries spend the ECC-capability margin available at the
    ///   wear level where blocks typically need `N_ISPE` loops, discounted by
    ///   a small safety guard.
    pub fn derive(family: &ChipFamily, ecc: &EccConfig) -> Self {
        let default_pulse = family.timings.erase_pulse;
        let shallow_pulse = Micros::from_millis_f64(1.0);
        let step = family.timings.erase_pulse_step;
        let step_ms = step.as_millis_f64();
        let rber = RberModel::new(family);
        let guard_errors = 2.0;
        let mut rows = Vec::with_capacity(EPT_ROWS);
        for n_ispe in 1..=EPT_ROWS as u32 {
            // Cap for this row: the remainder of loop 1 after shallow
            // erasure, or the full default pulse for later loops.
            let cap = if n_ispe == 1 {
                default_pulse.saturating_sub(shallow_pulse)
            } else {
                default_pulse
            };
            // Margin available at the wear level where blocks typically reach
            // this N_ISPE under conventional cycling.
            let wear = representative_wear(family, n_ispe);
            let complete_errors = rber.m_rber(&RberSample::nominal(wear));
            let margin = ecc.margin(complete_errors + guard_errors);
            let allowed_residual_units = margin / family.reliability.errors_per_residual_unit;
            let mut row = Vec::with_capacity(EPT_RANGES);
            for range in 0..EPT_RANGES as u32 {
                // Worst-case remaining erase time of this fail-bit range, in
                // 0.5 ms units at the measured voltage: the ≤γ range needs at
                // most one unit, the ≤kδ range at most 1 + k units.
                let worst_remaining = if range == 0 { 1.0 } else { 1.0 + range as f64 };
                let conservative = Micros::from_millis_f64(worst_remaining * step_ms)
                    .min(cap)
                    .max(step);
                let needed = (worst_remaining - allowed_residual_units).max(0.0);
                let aggressive = if needed <= 0.0 {
                    Micros::ZERO
                } else {
                    Micros::from_millis_f64((needed * step_ms / step_ms).ceil() * step_ms)
                        .min(cap)
                        .max(step)
                };
                row.push(EptEntry {
                    conservative,
                    aggressive,
                });
            }
            rows.push(row);
        }
        Ept::from_rows(rows, default_pulse, shallow_pulse)
    }

    /// The chip's default (worst-case) erase-pulse latency.
    pub fn default_pulse(&self) -> Micros {
        self.default_pulse
    }

    /// The shallow-erasure pulse latency `tSE`.
    pub fn shallow_pulse(&self) -> Micros {
        self.shallow_pulse
    }

    /// Raw entry lookup. `n_ispe` is clamped to the last row; a range index
    /// beyond the table means no reduction is possible.
    pub fn entry(&self, n_ispe: u32, range_index: u32) -> Option<EptEntry> {
        assert!(n_ispe >= 1, "N_ISPE is 1-based");
        let row = (n_ispe as usize - 1).min(EPT_ROWS - 1);
        self.rows[row].get(range_index as usize).copied()
    }

    /// Looks up the decision for the next erase loop.
    ///
    /// * `n_ispe` — index of the loop about to run (its predicted final loop);
    /// * `fail_bits` — fail-bit count from the previous verify-read step;
    /// * `aggressive` — whether to use the ECC-margin-spending column.
    pub fn decide(
        &self,
        fail_model: &FailBitModel,
        n_ispe: u32,
        fail_bits: u64,
        aggressive: bool,
    ) -> EptDecision {
        if fail_model.is_high(fail_bits) {
            return EptDecision::NoReduction;
        }
        let range = fail_model.range_index(fail_bits);
        match self.entry(n_ispe, range) {
            None => EptDecision::NoReduction,
            Some(entry) => {
                let pulse = if aggressive {
                    entry.aggressive
                } else {
                    entry.conservative
                };
                if pulse.is_zero() {
                    EptDecision::Skip
                } else if pulse >= self.default_pulse {
                    EptDecision::NoReduction
                } else {
                    EptDecision::Pulse(pulse)
                }
            }
        }
    }

    /// Number of entries (for storage-overhead accounting; the paper reports
    /// 35 entries ≈ 140 bytes).
    pub fn entry_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

impl Default for Ept {
    fn default() -> Self {
        Ept::paper_table1()
    }
}

/// Approximate wear of a block at the point in its life where it typically
/// needs `n_ispe` loops under conventional ISPE cycling. Used to estimate the
/// ECC margin available when deriving aggressive EPT entries.
fn representative_wear(family: &ChipFamily, n_ispe: u32) -> WearState {
    use aero_nand::erase::characteristics::{baseline_equivalent_wear, EraseCharacteristics};
    // Find the lowest PEC at which a nominal, conventionally-cycled block
    // needs `n_ispe` loops, then take the midpoint of that region (or extend
    // past it for the last row).
    let nominal = EraseCharacteristics::nominal();
    let pec_for = |target: u32| -> u32 {
        let mut pec = 0u32;
        loop {
            let wear = baseline_equivalent_wear(family, pec);
            let dose = nominal.mean_required_dose(family, &wear);
            if ispe_decomposition(family, dose).n_ispe >= target || pec >= 12_000 {
                return pec;
            }
            pec += 200;
        }
    };
    let start = pec_for(n_ispe);
    let end = pec_for(n_ispe + 1);
    let mid = start + (end.saturating_sub(start)) / 2;
    let _ = RetentionSpec::one_year_30c();
    baseline_equivalent_wear(family, mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail_model() -> FailBitModel {
        FailBitModel::new(ChipFamily::tlc_3d_48l().fail_bits)
    }

    fn ms(v: f64) -> Micros {
        Micros::from_millis_f64(v)
    }

    #[test]
    fn paper_table_has_35_entries() {
        let ept = Ept::paper_table1();
        assert_eq!(ept.entry_count(), 35 + 5); // 5 rows x 8 ranges (the paper counts 35 = 7x5)
    }

    #[test]
    fn paper_table_row1_matches_published_values() {
        let ept = Ept::paper_table1();
        let expected_cons = [0.5, 1.0, 1.5, 2.0, 2.5, 2.5, 2.5, 2.5];
        let expected_aggr = [0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 2.5];
        for (i, (&c, &a)) in expected_cons.iter().zip(expected_aggr.iter()).enumerate() {
            let e = ept.entry(1, i as u32).unwrap();
            assert_eq!(e.conservative, ms(c), "row 1 range {i} conservative");
            assert_eq!(e.aggressive, ms(a), "row 1 range {i} aggressive");
        }
    }

    #[test]
    fn paper_table_row5_has_no_aggressive_reduction() {
        let ept = Ept::paper_table1();
        for i in 0..EPT_RANGES as u32 {
            let e = ept.entry(5, i).unwrap();
            assert_eq!(e.conservative, e.aggressive, "row 5 range {i}");
        }
    }

    #[test]
    fn decide_uses_ranges_and_modes() {
        let ept = Ept::paper_table1();
        let fm = fail_model();
        let gamma = fm.params().gamma as u64;
        let delta = fm.params().delta as u64;
        // F <= gamma, first loop: conservative 0.5 ms, aggressive skip.
        assert_eq!(
            ept.decide(&fm, 1, gamma, false),
            EptDecision::Pulse(ms(0.5))
        );
        assert_eq!(ept.decide(&fm, 1, gamma, true), EptDecision::Skip);
        // F in (gamma, delta]: conservative 1 ms, aggressive skip.
        assert_eq!(
            ept.decide(&fm, 2, delta, false),
            EptDecision::Pulse(ms(1.0))
        );
        assert_eq!(ept.decide(&fm, 2, delta, true), EptDecision::Skip);
        // Row 4 is more cautious aggressively.
        assert_eq!(ept.decide(&fm, 4, delta, true), EptDecision::Pulse(ms(0.5)));
        // Above F_HIGH: no reduction.
        let high = fm.params().f_high as u64 + 1;
        assert_eq!(ept.decide(&fm, 2, high, false), EptDecision::NoReduction);
        // 3.5 ms entries equal the default pulse, so they are "no reduction".
        let sixdelta = 6 * delta + 1;
        assert_eq!(
            ept.decide(&fm, 2, sixdelta, false),
            EptDecision::NoReduction
        );
    }

    #[test]
    fn n_ispe_beyond_rows_clamps_to_last_row() {
        let ept = Ept::paper_table1();
        let fm = fail_model();
        let gamma = fm.params().gamma as u64;
        assert_eq!(
            ept.decide(&fm, 8, gamma, true),
            ept.decide(&fm, 5, gamma, true)
        );
    }

    #[test]
    fn derived_table_matches_paper_for_default_requirement() {
        let family = ChipFamily::tlc_3d_48l();
        let derived = Ept::derive(&family, &EccConfig::paper_default());
        let paper = Ept::paper_table1();
        // Conservative column must match exactly: it is pure geometry of the
        // fail-bit ranges.
        for n in 1..=5u32 {
            for r in 0..EPT_RANGES as u32 {
                assert_eq!(
                    derived.entry(n, r).unwrap().conservative,
                    paper.entry(n, r).unwrap().conservative,
                    "conservative mismatch at row {n} range {r}"
                );
            }
        }
        // Aggressive column: skips must be allowed for the early rows at low
        // fail-bit counts and must disappear by row 5.
        assert!(derived.entry(1, 1).unwrap().aggressive.is_zero());
        assert!(derived.entry(2, 1).unwrap().aggressive.is_zero());
        assert!(!derived.entry(5, 0).unwrap().aggressive.is_zero());
    }

    #[test]
    fn weaker_requirement_removes_aggressive_skips() {
        let family = ChipFamily::tlc_3d_48l();
        let strict = Ept::derive(&family, &EccConfig::paper_default().with_requirement(40));
        let normal = Ept::derive(&family, &EccConfig::paper_default());
        let mut strict_skips = 0;
        let mut normal_skips = 0;
        for n in 1..=5u32 {
            for r in 0..EPT_RANGES as u32 {
                if strict.entry(n, r).unwrap().aggressive.is_zero() {
                    strict_skips += 1;
                }
                if normal.entry(n, r).unwrap().aggressive.is_zero() {
                    normal_skips += 1;
                }
            }
        }
        assert!(
            strict_skips < normal_skips,
            "weaker ECC must allow fewer skips"
        );
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn malformed_rows_rejected() {
        let _ = Ept::from_rows(vec![vec![]], ms(3.5), ms(1.0));
    }
}
