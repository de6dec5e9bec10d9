//! Raw bit-error-rate (RBER) model.
//!
//! The quantity the paper's lifetime evaluation tracks is `M_RBER`: the
//! maximum number of raw bit errors per 1 KiB codeword across the pages of a
//! block, read back after the reference retention period. A block is usable
//! while `M_RBER` stays below the RBER requirement (63 errors per 1 KiB for
//! the paper's ECC).
//!
//! `M_RBER` is modelled as the sum of:
//!
//! * a fresh-block base level,
//! * retention-induced errors scaled by the retention severity,
//! * wear-induced errors growing super-linearly with the accumulated erase
//!   *stress* (voltage-weighted pulse time) and linearly with accumulated
//!   program stress,
//! * errors caused by programming over an insufficiently-erased block
//!   (proportional to the residual un-erased dose, already discounted for
//!   data randomization),
//! * a per-block process-variation offset.

use crate::cell::{CellTechnology, DataPattern};
use crate::chip_family::ChipFamily;
use crate::reliability::retention::RetentionSpec;
use crate::wear::WearState;

/// Inputs to one `M_RBER` evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RberSample {
    /// Accumulated wear of the block.
    pub wear: WearState,
    /// Residual un-erased dose present when the block was last programmed
    /// (zero for a completely erased block).
    pub residual_units: f64,
    /// Retention condition of the data being read.
    pub retention: RetentionSpec,
    /// Data pattern programmed into the block.
    pub pattern: DataPattern,
    /// Per-block reliability offset from process variation.
    pub block_offset: f64,
}

impl RberSample {
    /// A sample describing a completely-erased, randomized-data read of an
    /// average block under the reference retention condition.
    pub fn nominal(wear: WearState) -> Self {
        RberSample {
            wear,
            residual_units: 0.0,
            retention: RetentionSpec::one_year_30c(),
            pattern: DataPattern::Randomized,
            block_offset: 0.0,
        }
    }
}

/// The per-family RBER model.
#[derive(Debug, Clone, PartialEq)]
pub struct RberModel {
    cell: CellTechnology,
    params: crate::chip_family::ReliabilityParams,
}

impl RberModel {
    /// Builds the RBER model of a chip family.
    pub fn new(family: &ChipFamily) -> Self {
        RberModel {
            cell: family.cell,
            params: family.reliability,
        }
    }

    /// The underlying reliability parameters.
    pub fn params(&self) -> &crate::chip_family::ReliabilityParams {
        &self.params
    }

    /// Maximum raw bit errors per 1 KiB for the given sample.
    pub fn m_rber(&self, sample: &RberSample) -> f64 {
        let p = &self.params;
        let wear_errors = p.errors_per_stress
            * (sample.wear.erase_stress / 1000.0).powf(p.stress_exponent)
            + p.errors_per_program_stress * (sample.wear.program_stress / 1000.0);
        let retention_errors = p.retention_errors * sample.retention.severity();
        // Only cells that the new data wants to keep in the erased state are
        // threatened by residual charge; data randomization programs most
        // cells to higher states (87.5% for TLC).
        let residual_exposure = sample.pattern.erased_fraction(self.cell)
            / DataPattern::Randomized.erased_fraction(self.cell).max(1e-9);
        let incomplete_errors =
            p.errors_per_residual_unit * sample.residual_units.max(0.0) * residual_exposure;
        (p.base_errors + sample.block_offset + wear_errors + retention_errors + incomplete_errors)
            .max(0.0)
    }

    /// The P/E-cycle count at which a block with the given per-cycle stress
    /// pattern crosses an error requirement. Used by lifetime studies; the
    /// caller supplies the average erase stress and program stress added per
    /// cycle.
    pub fn lifetime_pec(
        &self,
        requirement: f64,
        erase_stress_per_cycle: impl Fn(u32) -> f64,
        program_stress_per_cycle: f64,
        retention: RetentionSpec,
    ) -> u32 {
        let mut wear = WearState::new();
        let mut pec = 0u32;
        loop {
            let sample = RberSample {
                wear,
                residual_units: 0.0,
                retention,
                pattern: DataPattern::Randomized,
                block_offset: 0.0,
            };
            if self.m_rber(&sample) > requirement || pec >= 20_000 {
                return pec;
            }
            wear.erase_stress += erase_stress_per_cycle(pec);
            wear.program_stress += program_stress_per_cycle;
            wear.pec += 1;
            pec += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RberModel {
        RberModel::new(&ChipFamily::tlc_3d_48l())
    }

    fn wear_with(erase_stress: f64, pec: u32) -> WearState {
        WearState {
            pec,
            erase_stress,
            program_stress: pec as f64,
        }
    }

    #[test]
    fn fresh_block_is_well_within_requirement() {
        let m = model();
        let s = RberSample::nominal(WearState::new());
        let errors = m.m_rber(&s);
        assert!(errors > 5.0 && errors < 25.0, "fresh-block M_RBER {errors}");
    }

    #[test]
    fn errors_grow_with_erase_stress() {
        let m = model();
        let low = m.m_rber(&RberSample::nominal(wear_with(10_000.0, 1_000)));
        let high = m.m_rber(&RberSample::nominal(wear_with(100_000.0, 4_000)));
        assert!(high > low);
    }

    #[test]
    fn baseline_like_stress_crosses_requirement_near_5k_pec() {
        // Approximate the conventional ISPE scheme's per-erase stress profile
        // and check the lifetime lands in the paper's ballpark (~5.3K PEC).
        let m = model();
        let family = ChipFamily::tlc_3d_48l();
        let stress_per_cycle = |pec: u32| {
            // Typical loop count grows with PEC (Figure 4).
            let n = match pec {
                0..=1499 => 1,
                1500..=2999 => 2,
                3000..=3999 => 3,
                4000..=4999 => 4,
                _ => 5,
            };
            (1..=n)
                .map(|i| family.stress_for_pulse(i, family.timings.erase_pulse, 1.0))
                .sum::<f64>()
        };
        let life = m.lifetime_pec(63.0, stress_per_cycle, 1.0, RetentionSpec::one_year_30c());
        assert!(
            (4_000..=7_000).contains(&life),
            "baseline lifetime {life} PEC should be near 5.3K"
        );
    }

    #[test]
    fn incomplete_erasure_adds_errors() {
        let m = model();
        let wear = wear_with(30_000.0, 2_000);
        let complete = m.m_rber(&RberSample::nominal(wear));
        let incomplete = m.m_rber(&RberSample {
            residual_units: 2.0,
            ..RberSample::nominal(wear)
        });
        assert!(incomplete > complete + 10.0);
    }

    #[test]
    fn data_pattern_modulates_residual_exposure() {
        let m = model();
        let wear = wear_with(30_000.0, 2_000);
        let randomized = m.m_rber(&RberSample {
            residual_units: 2.0,
            ..RberSample::nominal(wear)
        });
        let worst = m.m_rber(&RberSample {
            residual_units: 2.0,
            pattern: DataPattern::AllErasedState,
            ..RberSample::nominal(wear)
        });
        let best = m.m_rber(&RberSample {
            residual_units: 2.0,
            pattern: DataPattern::AllProgrammedState,
            ..RberSample::nominal(wear)
        });
        assert!(worst > randomized);
        assert!(best < randomized);
    }

    #[test]
    fn retention_increases_errors() {
        let m = model();
        let wear = wear_with(30_000.0, 2_000);
        let fresh_read = m.m_rber(&RberSample {
            retention: RetentionSpec::immediate(),
            ..RberSample::nominal(wear)
        });
        let after_year = m.m_rber(&RberSample::nominal(wear));
        assert!(after_year > fresh_read);
    }

    #[test]
    fn reduced_stress_extends_lifetime() {
        let m = model();
        let family = ChipFamily::tlc_3d_48l();
        let full = |_pec: u32| family.stress_for_pulse(1, family.timings.erase_pulse, 1.0) * 2.0;
        let reduced = |_pec: u32| family.stress_for_pulse(1, family.timings.erase_pulse, 1.0);
        let life_full = m.lifetime_pec(63.0, full, 1.0, RetentionSpec::one_year_30c());
        let life_reduced = m.lifetime_pec(63.0, reduced, 1.0, RetentionSpec::one_year_30c());
        assert!(life_reduced > life_full);
    }
}
