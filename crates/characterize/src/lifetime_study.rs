//! The lifetime study behind Figure 13: average `M_RBER` versus P/E cycles
//! for the five erase schemes, and the SSD lifetime each scheme achieves.
//!
//! The paper constructs five sets of 120 blocks randomly selected from its
//! 160 chips and cycles each set with one scheme, measuring the maximum RBER
//! under 1-year retention as wear accumulates. Here each set is a small chip
//! model whose blocks are cycled through the scheme's
//! [`EraseController`].

use std::collections::BTreeMap;

use aero_core::config::SchemeKind;
use aero_core::controller::EraseController;
use aero_core::scheme::BlockId;
use aero_nand::cell::DataPattern;
use aero_nand::chip::{Chip, ChipConfig};
use aero_nand::chip_family::ChipFamily;
use aero_nand::geometry::ChipGeometry;
use aero_nand::reliability::retention::RetentionSpec;

/// Configuration of the Figure 13 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeStudyConfig {
    /// Chip family to cycle.
    pub family: ChipFamily,
    /// Number of blocks cycled per scheme.
    pub blocks_per_scheme: u32,
    /// Maximum P/E cycles to run.
    pub max_pec: u32,
    /// Sample the average `M_RBER` every this many cycles.
    pub sample_every: u32,
    /// RBER requirement defining end of life.
    pub requirement: f64,
    /// RNG seed.
    pub seed: u64,
}

impl LifetimeStudyConfig {
    /// The paper's configuration: 120 blocks per scheme, cycled to 8K PEC,
    /// against the 63 errors/KiB requirement.
    pub fn paper_default() -> Self {
        LifetimeStudyConfig {
            family: ChipFamily::tlc_3d_48l(),
            blocks_per_scheme: 120,
            max_pec: 8_000,
            sample_every: 500,
            requirement: 63.0,
            seed: 0xF13,
        }
    }

    /// A reduced configuration for quick runs and tests.
    pub fn quick() -> Self {
        LifetimeStudyConfig {
            blocks_per_scheme: 16,
            max_pec: 6_500,
            sample_every: 500,
            ..LifetimeStudyConfig::paper_default()
        }
    }
}

/// The Figure 13 curve of one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeLifetime {
    /// The scheme.
    pub scheme: SchemeKind,
    /// (PEC, average `M_RBER` across the block set).
    pub curve: Vec<(u32, f64)>,
    /// First sampled PEC at which the average `M_RBER` exceeded the
    /// requirement (`None` if it never did within the cycling budget).
    pub lifetime_pec: Option<u32>,
}

impl SchemeLifetime {
    /// Average `M_RBER` at the sample closest to (at or below) `pec`.
    pub fn m_rber_at(&self, pec: u32) -> Option<f64> {
        self.curve
            .iter()
            .take_while(|(p, _)| *p <= pec)
            .last()
            .map(|(_, m)| *m)
    }

    /// Lifetime improvement relative to a baseline lifetime (e.g. +0.43 for
    /// a 43 % longer lifetime). Uses `max_pec` when the scheme never crossed
    /// the requirement.
    pub fn lifetime_improvement(&self, baseline_pec: u32, max_pec: u32) -> f64 {
        let own = self.lifetime_pec.unwrap_or(max_pec) as f64;
        own / baseline_pec as f64 - 1.0
    }
}

/// Result of the full Figure 13 study.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeStudy {
    /// Per-scheme curves, in the order of [`SchemeKind::all`].
    pub schemes: Vec<SchemeLifetime>,
    /// Configuration used.
    pub config: LifetimeStudyConfig,
}

impl LifetimeStudy {
    /// The curve of a given scheme.
    pub fn scheme(&self, kind: SchemeKind) -> Option<&SchemeLifetime> {
        self.schemes.iter().find(|s| s.scheme == kind)
    }

    /// Lifetime (in PEC) of a given scheme, saturating to the cycling budget.
    pub fn lifetime_of(&self, kind: SchemeKind) -> u32 {
        self.scheme(kind)
            .and_then(|s| s.lifetime_pec)
            .unwrap_or(self.config.max_pec)
    }
}

/// A small chip geometry that holds exactly the cycled block set.
fn study_geometry(blocks: u32) -> ChipGeometry {
    ChipGeometry {
        planes: 1,
        blocks_per_plane: blocks,
        pages_per_block: 64,
        page_size_bytes: 16 * 1024,
        wordlines_per_block: 22,
    }
}

/// Runs the Figure 13 experiment for every scheme. Each scheme cycles its
/// own chip model from the same seed, so the schemes are independent jobs
/// and run in parallel when threads are available; the result is identical
/// at any thread count.
pub fn run(config: &LifetimeStudyConfig) -> LifetimeStudy {
    let schemes = aero_exec::par_map(SchemeKind::all().into_iter().collect(), |kind| {
        run_scheme(config, kind)
    });
    LifetimeStudy {
        schemes,
        config: config.clone(),
    }
}

/// Runs the Figure 13 experiment for one scheme.
pub fn run_scheme(config: &LifetimeStudyConfig, kind: SchemeKind) -> SchemeLifetime {
    let mut family = config.family.clone();
    family.geometry = study_geometry(config.blocks_per_scheme);
    let mut chip = Chip::new(ChipConfig::new(family.clone()).with_seed(config.seed));
    let ecc = aero_nand::reliability::ecc::EccConfig::paper_default()
        .with_requirement((config.requirement.round() as u32).min(72));
    let mut controller = EraseController::new(kind.build_with_requirement(&family, &ecc));
    let retention = RetentionSpec::one_year_30c();
    let blocks: Vec<_> = family.geometry.iter_blocks().collect();

    let mut curve: BTreeMap<u32, f64> = BTreeMap::new();
    let mut lifetime: Option<u32> = None;
    let mut sample = |chip: &Chip, pec: u32, lifetime: &mut Option<u32>| {
        let sum: f64 = blocks
            .iter()
            .map(|&b| chip.m_rber(b, retention).expect("block address is valid"))
            .sum();
        let avg = sum / blocks.len() as f64;
        curve.insert(pec, avg);
        if lifetime.is_none() && avg > config.requirement {
            *lifetime = Some(pec);
        }
    };
    sample(&chip, 0, &mut lifetime);
    // Blocks that exhaust the chip's loop budget without erasing are worn out
    // ("dead"); they stop being cycled but keep contributing their last RBER.
    let mut alive = vec![true; blocks.len()];
    let mut pec = 0u32;
    while pec < config.max_pec {
        let next_sample = (pec + config.sample_every).min(config.max_pec);
        while pec < next_sample {
            for (i, &block) in blocks.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                match controller.erase(&mut chip, block, BlockId(i)) {
                    Ok(_) => {
                        chip.program_block_bulk(block, DataPattern::Randomized)
                            .expect("freshly erased block is programmable");
                    }
                    Err(_) => alive[i] = false,
                }
            }
            pec += 1;
        }
        sample(&chip, pec, &mut lifetime);
    }
    SchemeLifetime {
        scheme: kind,
        curve: curve.into_iter().collect(),
        lifetime_pec: lifetime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(max_pec: u32) -> LifetimeStudyConfig {
        LifetimeStudyConfig {
            blocks_per_scheme: 6,
            max_pec,
            sample_every: 250,
            ..LifetimeStudyConfig::paper_default()
        }
    }

    #[test]
    fn baseline_rber_grows_with_cycling() {
        let cfg = tiny_config(1_000);
        let result = run_scheme(&cfg, SchemeKind::Baseline);
        assert!(result.curve.len() >= 4);
        let first = result.curve.first().unwrap().1;
        let last = result.curve.last().unwrap().1;
        assert!(last > first);
        assert!(
            result.lifetime_pec.is_none(),
            "1K PEC is far from end of life"
        );
    }

    #[test]
    fn aero_slows_rber_growth_relative_to_baseline() {
        let cfg = tiny_config(2_000);
        let base = run_scheme(&cfg, SchemeKind::Baseline);
        let cons = run_scheme(&cfg, SchemeKind::AeroCons);
        let base_growth = base.m_rber_at(2_000).unwrap() - base.m_rber_at(0).unwrap();
        let cons_growth = cons.m_rber_at(2_000).unwrap() - cons.m_rber_at(0).unwrap();
        assert!(
            cons_growth < base_growth,
            "AERO_CONS growth {cons_growth} must be below baseline {base_growth}"
        );
    }

    #[test]
    fn lifetime_improvement_helper() {
        let s = SchemeLifetime {
            scheme: SchemeKind::Aero,
            curve: vec![(0, 10.0), (1000, 20.0)],
            lifetime_pec: Some(7_600),
        };
        assert!((s.lifetime_improvement(5_300, 8_000) - 0.434).abs() < 0.01);
        assert_eq!(s.m_rber_at(500), Some(10.0));
    }
}
