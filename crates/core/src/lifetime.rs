//! P/E-cycling lifetime experiments on single blocks.
//!
//! These helpers run the experiment behind the paper's Figure 13: cycle a
//! block (program every page, erase it with a given scheme) while periodically
//! recording its maximum RBER under the reference retention condition, until
//! the RBER requirement is exceeded. The characterization crate aggregates
//! these per-block curves over whole chip populations.

use aero_nand::cell::DataPattern;
use aero_nand::chip::Chip;
use aero_nand::geometry::BlockAddr;
use aero_nand::reliability::retention::RetentionSpec;
use aero_nand::NandError;

use crate::controller::EraseController;
use crate::scheme::{BlockId, EraseScheme};

/// One point of a lifetime curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimePoint {
    /// P/E-cycle count at which the sample was taken.
    pub pec: u32,
    /// Maximum RBER (errors per 1 KiB) of the block at that point, under the
    /// reference retention condition.
    pub m_rber: f64,
}

/// Result of cycling one block to (or past) its end of life.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeCurve {
    /// Scheme used for every erase.
    pub scheme: String,
    /// Sampled (PEC, M_RBER) points.
    pub points: Vec<LifetimePoint>,
    /// First P/E-cycle count at which `M_RBER` exceeded the requirement, if it
    /// was reached within the cycling budget.
    pub lifetime_pec: Option<u32>,
}

impl LifetimeCurve {
    /// Interpolated `M_RBER` at a given PEC (nearest sampled point at or
    /// below it).
    pub fn m_rber_at(&self, pec: u32) -> Option<f64> {
        self.points
            .iter()
            .take_while(|p| p.pec <= pec)
            .last()
            .map(|p| p.m_rber)
    }
}

/// Configuration of a block-cycling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclingConfig {
    /// Maximum number of P/E cycles to run.
    pub max_pec: u32,
    /// Record an `M_RBER` sample every this many cycles.
    pub sample_every: u32,
    /// RBER requirement (errors per 1 KiB) that defines end of life.
    pub requirement: f64,
    /// Retention condition used for the RBER samples.
    pub retention: RetentionSpec,
    /// Keep cycling after the requirement is crossed (to plot the full curve)
    /// or stop immediately.
    pub stop_at_requirement: bool,
}

impl Default for CyclingConfig {
    fn default() -> Self {
        CyclingConfig {
            max_pec: 8_000,
            sample_every: 250,
            requirement: 63.0,
            retention: RetentionSpec::one_year_30c(),
            stop_at_requirement: false,
        }
    }
}

/// Cycles one block under a scheme, recording its RBER trajectory.
///
/// Each cycle programs the whole block with randomized data (bulk bookkeeping,
/// not page by page) and erases it through the controller.
///
/// # Errors
///
/// Propagates chip errors (out-of-range addresses, erase failures).
pub fn cycle_block<S: EraseScheme>(
    chip: &mut Chip,
    block: BlockAddr,
    block_id: BlockId,
    controller: &mut EraseController<S>,
    config: &CyclingConfig,
) -> Result<LifetimeCurve, NandError> {
    let mut points = Vec::new();
    let mut lifetime = None;
    let mut record = |chip: &Chip, pec: u32, lifetime: &mut Option<u32>| -> Result<(), NandError> {
        let m_rber = chip.m_rber(block, config.retention)?;
        points.push(LifetimePoint { pec, m_rber });
        if lifetime.is_none() && m_rber > config.requirement {
            *lifetime = Some(pec);
        }
        Ok(())
    };
    record(chip, 0, &mut lifetime)?;
    let mut pec = chip.wear(block)?.pec;
    while pec < config.max_pec {
        // One P/E cycle: erase (scheme-controlled), then program.
        controller.erase(chip, block, block_id)?;
        chip.program_block_bulk(block, DataPattern::Randomized)?;
        pec = chip.wear(block)?.pec;
        if pec % config.sample_every == 0 || pec == config.max_pec {
            record(chip, pec, &mut lifetime)?;
            if config.stop_at_requirement && lifetime.is_some() {
                break;
            }
        }
    }
    Ok(LifetimeCurve {
        scheme: controller.scheme().name().to_string(),
        points,
        lifetime_pec: lifetime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aero::Aero;
    use crate::baseline::BaselineIspe;
    use aero_nand::chip::ChipConfig;
    use aero_nand::chip_family::ChipFamily;

    fn chip(seed: u64) -> Chip {
        Chip::new(ChipConfig::new(ChipFamily::small_test()).with_seed(seed))
    }

    fn quick_config(max_pec: u32) -> CyclingConfig {
        CyclingConfig {
            max_pec,
            sample_every: 100,
            ..CyclingConfig::default()
        }
    }

    #[test]
    fn rber_grows_monotonically_with_cycling() {
        let mut c = chip(2);
        let mut ctl = EraseController::new(BaselineIspe::paper_default());
        let curve = cycle_block(
            &mut c,
            BlockAddr::new(0, 0),
            BlockId(0),
            &mut ctl,
            &quick_config(500),
        )
        .unwrap();
        assert!(curve.points.len() >= 5);
        for pair in curve.points.windows(2) {
            assert!(pair[1].m_rber >= pair[0].m_rber - 1e-9);
        }
        assert_eq!(curve.scheme, "Baseline");
    }

    #[test]
    fn aero_cons_wears_slower_than_baseline() {
        let mut c_base = chip(4);
        let mut c_aero = chip(4);
        let mut base = EraseController::new(BaselineIspe::paper_default());
        let mut aero = EraseController::new(Aero::conservative());
        let cfg = quick_config(800);
        let b = BlockAddr::new(0, 1);
        let curve_base = cycle_block(&mut c_base, b, BlockId(1), &mut base, &cfg).unwrap();
        let curve_aero = cycle_block(&mut c_aero, b, BlockId(1), &mut aero, &cfg).unwrap();
        let base_final = curve_base.points.last().unwrap().m_rber;
        let aero_final = curve_aero.points.last().unwrap().m_rber;
        assert!(
            aero_final < base_final,
            "AERO_CONS M_RBER {aero_final} should stay below baseline {base_final}"
        );
        // The conservative variant still erases completely every time.
        assert!(c_aero.wear(b).unwrap().erase_stress < c_base.wear(b).unwrap().erase_stress);
    }

    #[test]
    fn aggressive_aero_trades_early_rber_for_less_stress() {
        // Figure 13: AERO's aggressive reductions raise M_RBER even for fresh
        // blocks but accumulate far less erase stress, which is what pays off
        // at high P/E-cycle counts.
        let mut c_base = chip(6);
        let mut c_aero = chip(6);
        let mut base = EraseController::new(BaselineIspe::paper_default());
        let mut aero = EraseController::new(Aero::aggressive());
        let cfg = quick_config(600);
        let b = BlockAddr::new(0, 2);
        cycle_block(&mut c_base, b, BlockId(2), &mut base, &cfg).unwrap();
        cycle_block(&mut c_aero, b, BlockId(2), &mut aero, &cfg).unwrap();
        let stress_base = c_base.wear(b).unwrap().erase_stress;
        let stress_aero = c_aero.wear(b).unwrap().erase_stress;
        assert!(
            stress_aero < 0.8 * stress_base,
            "aggressive AERO stress {stress_aero} should be well below baseline {stress_base}"
        );
    }

    #[test]
    fn m_rber_at_interpolates_to_previous_sample() {
        let curve = LifetimeCurve {
            scheme: "x".to_string(),
            points: vec![
                LifetimePoint {
                    pec: 0,
                    m_rber: 10.0,
                },
                LifetimePoint {
                    pec: 100,
                    m_rber: 20.0,
                },
            ],
            lifetime_pec: None,
        };
        assert_eq!(curve.m_rber_at(0), Some(10.0));
        assert_eq!(curve.m_rber_at(50), Some(10.0));
        assert_eq!(curve.m_rber_at(150), Some(20.0));
    }
}
