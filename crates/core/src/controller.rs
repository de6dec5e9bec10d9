//! The erase controller: drives a [`Chip`] erase operation under a scheme.
//!
//! This is the mechanism half of AERO FTL's erase path (Figure 12): it holds
//! the policy ([`EraseScheme`]) and translates its decisions into chip
//! commands — SET FEATURE for the pulse latency, forced voltage indices,
//! erase loops, and finalization — while collecting statistics.

use aero_nand::chip::{Chip, EraseReport};
use aero_nand::geometry::BlockAddr;
use aero_nand::NandError;

use crate::scheme::{BlockContext, BlockId, EraseAction, EraseScheme};
use crate::stats::EraseStats;

/// Result of one controlled erase operation.
#[derive(Debug, Clone, PartialEq)]
pub struct EraseExecution {
    /// The chip-level erase report (loops, latency, stress, residual).
    pub report: EraseReport,
    /// Name of the scheme that produced it ([`EraseScheme::name`]).
    pub scheme: &'static str,
    /// True if the scheme deliberately accepted an incomplete erasure.
    pub accepted_partial: bool,
}

/// Drives erase operations on a chip under a pluggable scheme.
#[derive(Debug, Clone)]
pub struct EraseController<S> {
    scheme: S,
    stats: EraseStats,
}

impl<S: EraseScheme> EraseController<S> {
    /// Creates a controller around a scheme.
    pub fn new(scheme: S) -> Self {
        EraseController {
            scheme,
            stats: EraseStats::new(),
        }
    }

    /// Read access to the scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Mutable access to the scheme (e.g. to inspect or reconfigure it).
    pub fn scheme_mut(&mut self) -> &mut S {
        &mut self.scheme
    }

    /// Statistics over every erase this controller has performed.
    pub fn stats(&self) -> &EraseStats {
        &self.stats
    }

    /// Replaces the controller's lifetime statistics wholesale. Used by
    /// snapshot restore: run-local reports are diffs against this lifetime
    /// stream, so a restored drive must resume it bit for bit.
    pub fn restore_stats(&mut self, stats: EraseStats) {
        self.stats = stats;
    }

    /// Erases `block` on `chip` under the controller's scheme.
    ///
    /// The scheme's program-latency and erase-voltage scaling for the block's
    /// current wear level are applied to the chip before the erase starts, so
    /// subsequent programs also see the correct latency (this is how DPES's
    /// write-latency cost reaches the system level).
    ///
    /// # Errors
    ///
    /// Propagates chip errors; also returns [`NandError::EraseFailure`] if the
    /// scheme keeps issuing pulses past four times the chip's loop budget
    /// (a defensive bound — no provided scheme does this).
    pub fn erase(
        &mut self,
        chip: &mut Chip,
        block: BlockAddr,
        block_id: BlockId,
    ) -> Result<EraseExecution, NandError> {
        let pec = chip.wear(block)?.pec;
        let ctx = BlockContext::new(block_id, pec);
        chip.set_program_latency_scale(self.scheme.program_latency_scale(pec).max(1.0));
        chip.set_erase_voltage_scale(
            self.scheme
                .erase_voltage_scale(pec)
                .clamp(f64::MIN_POSITIVE, 1.0),
        );

        self.scheme.begin(&ctx);
        chip.begin_erase(block)?;
        let mut history = Vec::new();
        let max_actions = chip.family().erase.max_loops * 4;
        let accepted_partial = loop {
            if history.len() as u32 > max_actions {
                // Defensive: a runaway scheme; finalize and report failure.
                let attempted = history.len() as u32;
                let _ = chip.finish_erase(block, history)?;
                return Err(NandError::EraseFailure {
                    addr: block,
                    loops_attempted: attempted,
                });
            }
            match self.scheme.next_action(&ctx, &history) {
                EraseAction::Pulse {
                    pulse,
                    voltage_index,
                } => {
                    if let Some(index) = voltage_index {
                        chip.force_erase_loop_index(block, index)?;
                    }
                    chip.set_erase_pulse(block, pulse)?;
                    let outcome = chip.run_erase_loop(block)?;
                    history.push(outcome);
                }
                EraseAction::Finish { accept_partial } => break accept_partial,
            }
        };
        let report = chip.finish_erase(block, history)?;
        self.scheme
            .finish(&ctx, &report.loops, report.completely_erased());
        self.stats.record(&report, accepted_partial);
        Ok(EraseExecution {
            report,
            scheme: self.scheme.name(),
            accepted_partial,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aero::Aero;
    use crate::baseline::BaselineIspe;
    use crate::dpes::Dpes;
    use crate::iispe::IntelligentIspe;
    use aero_nand::cell::DataPattern;
    use aero_nand::chip::ChipConfig;
    use aero_nand::chip_family::ChipFamily;
    use aero_nand::timing::Micros;

    fn chip(seed: u64) -> Chip {
        Chip::new(ChipConfig::new(ChipFamily::small_test()).with_seed(seed))
    }

    #[test]
    fn baseline_erases_fresh_block_in_one_full_loop() {
        let mut c = chip(1);
        let mut ctl = EraseController::new(BaselineIspe::paper_default());
        let exec = ctl.erase(&mut c, BlockAddr::new(0, 0), BlockId(0)).unwrap();
        assert!(exec.report.completely_erased());
        assert_eq!(exec.report.n_loops(), 1);
        assert_eq!(exec.report.total_latency, c.family().timings.erase_loop());
        assert_eq!(ctl.stats().operations, 1);
    }

    #[test]
    fn aero_is_faster_than_baseline_on_fresh_blocks() {
        let mut c_base = chip(7);
        let mut c_aero = chip(7);
        let mut base = EraseController::new(BaselineIspe::paper_default());
        let mut aero = EraseController::new(Aero::conservative());
        let b = BlockAddr::new(0, 0);
        let e_base = base.erase(&mut c_base, b, BlockId(0)).unwrap();
        let e_aero = aero.erase(&mut c_aero, b, BlockId(0)).unwrap();
        assert!(e_aero.report.completely_erased());
        assert!(
            e_aero.report.total_latency < e_base.report.total_latency,
            "AERO {} should beat baseline {}",
            e_aero.report.total_latency,
            e_base.report.total_latency
        );
        assert!(e_aero.report.stress < e_base.report.stress);
    }

    #[test]
    fn aggressive_aero_reduces_stress_further() {
        let mut c_cons = chip(9);
        let mut c_aggr = chip(9);
        let mut cons = EraseController::new(Aero::conservative());
        let mut aggr = EraseController::new(Aero::aggressive());
        let b = BlockAddr::new(0, 1);
        let e_cons = cons.erase(&mut c_cons, b, BlockId(1)).unwrap();
        let e_aggr = aggr.erase(&mut c_aggr, b, BlockId(1)).unwrap();
        assert!(e_aggr.report.stress <= e_cons.report.stress);
    }

    #[test]
    fn dpes_applies_program_scaling_through_chip() {
        let mut c = chip(3);
        let mut ctl = EraseController::new(Dpes::paper_default());
        let b = BlockAddr::new(0, 2);
        ctl.erase(&mut c, b, BlockId(2)).unwrap();
        let p = c
            .program_page(
                aero_nand::geometry::PageAddr::new(b, 0),
                DataPattern::Randomized,
            )
            .unwrap();
        assert!(p.latency > c.family().timings.program);
    }

    #[test]
    fn iispe_skips_loops_on_repeat_erases() {
        let mut c = chip(5);
        // Wear the block so it needs multiple loops.
        let b = BlockAddr::new(0, 3);
        c.precondition_block(b, 2_500).unwrap();
        let mut ctl = EraseController::new(IntelligentIspe::paper_default());
        let first = ctl.erase(&mut c, b, BlockId(3)).unwrap();
        assert!(first.report.completely_erased());
        c.program_block_bulk(b, DataPattern::Randomized).unwrap();
        let second = ctl.erase(&mut c, b, BlockId(3)).unwrap();
        assert!(second.report.completely_erased());
        // The second erase should use at most as many loops as the first
        // (it jumps to the recorded voltage).
        assert!(second.report.n_loops() <= first.report.n_loops());
    }

    #[test]
    fn repeated_pe_cycling_with_aero_keeps_chip_consistent() {
        let mut c = chip(11);
        let b = BlockAddr::new(1, 0);
        let mut ctl = EraseController::new(Aero::aggressive());
        for _ in 0..20 {
            let exec = ctl.erase(&mut c, b, BlockId(64)).unwrap();
            assert!(exec.report.n_loops() >= 1 || exec.accepted_partial);
            c.program_block_bulk(b, DataPattern::Randomized).unwrap();
        }
        assert_eq!(c.wear(b).unwrap().pec, 20);
        assert_eq!(ctl.stats().operations, 20);
        // AERO on fresh blocks overwhelmingly completes within a single loop's
        // worth of latency.
        assert!(ctl.stats().mean_latency() < Micros::from_millis_f64(3.6));
    }

    #[test]
    fn stats_accumulate_across_blocks() {
        let mut c = chip(13);
        let mut ctl = EraseController::new(BaselineIspe::paper_default());
        for i in 0..4 {
            ctl.erase(&mut c, BlockAddr::new(0, i), BlockId(i as usize))
                .unwrap();
        }
        assert_eq!(ctl.stats().operations, 4);
        assert_eq!(ctl.stats().complete_erases, 4);
    }
}
