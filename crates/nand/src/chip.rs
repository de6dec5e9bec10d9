//! The NAND flash chip (die) model.
//!
//! A [`Chip`] owns the per-block state (process-variation characteristics,
//! wear, erase state, program pointer) and executes page reads, page
//! programs, and loop-granular erase operations. Erase operations expose the
//! exact control surface AERO needs: the pulse latency of every erase loop can
//! be tuned before the loop runs (SET FEATURE), the fail-bit count of the last
//! verify-read step can be queried (GET FEATURE), the erase voltage index can
//! be forced (i-ISPE), the erase voltage can be scaled down (DPES), and an
//! erase can be finalized early with the block left insufficiently erased
//! (AERO's aggressive mode).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use std::collections::BTreeMap;

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::cell::DataPattern;
use crate::chip_family::ChipFamily;
use crate::erase::characteristics::{
    ispe_decomposition, BlockEraseState, EraseCharacteristics, MinimumEraseLatency,
};
use crate::erase::ispe::{EraseLoopOutcome, IspeEngine, StressMemo};
use crate::geometry::{BlockAddr, ChipGeometry, PageAddr};
use crate::reliability::rber::{RberModel, RberSample};
use crate::reliability::retention::RetentionSpec;
use crate::timing::Micros;
use crate::wear::WearState;
use crate::NandError;

/// Configuration of a [`Chip`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// The chip family (geometry, timings, calibrated model constants).
    pub family: ChipFamily,
    /// Seed for the chip's process-variation and noise RNG. Two chips built
    /// with the same family and seed are identical.
    pub seed: u64,
}

impl ChipConfig {
    /// Creates a configuration for the given family with seed 0.
    pub fn new(family: ChipFamily) -> Self {
        ChipConfig { family, seed: 0 }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-block bookkeeping.
#[derive(Debug, Clone, PartialEq)]
struct BlockState {
    characteristics: EraseCharacteristics,
    wear: WearState,
    erase_state: BlockEraseState,
    /// Next page index expected by the in-order programming rule.
    next_page: u32,
    /// Number of pages programmed since the last erase.
    programmed_pages: u32,
    /// Data pattern of the most recent program burst (used for RBER queries).
    pattern: DataPattern,
    /// `N_ISPE` of the most recent erase operation, if any.
    last_n_ispe: Option<u32>,
}

/// Result of a complete (or deliberately finalized) erase operation.
#[derive(Debug, Clone, PartialEq)]
pub struct EraseReport {
    /// The erased block.
    pub block: BlockAddr,
    /// Outcome of every erase loop that ran.
    pub loops: Vec<EraseLoopOutcome>,
    /// Total latency of the operation (all EP and VR steps).
    pub total_latency: Micros,
    /// Cell stress delivered by the operation.
    pub stress: f64,
    /// Residual un-erased dose left behind (zero when completely erased).
    pub residual_units: f64,
    /// P/E-cycle count of the block after this erase.
    pub pec_after: u32,
}

impl EraseReport {
    /// True if the final verify-read step passed (`F ≤ F_PASS`).
    pub fn completely_erased(&self) -> bool {
        self.loops.last().map(|o| o.passed).unwrap_or(false)
    }

    /// Number of erase loops performed.
    pub fn n_loops(&self) -> u32 {
        self.loops.len() as u32
    }
}

/// Result of a page read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadReport {
    /// Sensing latency (`tR`).
    pub latency: Micros,
    /// Raw bit errors per 1 KiB the ECC would observe for this read.
    pub errors_per_kib: f64,
}

/// Result of a page program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramReport {
    /// Program latency (`tPROG`), including any scheme-induced scaling.
    pub latency: Micros,
}

/// The mutable per-block state of a [`Chip`], detached from the
/// seed-derived process-variation characteristics. A snapshot layer captures
/// one overlay per block and re-applies it to a freshly rebuilt chip (same
/// family, same seed) to reconstruct the drive exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockOverlay {
    /// Accumulated wear (P/E cycles and stress).
    pub wear: WearState,
    /// Erase state, including any residual dose from a partial erase.
    pub erase_state: BlockEraseState,
    /// Next page index expected by the in-order programming rule.
    pub next_page: u32,
    /// Number of pages programmed since the last erase.
    pub programmed_pages: u32,
    /// Data pattern of the most recent program burst.
    pub pattern: DataPattern,
    /// `N_ISPE` of the most recent erase operation, if any.
    pub last_n_ispe: Option<u32>,
}

/// A NAND flash chip (one die) with loop-granular erase control.
#[derive(Debug, Clone)]
pub struct Chip {
    config: ChipConfig,
    blocks: Vec<BlockState>,
    rber: RberModel,
    rng: ChaCha12Rng,
    /// Erase operations currently in flight, keyed by block. A `BTreeMap`
    /// so any future iteration is in address order by construction (the
    /// workspace determinism contract, rule D1 in `clippy.toml`).
    active_erases: BTreeMap<BlockAddr, IspeEngine>,
    /// Stress factor per erase loop, shared by every erase on the chip.
    stress_memo: StressMemo,
    /// Program-latency scale applied to subsequent programs (DPES raises it).
    program_latency_scale: f64,
    /// Erase-voltage scale applied to subsequently started erases.
    erase_voltage_scale: f64,
}

impl Chip {
    /// Builds a chip, sampling per-block process variation from the seed.
    pub fn new(config: ChipConfig) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(config.seed);
        let geometry = config.family.geometry;
        let blocks = (0..geometry.total_blocks())
            .map(|_| BlockState {
                characteristics: EraseCharacteristics::sample(&config.family, &mut rng),
                wear: WearState::new(),
                erase_state: BlockEraseState::Erased,
                next_page: 0,
                programmed_pages: 0,
                pattern: DataPattern::Randomized,
                last_n_ispe: None,
            })
            .collect();
        let rber = RberModel::new(&config.family);
        let stress_memo = StressMemo::new(&config.family);
        Chip {
            config,
            blocks,
            rber,
            rng,
            active_erases: BTreeMap::new(),
            stress_memo,
            program_latency_scale: 1.0,
            erase_voltage_scale: 1.0,
        }
    }

    /// The chip's family description.
    pub fn family(&self) -> &ChipFamily {
        &self.config.family
    }

    /// The chip's geometry.
    pub fn geometry(&self) -> &ChipGeometry {
        &self.config.family.geometry
    }

    fn block_state(&self, addr: BlockAddr) -> Result<&BlockState, NandError> {
        self.geometry().validate_block(addr)?;
        let idx = self.geometry().block_index(addr);
        Ok(&self.blocks[idx])
    }

    fn block_state_mut(&mut self, addr: BlockAddr) -> Result<&mut BlockState, NandError> {
        self.config.family.geometry.validate_block(addr)?;
        let idx = self.config.family.geometry.block_index(addr);
        Ok(&mut self.blocks[idx])
    }

    // ------------------------------------------------------------------
    // Read / program
    // ------------------------------------------------------------------

    /// Reads a page, returning the sensing latency and the raw bit errors the
    /// ECC would see under the given retention condition.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range or the page has not been
    /// programmed since the last erase.
    pub fn read_page(
        &mut self,
        addr: PageAddr,
        retention: RetentionSpec,
    ) -> Result<ReadReport, NandError> {
        self.geometry().validate_page(addr)?;
        let read_latency = self.config.family.timings.read;
        let state = self.block_state(addr.block)?;
        if addr.page >= state.next_page {
            return Err(NandError::PageNotProgrammed { addr });
        }
        let sample = RberSample {
            wear: state.wear,
            residual_units: state.erase_state.residual_units(),
            retention,
            pattern: state.pattern,
            block_offset: state.characteristics.reliability_offset,
        };
        Ok(ReadReport {
            latency: read_latency,
            errors_per_kib: self.rber.m_rber(&sample),
        })
    }

    /// Programs the next page of a block with the given data pattern.
    ///
    /// Pages must be programmed in order and only after an erase
    /// (erase-before-write). The program latency reflects any program-latency
    /// scaling currently configured (e.g. by DPES).
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range, the block holds un-erased data at
    /// that page, or the program is out of order.
    pub fn program_page(
        &mut self,
        addr: PageAddr,
        pattern: DataPattern,
    ) -> Result<ProgramReport, NandError> {
        self.geometry().validate_page(addr)?;
        let program = self.config.family.timings.program;
        let scale = self.program_latency_scale;
        let pages_per_block = self.geometry().pages_per_block;
        let state = self.block_state_mut(addr.block)?;
        if !state.erase_state.is_programmable() && state.next_page == 0 {
            return Err(NandError::PageNotErased { addr });
        }
        if addr.page != state.next_page {
            return Err(if addr.page < state.next_page {
                NandError::PageNotErased { addr }
            } else {
                NandError::OutOfOrderProgram {
                    addr,
                    expected_page: state.next_page,
                }
            });
        }
        state.next_page += 1;
        state.programmed_pages += 1;
        state.pattern = pattern;
        // Residual charge from a partial erase is preserved in the erase
        // state; the block is now "programmed" but we keep the residual for
        // RBER queries via the PartiallyErased payload when present.
        if matches!(state.erase_state, BlockEraseState::Erased) {
            state.erase_state = BlockEraseState::Programmed;
        }
        state
            .wear
            .record_program(1.0 / pages_per_block as f64, scale);
        Ok(ProgramReport {
            latency: program.scale(scale),
        })
    }

    /// Programs every remaining page of the block in one bookkeeping step,
    /// without iterating page by page. Latency-equivalent to
    /// [`Chip::program_full_block`] but O(1); intended for long P/E-cycling
    /// studies where only wear and reliability matter.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range or the block is not programmable.
    pub fn program_block_bulk(
        &mut self,
        block: BlockAddr,
        pattern: DataPattern,
    ) -> Result<Micros, NandError> {
        self.geometry().validate_block(block)?;
        let program = self.config.family.timings.program;
        let scale = self.program_latency_scale;
        let pages_per_block = self.geometry().pages_per_block;
        let state = self.block_state_mut(block)?;
        if !state.erase_state.is_programmable() && state.next_page == 0 {
            return Err(NandError::PageNotErased {
                addr: PageAddr::new(block, 0),
            });
        }
        let remaining = pages_per_block - state.next_page;
        state.next_page = pages_per_block;
        state.programmed_pages = pages_per_block;
        state.pattern = pattern;
        if matches!(state.erase_state, BlockEraseState::Erased) {
            state.erase_state = BlockEraseState::Programmed;
        }
        state
            .wear
            .record_program(remaining as f64 / pages_per_block as f64, scale);
        Ok(program.scale(scale) * remaining)
    }

    /// Programs every page of the block with the given pattern, returning the
    /// summed program latency. A convenience for P/E-cycling studies.
    pub fn program_full_block(
        &mut self,
        block: BlockAddr,
        pattern: DataPattern,
    ) -> Result<Micros, NandError> {
        let pages = self.geometry().pages_per_block;
        let state = self.block_state(block)?;
        let start = state.next_page;
        let mut total = Micros::ZERO;
        for page in start..pages {
            total += self
                .program_page(PageAddr::new(block, page), pattern)?
                .latency;
        }
        Ok(total)
    }

    // ------------------------------------------------------------------
    // Erase control surface
    // ------------------------------------------------------------------

    /// Begins an erase operation on a block. The block's required erase dose
    /// for this operation is sampled from its characteristics and current
    /// wear.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    pub fn begin_erase(&mut self, block: BlockAddr) -> Result<(), NandError> {
        let family = &self.config.family;
        family.geometry.validate_block(block)?;
        let BlockState {
            characteristics,
            wear,
            ..
        } = &self.blocks[family.geometry.block_index(block)];
        let required = characteristics.sample_required_dose(family, wear, &mut self.rng);
        let mut engine = IspeEngine::new(family, required);
        if self.erase_voltage_scale < 1.0 {
            engine.set_voltage_scale(self.erase_voltage_scale);
        }
        self.active_erases.insert(block, engine);
        Ok(())
    }

    fn active_erase_mut(&mut self, block: BlockAddr) -> Result<&mut IspeEngine, NandError> {
        self.active_erases
            .get_mut(&block)
            .ok_or_else(|| no_erase_in_flight(block))
    }

    /// Sets the erase-pulse latency of the next erase loop of an in-flight
    /// erase (the SET FEATURE hook).
    ///
    /// # Errors
    ///
    /// Fails if no erase is in flight for the block or the latency is out of
    /// range.
    pub fn set_erase_pulse(&mut self, block: BlockAddr, pulse: Micros) -> Result<(), NandError> {
        self.active_erase_mut(block)?.set_next_pulse(pulse)
    }

    /// Forces the voltage index of the next erase loop (used by i-ISPE to skip
    /// the early loops).
    ///
    /// # Errors
    ///
    /// Fails if no erase is in flight for the block.
    pub fn force_erase_loop_index(
        &mut self,
        block: BlockAddr,
        loop_index: u32,
    ) -> Result<(), NandError> {
        self.active_erase_mut(block)?.force_loop_index(loop_index);
        Ok(())
    }

    /// Runs one erase loop (EP + VR) of an in-flight erase and returns its
    /// outcome, including the fail-bit count (the GET FEATURE hook).
    ///
    /// # Errors
    ///
    /// Fails if no erase is in flight for the block.
    pub fn run_erase_loop(&mut self, block: BlockAddr) -> Result<EraseLoopOutcome, NandError> {
        // Not `active_erase_mut`: the family, memo and RNG are borrowed
        // alongside the engine.
        let engine = self
            .active_erases
            .get_mut(&block)
            .ok_or_else(|| no_erase_in_flight(block))?;
        Ok(engine.run_loop_memoized(&self.config.family, &mut self.stress_memo, &mut self.rng))
    }

    /// Finalizes an in-flight erase: records wear, updates the block's erase
    /// state (complete or partial), resets the program pointer, and returns a
    /// report.
    ///
    /// Calling this while the block is not completely erased is legal and is
    /// exactly what AERO's aggressive mode does; the residual dose is carried
    /// into future RBER evaluations.
    ///
    /// # Errors
    ///
    /// Fails if no erase is in flight for the block.
    pub fn finish_erase(
        &mut self,
        block: BlockAddr,
        loops: Vec<EraseLoopOutcome>,
    ) -> Result<EraseReport, NandError> {
        let engine = self
            .active_erases
            .remove(&block)
            .ok_or_else(|| no_erase_in_flight(block))?;
        let residual = engine.residual_units();
        let stress = engine.delivered_stress();
        let total_latency = engine.elapsed();
        let n_ispe = loops.len() as u32;
        let state = self.block_state_mut(block)?;
        state.wear.record_erase(stress);
        state.erase_state = if residual > 0.0 {
            BlockEraseState::PartiallyErased {
                residual_units: residual,
            }
        } else {
            BlockEraseState::Erased
        };
        state.next_page = 0;
        state.programmed_pages = 0;
        state.last_n_ispe = Some(n_ispe);
        let pec_after = state.wear.pec;
        Ok(EraseReport {
            block,
            loops,
            total_latency,
            stress,
            residual_units: residual,
            pec_after,
        })
    }

    /// Erases a block with the conventional ISPE scheme (default pulse latency
    /// every loop, run until the pass condition or loop exhaustion).
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range or the block exhausts the maximum
    /// loop count (`EraseFailure`).
    pub fn erase_block_default(&mut self, block: BlockAddr) -> Result<EraseReport, NandError> {
        self.begin_erase(block)?;
        let max_loops = self.config.family.erase.max_loops;
        let mut loops = Vec::new();
        loop {
            let outcome = self.run_erase_loop(block)?;
            let done = outcome.passed;
            loops.push(outcome);
            if done {
                break;
            }
            if self.active_erase_mut(block)?.next_loop_index() > max_loops {
                let attempted = loops.len() as u32;
                // Finalize bookkeeping, then report the failure.
                let _ = self.finish_erase(block, loops)?;
                return Err(NandError::EraseFailure {
                    addr: block,
                    loops_attempted: attempted,
                });
            }
        }
        self.finish_erase(block, loops)
    }

    /// True if an erase is currently in flight for the block.
    pub fn erase_in_flight(&self, block: BlockAddr) -> bool {
        self.active_erases.contains_key(&block)
    }

    // ------------------------------------------------------------------
    // Global feature knobs (DPES)
    // ------------------------------------------------------------------

    /// Scales the erase voltage of subsequently started erase operations
    /// (DPES). Values below 1.0 reduce wear but erase more slowly.
    ///
    /// # Panics
    ///
    /// Panics if the scale is not within (0, 1].
    pub fn set_erase_voltage_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "voltage scale must be in (0, 1]"
        );
        self.erase_voltage_scale = scale;
    }

    /// Scales the program latency of subsequent program operations (DPES pays
    /// for its reduced erase voltage with slower, more careful programming).
    ///
    /// # Panics
    ///
    /// Panics if the scale is not at least 1.0.
    pub fn set_program_latency_scale(&mut self, scale: f64) {
        assert!(scale >= 1.0, "program latency scale must be >= 1.0");
        self.program_latency_scale = scale;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The block's current wear state.
    pub fn wear(&self, block: BlockAddr) -> Result<WearState, NandError> {
        Ok(self.block_state(block)?.wear)
    }

    /// The block's current erase state.
    pub fn erase_state(&self, block: BlockAddr) -> Result<BlockEraseState, NandError> {
        Ok(self.block_state(block)?.erase_state)
    }

    /// `N_ISPE` of the block's most recent erase, if it has ever been erased.
    pub fn last_n_ispe(&self, block: BlockAddr) -> Result<Option<u32>, NandError> {
        Ok(self.block_state(block)?.last_n_ispe)
    }

    /// Maximum RBER of the block under the given retention condition, as if
    /// every page were read back now.
    pub fn m_rber(&self, block: BlockAddr, retention: RetentionSpec) -> Result<f64, NandError> {
        let state = self.block_state(block)?;
        let sample = RberSample {
            wear: state.wear,
            residual_units: state.erase_state.residual_units(),
            retention,
            pattern: state.pattern,
            block_offset: state.characteristics.reliability_offset,
        };
        Ok(self.rber.m_rber(&sample))
    }

    /// The block's minimum erase latency (`N_ISPE`, `mtEP`) at its current
    /// wear, computed from its mean required dose — the quantity the paper's
    /// m-ISPE characterization measures.
    pub fn minimum_erase_latency(
        &self,
        block: BlockAddr,
    ) -> Result<MinimumEraseLatency, NandError> {
        let state = self.block_state(block)?;
        let dose = state
            .characteristics
            .mean_required_dose(&self.config.family, &state.wear);
        Ok(ispe_decomposition(&self.config.family, dose))
    }

    /// Artificially sets a block's P/E-cycle count and proportional stress, to
    /// jump-start studies at a given wear level without cycling block by
    /// block. The stress assigned corresponds to conventional ISPE cycling.
    pub fn precondition_block(&mut self, block: BlockAddr, pec: u32) -> Result<(), NandError> {
        let wear =
            crate::erase::characteristics::baseline_equivalent_wear(&self.config.family, pec);
        let state = self.block_state_mut(block)?;
        state.wear = wear;
        Ok(())
    }

    /// [`Chip::precondition_block`] for every block of the chip. The wear
    /// state depends only on the chip family and `pec`, so it is computed
    /// once for the whole chip.
    pub fn precondition_all_blocks(&mut self, pec: u32) {
        let wear =
            crate::erase::characteristics::baseline_equivalent_wear(&self.config.family, pec);
        for state in &mut self.blocks {
            state.wear = wear;
        }
    }

    // ------------------------------------------------------------------
    // Snapshot support
    // ------------------------------------------------------------------

    /// The block's mutable state as a detachable overlay, by flat block
    /// index (see [`ChipGeometry::block_index`]). Returns `None` if the
    /// index is out of range.
    pub fn export_block_overlay(&self, block_index: usize) -> Option<BlockOverlay> {
        let state = self.blocks.get(block_index)?;
        Some(BlockOverlay {
            wear: state.wear,
            erase_state: state.erase_state,
            next_page: state.next_page,
            programmed_pages: state.programmed_pages,
            pattern: state.pattern,
            last_n_ispe: state.last_n_ispe,
        })
    }

    /// Re-applies a previously exported overlay to the block at the given
    /// flat index, leaving the block's sampled characteristics untouched.
    /// Returns `false` (and changes nothing) if the index is out of range,
    /// the page counters exceed the geometry, or the wear/erase numbers are
    /// not finite non-negative values.
    pub fn import_block_overlay(&mut self, block_index: usize, overlay: &BlockOverlay) -> bool {
        let pages = self.geometry().pages_per_block;
        let finite = |v: f64| v.is_finite() && v >= 0.0;
        let residual_ok = match overlay.erase_state {
            BlockEraseState::PartiallyErased { residual_units } => {
                finite(residual_units) && residual_units > 0.0
            }
            BlockEraseState::Erased | BlockEraseState::Programmed => true,
        };
        let Some(state) = self.blocks.get_mut(block_index) else {
            return false;
        };
        if overlay.next_page > pages
            || overlay.programmed_pages > pages
            || !finite(overlay.wear.erase_stress)
            || !finite(overlay.wear.program_stress)
            || !residual_ok
        {
            return false;
        }
        state.wear = overlay.wear;
        state.erase_state = overlay.erase_state;
        state.next_page = overlay.next_page;
        state.programmed_pages = overlay.programmed_pages;
        state.pattern = overlay.pattern;
        state.last_n_ispe = overlay.last_n_ispe;
        true
    }

    /// The chip noise RNG's full internal state (33 little-endian words),
    /// for exact snapshotting mid-stream.
    pub fn export_rng(&self) -> [u32; 33] {
        self.rng.dump_state()
    }

    /// Restores the chip noise RNG from a previously exported state.
    /// Returns `false` (and changes nothing) if the state is invalid.
    pub fn import_rng(&mut self, words: &[u32; 33]) -> bool {
        match ChaCha12Rng::from_state(words) {
            Some(rng) => {
                self.rng = rng;
                true
            }
            None => false,
        }
    }

    /// The currently configured program-latency scale (DPES).
    pub fn program_latency_scale(&self) -> f64 {
        self.program_latency_scale
    }

    /// The currently configured erase-voltage scale (DPES).
    pub fn erase_voltage_scale(&self) -> f64 {
        self.erase_voltage_scale
    }

    /// Number of erase operations currently in flight. Snapshot layers use
    /// this to refuse to serialize a chip mid-erase (in-flight engines carry
    /// sampled state that is deliberately not externalized).
    pub fn active_erase_count(&self) -> usize {
        self.active_erases.len()
    }
}

/// The error every erase-control call returns for a block with no erase in
/// flight. Built only on that path: the calls sit on the per-loop hot path.
fn no_erase_in_flight(block: BlockAddr) -> NandError {
    NandError::InvalidSuspendState {
        reason: format!("no erase in flight for block {block}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> Chip {
        Chip::new(ChipConfig::new(ChipFamily::small_test()).with_seed(11))
    }

    #[test]
    fn fresh_chip_erases_in_one_loop() {
        let mut c = chip();
        let r = c.erase_block_default(BlockAddr::new(0, 0)).unwrap();
        assert!(r.completely_erased());
        assert_eq!(r.n_loops(), 1);
        assert_eq!(r.pec_after, 1);
        assert_eq!(r.residual_units, 0.0);
    }

    #[test]
    fn program_requires_order_and_erase() {
        let mut c = chip();
        let b = BlockAddr::new(0, 1);
        c.erase_block_default(b).unwrap();
        let p0 = PageAddr::new(b, 0);
        let p1 = PageAddr::new(b, 1);
        let p5 = PageAddr::new(b, 5);
        assert!(c.program_page(p0, DataPattern::Randomized).is_ok());
        // Re-programming the same page without erase is rejected.
        assert!(matches!(
            c.program_page(p0, DataPattern::Randomized),
            Err(NandError::PageNotErased { .. })
        ));
        // Skipping ahead is rejected.
        assert!(matches!(
            c.program_page(p5, DataPattern::Randomized),
            Err(NandError::OutOfOrderProgram { .. })
        ));
        assert!(c.program_page(p1, DataPattern::Randomized).is_ok());
    }

    #[test]
    fn read_requires_programmed_page() {
        let mut c = chip();
        let b = BlockAddr::new(0, 2);
        c.erase_block_default(b).unwrap();
        let p = PageAddr::new(b, 0);
        assert!(matches!(
            c.read_page(p, RetentionSpec::immediate()),
            Err(NandError::PageNotProgrammed { .. })
        ));
        c.program_page(p, DataPattern::Randomized).unwrap();
        let r = c.read_page(p, RetentionSpec::immediate()).unwrap();
        assert_eq!(r.latency, c.family().timings.read);
        assert!(r.errors_per_kib >= 0.0);
    }

    #[test]
    fn erase_after_program_resets_pointer() {
        let mut c = chip();
        let b = BlockAddr::new(1, 0);
        c.erase_block_default(b).unwrap();
        c.program_page(PageAddr::new(b, 0), DataPattern::Randomized)
            .unwrap();
        c.erase_block_default(b).unwrap();
        // Page 0 can be programmed again after erase.
        assert!(c
            .program_page(PageAddr::new(b, 0), DataPattern::Randomized)
            .is_ok());
    }

    #[test]
    fn loop_level_control_reduces_latency() {
        let mut c = chip();
        let b = BlockAddr::new(0, 3);
        c.begin_erase(b).unwrap();
        c.set_erase_pulse(b, Micros::from_millis_f64(1.0)).unwrap();
        let o = c.run_erase_loop(b).unwrap();
        assert_eq!(o.pulse, Micros::from_millis_f64(1.0));
        let report = c.finish_erase(b, vec![o]).unwrap();
        assert_eq!(report.n_loops(), 1);
        // A 1 ms pulse on a fresh block typically leaves residual dose.
        assert!(report.total_latency < c.family().timings.erase_loop());
    }

    #[test]
    fn partial_erase_raises_rber() {
        let mut c = chip();
        let b0 = BlockAddr::new(0, 4);
        let b1 = BlockAddr::new(0, 5);
        // Complete erase on b0.
        c.erase_block_default(b0).unwrap();
        c.program_full_block(b0, DataPattern::Randomized).unwrap();
        // Deliberately insufficient erase on b1 (single short pulse).
        c.begin_erase(b1).unwrap();
        c.set_erase_pulse(b1, Micros::from_millis_f64(0.5)).unwrap();
        let o = c.run_erase_loop(b1).unwrap();
        let rep = c.finish_erase(b1, vec![o]).unwrap();
        assert!(rep.residual_units > 0.0);
        c.program_full_block(b1, DataPattern::Randomized).unwrap();
        let complete = c.m_rber(b0, RetentionSpec::one_year_30c()).unwrap();
        let partial = c.m_rber(b1, RetentionSpec::one_year_30c()).unwrap();
        assert!(partial > complete);
    }

    #[test]
    fn wear_accumulates_with_pe_cycling() {
        let mut c = chip();
        let b = BlockAddr::new(1, 1);
        for _ in 0..5 {
            c.erase_block_default(b).unwrap();
            c.program_full_block(b, DataPattern::Randomized).unwrap();
        }
        let w = c.wear(b).unwrap();
        assert_eq!(w.pec, 5);
        assert!(w.erase_stress > 0.0);
        assert!(w.program_stress > 4.9);
        assert_eq!(c.last_n_ispe(b).unwrap(), Some(1));
    }

    #[test]
    fn preconditioning_raises_min_erase_latency() {
        let mut c = chip();
        let b = BlockAddr::new(1, 2);
        let before = c.minimum_erase_latency(b).unwrap();
        c.precondition_block(b, 3_000).unwrap();
        let after = c.minimum_erase_latency(b).unwrap();
        assert_eq!(before.n_ispe, 1);
        assert!(after.n_ispe >= 2);
        assert!(c.wear(b).unwrap().pec == 3_000);
        // A preconditioned block erased conventionally now needs several loops.
        let rep = c.erase_block_default(b).unwrap();
        assert!(rep.n_loops() >= 2);
    }

    /// Preconditioning the whole chip leaves every block with the wear that
    /// preconditioning it alone gives.
    #[test]
    fn preconditioning_all_blocks_matches_block_by_block() {
        let (mut whole, mut each) = (chip(), chip());
        whole.precondition_all_blocks(2_500);
        let blocks: Vec<BlockAddr> = each.geometry().iter_blocks().collect();
        for &b in &blocks {
            each.precondition_block(b, 2_500).unwrap();
        }
        for &b in &blocks {
            assert_eq!(whole.wear(b).unwrap(), each.wear(b).unwrap(), "block {b}");
        }
        assert_eq!(whole.wear(blocks[0]).unwrap().pec, 2_500);
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut c = chip();
        assert!(c.erase_block_default(BlockAddr::new(9, 0)).is_err());
        assert!(c
            .read_page(
                PageAddr::new(BlockAddr::new(0, 0), 10_000),
                RetentionSpec::immediate()
            )
            .is_err());
        assert!(c.wear(BlockAddr::new(0, 100)).is_err());
    }

    #[test]
    fn set_feature_without_active_erase_fails() {
        let mut c = chip();
        // An erase in flight on another block does not count.
        let busy = BlockAddr::new(1, 3);
        let idle = BlockAddr::new(0, 3);
        c.begin_erase(busy).unwrap();
        let rng = c.export_rng();
        let failures = [
            c.set_erase_pulse(idle, Micros::from_millis_f64(1.0)),
            c.force_erase_loop_index(idle, 2),
            c.run_erase_loop(idle).map(|_| ()),
            c.finish_erase(idle, Vec::new()).map(|_| ()),
        ];
        for failure in failures {
            match failure {
                Err(NandError::InvalidSuspendState { reason }) => {
                    assert!(reason.contains(&format!("block {idle}")), "{reason}");
                }
                other => panic!("expected InvalidSuspendState, got {other:?}"),
            }
        }
        assert_eq!(c.export_rng(), rng, "a failed call must not draw noise");
        assert!(c.erase_in_flight(busy) && !c.erase_in_flight(idle));
        let o = c.run_erase_loop(busy).unwrap();
        c.finish_erase(busy, vec![o]).unwrap();
    }

    #[test]
    fn memoized_stress_follows_voltage_scale_changes() {
        let mut c = chip();
        let family = c.family().clone();
        let top = family.erase.max_loops;
        // The engine's accumulation order, through the unmemoized formula.
        let stress_of = |loops: &[EraseLoopOutcome], scale: f64| {
            loops.iter().fold(0.0, |sum, o| {
                sum + family.stress_for_pulse(o.loop_index, o.pulse, scale)
            })
        };
        let blocks: Vec<BlockAddr> = c.geometry().iter_blocks().take(6).collect();
        for &b in &blocks {
            c.precondition_block(b, 3_000).unwrap();
        }
        // Each scale change must recompute the memoized factors the last
        // scale left behind, at every loop the erases reach.
        for (&b, scale) in blocks.iter().zip([0.9, 1.0, 0.9, 1.0, 0.9, 0.9]) {
            c.set_erase_voltage_scale(scale);
            let report = c.erase_block_default(b).unwrap();
            assert!(
                report.n_loops() >= 2,
                "the pre-aged block needs several loops"
            );
            let expected = stress_of(&report.loops, scale);
            assert_eq!(report.stress.to_bits(), expected.to_bits(), "scale {scale}");
        }
        // Loops past the top of the voltage ladder share its memo slot.
        let b = blocks[0];
        c.set_erase_voltage_scale(1.0);
        c.begin_erase(b).unwrap();
        let mut loops = Vec::new();
        for index in [top, top + 3, 1] {
            c.force_erase_loop_index(b, index).unwrap();
            c.set_erase_pulse(b, Micros::from_millis_f64(1.0)).unwrap();
            loops.push(c.run_erase_loop(b).unwrap());
        }
        let expected = stress_of(&loops, 1.0);
        let report = c.finish_erase(b, loops).unwrap();
        assert_eq!(report.stress.to_bits(), expected.to_bits());
    }

    #[test]
    fn dpes_knobs_change_latency_and_stress() {
        let mut c = chip();
        let b = BlockAddr::new(0, 6);
        c.set_program_latency_scale(1.3);
        c.erase_block_default(b).unwrap();
        let p = c
            .program_page(PageAddr::new(b, 0), DataPattern::Randomized)
            .unwrap();
        assert!(p.latency > c.family().timings.program);

        // Reduced erase voltage lowers stress per (complete) erase.
        let mut normal = chip();
        let mut scaled = chip();
        scaled.set_erase_voltage_scale(0.9);
        let rn = normal.erase_block_default(BlockAddr::new(0, 7)).unwrap();
        let rs = scaled.erase_block_default(BlockAddr::new(0, 7)).unwrap();
        assert!(rs.stress < rn.stress);
    }

    #[test]
    fn overlay_and_rng_restore_reproduce_the_chip_exactly() {
        let mut original = chip();
        // Accumulate varied state: cycling, partial erase, preconditioning.
        let cycled = BlockAddr::new(0, 0);
        for _ in 0..4 {
            original.erase_block_default(cycled).unwrap();
            original
                .program_full_block(cycled, DataPattern::Randomized)
                .unwrap();
        }
        let partial = BlockAddr::new(0, 1);
        original.begin_erase(partial).unwrap();
        original
            .set_erase_pulse(partial, Micros::from_millis_f64(0.5))
            .unwrap();
        let o = original.run_erase_loop(partial).unwrap();
        original.finish_erase(partial, vec![o]).unwrap();
        original
            .precondition_block(BlockAddr::new(1, 0), 2_000)
            .unwrap();
        original
            .program_page(PageAddr::new(partial, 0), DataPattern::AllProgrammedState)
            .unwrap();
        assert_eq!(original.active_erase_count(), 0);

        // Rebuild from config + overlays + RNG state.
        let mut restored = chip();
        let total = original.geometry().total_blocks() as usize;
        for idx in 0..total {
            let overlay = original.export_block_overlay(idx).unwrap();
            assert!(restored.import_block_overlay(idx, &overlay));
        }
        assert!(restored.import_rng(&original.export_rng()));

        // The restored chip is behaviorally identical: same wear, same RBER,
        // same future erase outcomes (which consume the shared RNG stream).
        let geometry = *original.geometry();
        for plane in 0..geometry.planes {
            for block in 0..geometry.blocks_per_plane {
                let b = BlockAddr::new(plane, block);
                assert_eq!(restored.wear(b).unwrap(), original.wear(b).unwrap());
                assert_eq!(
                    restored.erase_state(b).unwrap(),
                    original.erase_state(b).unwrap()
                );
                assert_eq!(
                    restored.last_n_ispe(b).unwrap(),
                    original.last_n_ispe(b).unwrap()
                );
            }
        }
        assert_eq!(
            restored
                .m_rber(partial, RetentionSpec::one_year_30c())
                .unwrap(),
            original
                .m_rber(partial, RetentionSpec::one_year_30c())
                .unwrap()
        );
        let ra = restored.erase_block_default(cycled).unwrap();
        let oa = original.erase_block_default(cycled).unwrap();
        assert_eq!(ra, oa);
    }

    #[test]
    fn overlay_import_rejects_invalid_state() {
        let mut c = chip();
        let good = c.export_block_overlay(0).unwrap();
        assert!(c.export_block_overlay(10_000).is_none());
        assert!(!c.import_block_overlay(10_000, &good));
        let pages = c.geometry().pages_per_block;
        let mut bad = good.clone();
        bad.next_page = pages + 1;
        assert!(!c.import_block_overlay(0, &bad));
        let mut bad = good.clone();
        bad.programmed_pages = pages + 1;
        assert!(!c.import_block_overlay(0, &bad));
        let mut bad = good.clone();
        bad.wear.erase_stress = f64::NAN;
        assert!(!c.import_block_overlay(0, &bad));
        let mut bad = good.clone();
        bad.erase_state = BlockEraseState::PartiallyErased {
            residual_units: -1.0,
        };
        assert!(!c.import_block_overlay(0, &bad));
        // The rejected imports left the block untouched.
        assert_eq!(c.export_block_overlay(0).unwrap(), good);
        // An out-of-range RNG index is rejected too.
        let mut words = c.export_rng();
        words[32] = 17;
        assert!(!c.import_rng(&words));
    }

    #[test]
    fn multi_plane_erases_can_be_in_flight_concurrently() {
        let mut c = chip();
        let b0 = BlockAddr::new(0, 0);
        let b1 = BlockAddr::new(1, 0);
        c.begin_erase(b0).unwrap();
        c.begin_erase(b1).unwrap();
        assert!(c.erase_in_flight(b0) && c.erase_in_flight(b1));
        let o0 = c.run_erase_loop(b0).unwrap();
        let o1 = c.run_erase_loop(b1).unwrap();
        c.finish_erase(b0, vec![o0]).unwrap();
        c.finish_erase(b1, vec![o1]).unwrap();
        assert!(!c.erase_in_flight(b0) && !c.erase_in_flight(b1));
    }
}
