//! Synthetic chip populations.
//!
//! The paper evenly selects 120 blocks from each of its 160 chips (19,200
//! blocks in total). A [`Population`] reproduces that sampling: a set of
//! [`BlockSample`]s, each carrying the intrinsic process-variation
//! characteristics of one block, from which the studies can derive required
//! erase doses, fail-bit traces, and RBER values at any P/E-cycle count
//! without simulating every intervening cycle.
//!
//! Sampling and every downstream study are organized as **per-chip jobs**:
//! each (study, P/E-count, chip) combination derives its own RNG from the
//! population seed via [`Population::job_rng`], so the jobs are independent
//! and can run on any number of threads (via [`aero_exec::par_map`]) while
//! producing bit-identical results.

use aero_nand::chip_family::ChipFamily;
use aero_nand::erase::characteristics::{
    baseline_equivalent_wear, ispe_decomposition, EraseCharacteristics, MinimumEraseLatency,
};
use aero_nand::reliability::rber::{RberModel, RberSample};
use aero_nand::reliability::retention::RetentionSpec;
use aero_nand::wear::WearState;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Configuration of a synthetic population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Chip family to sample from.
    pub family: ChipFamily,
    /// Number of chips.
    pub chips: u32,
    /// Number of blocks sampled per chip.
    pub blocks_per_chip: u32,
    /// RNG seed.
    pub seed: u64,
}

impl PopulationConfig {
    /// The paper's main population: 160 3D TLC chips × 120 blocks.
    pub fn paper_tlc_3d() -> Self {
        PopulationConfig {
            family: ChipFamily::tlc_3d_48l(),
            chips: 160,
            blocks_per_chip: 120,
            seed: 0xC0FFEE,
        }
    }

    /// A reduced population for fast tests.
    pub fn small(family: ChipFamily) -> Self {
        PopulationConfig {
            family,
            chips: 8,
            blocks_per_chip: 30,
            seed: 7,
        }
    }
}

/// One sampled block of the population.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSample {
    /// Index of the chip the block belongs to.
    pub chip: u32,
    /// Index of the block within the chip's sampled set.
    pub block: u32,
    /// The block's intrinsic erase characteristics.
    pub characteristics: EraseCharacteristics,
}

impl BlockSample {
    /// Wear state equivalent to `pec` P/E cycles of conventional ISPE cycling
    /// (the preconditioning the paper applies before each measurement).
    pub fn wear_at(&self, family: &ChipFamily, pec: u32) -> WearState {
        baseline_equivalent_wear(family, pec)
    }

    /// The block's mean required erase dose at a P/E-cycle count
    /// (conventionally cycled).
    pub fn mean_dose_at(&self, family: &ChipFamily, pec: u32) -> f64 {
        let wear = self.wear_at(family, pec);
        self.characteristics.mean_required_dose(family, &wear)
    }

    /// Draws the required dose of one erase operation at the given PEC
    /// (conventionally cycled).
    pub fn sample_dose_at(&self, family: &ChipFamily, pec: u32, rng: &mut ChaCha12Rng) -> f64 {
        let wear = self.wear_at(family, pec);
        self.characteristics
            .sample_required_dose(family, &wear, rng)
    }

    /// The block's minimum erase latency decomposition at a P/E-cycle count.
    pub fn minimum_erase_latency(&self, family: &ChipFamily, pec: u32) -> MinimumEraseLatency {
        ispe_decomposition(family, self.mean_dose_at(family, pec))
    }

    /// Maximum RBER of the block at a P/E-cycle count under the reference
    /// retention condition, when it was `residual_units` short of complete
    /// erasure before programming.
    pub fn m_rber_at(
        &self,
        family: &ChipFamily,
        pec: u32,
        residual_units: f64,
        retention: RetentionSpec,
    ) -> f64 {
        let model = RberModel::new(family);
        model.m_rber(&RberSample {
            wear: self.wear_at(family, pec),
            residual_units,
            retention,
            pattern: aero_nand::cell::DataPattern::Randomized,
            block_offset: self.characteristics.reliability_offset,
        })
    }
}

/// A population of sampled blocks from many chips.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    config: PopulationConfig,
    blocks: Vec<BlockSample>,
}

/// Derives a well-mixed 64-bit seed from a base seed, a per-study salt, and
/// two job coordinates (splitmix64-style finalizer). Used to give every
/// (study, PEC, chip) job its own independent RNG stream.
pub(crate) fn mix_seed(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut h = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = h.wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h = h.wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    h ^= h >> 31;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 32)
}

/// Salt of the RNG stream used by [`Population::generate`].
const SALT_GENERATE: u64 = 0x01;

impl Population {
    /// Samples a population from its configuration. Chips are sampled as
    /// independent seeded jobs (in parallel when threads are available); the
    /// result depends only on the configuration, never on the thread count.
    pub fn generate(config: PopulationConfig) -> Self {
        let per_chip = aero_exec::par_map((0..config.chips).collect(), |chip| {
            let mut rng =
                ChaCha12Rng::seed_from_u64(mix_seed(config.seed, SALT_GENERATE, chip as u64, 0));
            (0..config.blocks_per_chip)
                .map(|block| BlockSample {
                    chip,
                    block,
                    characteristics: EraseCharacteristics::sample(&config.family, &mut rng),
                })
                .collect::<Vec<_>>()
        });
        let blocks = per_chip.into_iter().flatten().collect();
        Population { config, blocks }
    }

    /// The paper's main population (160 × 120 blocks of 3D TLC).
    pub fn paper_tlc_3d() -> Self {
        Population::generate(PopulationConfig::paper_tlc_3d())
    }

    /// The population's configuration.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// The chip family of the population.
    pub fn family(&self) -> &ChipFamily {
        &self.config.family
    }

    /// The sampled blocks.
    pub fn blocks(&self) -> &[BlockSample] {
        &self.blocks
    }

    /// Number of chips in the population.
    pub fn chips(&self) -> u32 {
        self.config.chips
    }

    /// The blocks of one chip (a contiguous slice, in block order).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn chip_blocks(&self, chip: u32) -> &[BlockSample] {
        assert!(chip < self.config.chips, "chip index out of range");
        let per_chip = self.config.blocks_per_chip as usize;
        let start = chip as usize * per_chip;
        &self.blocks[start..start + per_chip]
    }

    /// A deterministic RNG for one (study, PEC, chip) job, derived from the
    /// population seed. Jobs seeded this way are independent of each other
    /// and of the execution order, which is what lets the studies fan out
    /// across threads without changing their output.
    pub fn job_rng(&self, salt: u64, pec: u32, chip: u32) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(mix_seed(
            self.config.seed,
            salt,
            pec as u64 + 1,
            chip as u64 + 1,
        ))
    }

    /// Number of sampled blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_population_has_19200_blocks() {
        let cfg = PopulationConfig::paper_tlc_3d();
        assert_eq!(cfg.chips * cfg.blocks_per_chip, 19_200);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Population::generate(PopulationConfig::small(ChipFamily::tlc_3d_48l()));
        let b = Population::generate(PopulationConfig::small(ChipFamily::tlc_3d_48l()));
        assert_eq!(a, b);
        assert_eq!(a.len(), 8 * 30);
        assert!(!a.is_empty());
    }

    #[test]
    fn wear_and_dose_grow_with_pec() {
        let pop = Population::generate(PopulationConfig::small(ChipFamily::tlc_3d_48l()));
        let family = pop.family();
        let b = &pop.blocks()[0];
        assert!(b.mean_dose_at(family, 3_000) > b.mean_dose_at(family, 0));
        let w0 = b.wear_at(family, 0);
        let w3 = b.wear_at(family, 3_000);
        assert_eq!(w0.erase_stress, 0.0);
        assert!(w3.erase_stress > 0.0);
        assert!(
            b.m_rber_at(family, 3_000, 0.0, RetentionSpec::one_year_30c())
                > b.m_rber_at(family, 0, 0.0, RetentionSpec::one_year_30c())
        );
    }

    #[test]
    fn chip_blocks_partition_the_population_and_jobs_get_distinct_streams() {
        use rand::RngCore;
        let pop = Population::generate(PopulationConfig::small(ChipFamily::tlc_3d_48l()));
        let mut total = 0;
        for chip in 0..pop.chips() {
            let blocks = pop.chip_blocks(chip);
            assert!(blocks.iter().all(|b| b.chip == chip));
            total += blocks.len();
        }
        assert_eq!(total, pop.len());
        // The same job always gets the same stream; different coordinates or
        // salts get different ones.
        assert_eq!(
            pop.job_rng(1, 100, 2).next_u64(),
            pop.job_rng(1, 100, 2).next_u64()
        );
        assert_ne!(
            pop.job_rng(1, 100, 2).next_u64(),
            pop.job_rng(1, 100, 3).next_u64()
        );
        assert_ne!(
            pop.job_rng(1, 100, 2).next_u64(),
            pop.job_rng(2, 100, 2).next_u64()
        );
    }

    #[test]
    fn minimum_latency_single_loop_when_fresh() {
        let pop = Population::generate(PopulationConfig::small(ChipFamily::tlc_3d_48l()));
        let family = pop.family();
        for b in pop.blocks() {
            assert_eq!(b.minimum_erase_latency(family, 0).n_ispe, 1);
        }
    }
}
