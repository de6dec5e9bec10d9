//! SSD configuration (the paper's Table 2).

use aero_core::SchemeKind;
use aero_nand::chip_family::ChipFamily;
use aero_nand::geometry::ChipGeometry;
use aero_nand::FaultConfig;

/// Configuration of a simulated SSD.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Number of channels. Dies on the same channel share one data bus:
    /// their page data transfers serialize while their NAND array
    /// operations overlap, so with the die count held fixed, fewer channels
    /// means more bus contention.
    pub channels: u32,
    /// Number of NAND dies (chips) per channel.
    pub chips_per_channel: u32,
    /// The NAND chip family used for every die.
    pub family: ChipFamily,
    /// Over-provisioning ratio (fraction of raw capacity hidden from the
    /// host). The paper uses 20 %.
    pub overprovisioning: f64,
    /// Erase scheme used for every block erasure.
    pub scheme: SchemeKind,
    /// Garbage collection starts when a die's free-block count drops to this
    /// value.
    pub gc_threshold_free_blocks: u32,
    /// Whether erase operations may be suspended between erase loops to let
    /// pending user reads through.
    pub erase_suspension: bool,
    /// Per-page data-transfer latency over the channel, in nanoseconds.
    pub transfer_ns: u64,
    /// RBER requirement (errors per 1 KiB) used when deriving AERO's EPT for
    /// non-default ECC (Figure 17).
    pub rber_requirement: u32,
    /// Artificial misprediction rate injected into AERO (Figure 16).
    pub misprediction_rate: f64,
    /// Seed for the per-die chip models and the simulator's tie-breaking.
    pub seed: u64,
    /// NAND fault-injection rates (program/erase status failures, grown
    /// bad blocks, read-error spikes). Disabled by default; the fault
    /// checks stay off the hot path while every rate is zero.
    pub fault: FaultConfig,
    /// Bad-block spare budget per die: how many block retirements the
    /// drive absorbs (shrinking its over-provisioning) before it
    /// transitions to read-only graceful degradation. The budget is an
    /// accounting headroom, not a set-aside region — retired blocks simply
    /// shrink the pool GC rotates through.
    pub spare_blocks_per_die: u32,
}

impl SsdConfig {
    /// The paper's simulated SSD (Table 2): 1 TB, 8 channels × 2 chips,
    /// 4 planes × 497 blocks × 2112 pages of 16 KiB, 20 % over-provisioning,
    /// greedy GC.
    pub fn paper_default(scheme: SchemeKind) -> Self {
        SsdConfig {
            channels: 8,
            chips_per_channel: 2,
            family: ChipFamily::tlc_3d_48l(),
            overprovisioning: 0.20,
            scheme,
            gc_threshold_free_blocks: 4,
            erase_suspension: true,
            transfer_ns: 10_000,
            rber_requirement: 63,
            misprediction_rate: 0.0,
            seed: 0,
            fault: FaultConfig::disabled(),
            spare_blocks_per_die: 2,
        }
    }

    /// A scaled-down drive with the paper's channel/die organization but
    /// fewer, smaller blocks per plane, so that full trace replays finish in
    /// seconds. Used by the benchmark harness.
    pub fn scaled_paper(scheme: SchemeKind) -> Self {
        let mut family = ChipFamily::tlc_3d_48l();
        family.geometry = ChipGeometry {
            planes: 4,
            blocks_per_plane: 32,
            pages_per_block: 256,
            page_size_bytes: 16 * 1024,
            wordlines_per_block: 86,
        };
        SsdConfig {
            family,
            ..SsdConfig::paper_default(scheme)
        }
    }

    /// A tiny drive for unit tests (two dies, a handful of blocks).
    pub fn small_test(scheme: SchemeKind) -> Self {
        let mut family = ChipFamily::tlc_3d_48l();
        family.geometry = ChipGeometry {
            planes: 2,
            blocks_per_plane: 12,
            pages_per_block: 64,
            page_size_bytes: 16 * 1024,
            wordlines_per_block: 22,
        };
        SsdConfig {
            channels: 2,
            chips_per_channel: 1,
            family,
            overprovisioning: 0.25,
            scheme,
            gc_threshold_free_blocks: 2,
            erase_suspension: true,
            transfer_ns: 10_000,
            rber_requirement: 63,
            misprediction_rate: 0.0,
            seed: 0,
            fault: FaultConfig::disabled(),
            spare_blocks_per_die: 2,
        }
    }

    /// Builder-style: reorganize the drive as `channels` × `chips_per_channel`
    /// (the die count is their product). Used by the channel-count
    /// sensitivity sweep to vary bus sharing at a fixed die count.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn with_channel_layout(mut self, channels: u32, chips_per_channel: u32) -> Self {
        assert!(
            channels >= 1 && chips_per_channel >= 1,
            "channel layout must have at least one channel and one chip per channel"
        );
        self.channels = channels;
        self.chips_per_channel = chips_per_channel;
        self
    }

    /// Builder-style: set the erase-suspension flag.
    pub fn with_erase_suspension(mut self, enabled: bool) -> Self {
        self.erase_suspension = enabled;
        self
    }

    /// Builder-style: set the AERO misprediction rate (Figure 16).
    pub fn with_misprediction_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.misprediction_rate = rate;
        self
    }

    /// Builder-style: set the RBER requirement (Figure 17).
    pub fn with_rber_requirement(mut self, requirement: u32) -> Self {
        self.rber_requirement = requirement;
        self
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the NAND fault-injection rates.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Builder-style: set the per-die bad-block spare budget.
    pub fn with_spare_blocks(mut self, spare_blocks_per_die: u32) -> Self {
        self.spare_blocks_per_die = spare_blocks_per_die;
        self
    }

    /// Total bad-block spare budget across the drive: the number of
    /// retirements absorbed before the read-only transition.
    pub fn spare_budget(&self) -> u64 {
        self.spare_blocks_per_die as u64 * self.dies() as u64
    }

    /// Number of dies in the drive.
    pub fn dies(&self) -> usize {
        (self.channels * self.chips_per_channel) as usize
    }

    /// Raw capacity in bytes.
    pub fn raw_capacity_bytes(&self) -> u64 {
        self.dies() as u64 * self.family.geometry.chip_size_bytes()
    }

    /// Host-visible (logical) capacity in bytes, after over-provisioning.
    pub fn logical_capacity_bytes(&self) -> u64 {
        (self.raw_capacity_bytes() as f64 * (1.0 - self.overprovisioning)) as u64
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.logical_capacity_bytes() / self.family.geometry.page_size_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let c = SsdConfig::paper_default(SchemeKind::Baseline);
        assert_eq!(c.channels, 8);
        assert_eq!(c.chips_per_channel, 2);
        assert_eq!(c.dies(), 16);
        assert_eq!(c.family.geometry.planes, 4);
        assert_eq!(c.family.geometry.blocks_per_plane, 497);
        assert_eq!(c.family.geometry.pages_per_block, 2112);
        assert_eq!(c.overprovisioning, 0.20);
        // Raw capacity ≈ 1 TB (Table 2 says 1024 GB host capacity; our raw
        // figure lands slightly above it, host capacity slightly below after
        // over-provisioning).
        let raw_tb = c.raw_capacity_bytes() as f64 / 1e12;
        assert!(raw_tb > 1.0 && raw_tb < 1.2, "raw capacity {raw_tb} TB");
    }

    #[test]
    fn logical_capacity_respects_overprovisioning() {
        let c = SsdConfig::small_test(SchemeKind::Aero);
        let logical = c.logical_capacity_bytes() as f64;
        let raw = c.raw_capacity_bytes() as f64;
        assert!((logical / raw - 0.75).abs() < 1e-9);
        assert!(c.logical_pages() > 0);
    }

    #[test]
    fn builders_apply() {
        let c = SsdConfig::small_test(SchemeKind::Aero)
            .with_erase_suspension(false)
            .with_misprediction_rate(0.1)
            .with_rber_requirement(40)
            .with_channel_layout(1, 4)
            .with_seed(9)
            .with_faults(FaultConfig {
                program_fail_per_million: 10,
                erase_fail_per_million: 20,
                grown_bad_per_million: 30,
                read_fault_per_million: 40,
            })
            .with_spare_blocks(3);
        assert!(!c.erase_suspension);
        assert_eq!(c.misprediction_rate, 0.1);
        assert_eq!(c.rber_requirement, 40);
        assert_eq!((c.channels, c.chips_per_channel), (1, 4));
        assert_eq!(c.dies(), 4);
        assert_eq!(c.seed, 9);
        assert!(c.fault.any_enabled());
        assert_eq!(c.fault.erase_fail_per_million, 20);
        assert_eq!(c.spare_blocks_per_die, 3);
        assert_eq!(c.spare_budget(), 12);
    }

    #[test]
    fn faults_default_off() {
        for c in [
            SsdConfig::paper_default(SchemeKind::Aero),
            SsdConfig::scaled_paper(SchemeKind::Aero),
            SsdConfig::small_test(SchemeKind::Aero),
        ] {
            assert!(!c.fault.any_enabled());
            assert!(c.spare_blocks_per_die > 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channel_layout_rejected() {
        let _ = SsdConfig::small_test(SchemeKind::Aero).with_channel_layout(0, 2);
    }

    #[test]
    fn scaled_paper_keeps_organization() {
        let c = SsdConfig::scaled_paper(SchemeKind::Dpes);
        assert_eq!(c.dies(), 16);
        assert!(
            c.raw_capacity_bytes()
                < SsdConfig::paper_default(SchemeKind::Dpes).raw_capacity_bytes()
        );
    }
}
