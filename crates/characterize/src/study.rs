//! The characterization studies of §5 (Figures 4 and 7–11).
//!
//! Each function consumes a [`Population`] and produces a plain data
//! structure holding exactly the series the corresponding figure plots; the
//! benchmark harness formats them as tables.
//!
//! Every study decomposes into independent (P/E-count, chip) jobs, each with
//! its own RNG derived from the population seed ([`Population::job_rng`]),
//! and fans the jobs out with [`aero_exec::par_map`]. Partial results are
//! merged in job order, so a study's output is identical at any thread
//! count.

use std::collections::BTreeMap;

use rand_chacha::ChaCha12Rng;

use aero_core::ept::{Ept, EPT_RANGES};
use aero_nand::chip_family::ChipFamily;
use aero_nand::erase::failbits::FailBitModel;
use aero_nand::reliability::ecc::EccConfig;
use aero_nand::reliability::retention::RetentionSpec;
use aero_nand::timing::Micros;

use crate::mispe::MIspeProbe;
use crate::population::{BlockSample, Population};

/// Per-study RNG-stream salts (see [`Population::job_rng`]). Distinct values
/// keep the studies' random draws independent of each other. The shallow-
/// erase study folds its `tSE` index into the salt, so it owns the whole
/// `0x100..0x200` block; single-salt studies must stay below `0x100`.
const SALT_LATENCY_VARIATION: u64 = 0x10;
const SALT_FAILBIT_VS_TEP: u64 = 0x11;
const SALT_FELP_ACCURACY: u64 = 0x12;
const SALT_RELIABILITY_MARGIN: u64 = 0x14;
const SALT_SHALLOW_ERASE: u64 = 0x100;

/// Runs `job` once per (PEC, chip) pair — in parallel when threads are
/// available — and returns the results in (PEC-major, chip-minor) job order
/// together with their coordinates. Each job gets its own deterministic RNG.
fn per_chip_jobs<T, F>(population: &Population, pecs: &[u32], salt: u64, job: F) -> Vec<(u32, T)>
where
    T: Send,
    F: Fn(u32, &[BlockSample], &mut ChaCha12Rng) -> T + Sync,
{
    let coords: Vec<(u32, u32)> = pecs
        .iter()
        .flat_map(|&pec| (0..population.chips()).map(move |chip| (pec, chip)))
        .collect();
    aero_exec::par_map(coords, |(pec, chip)| {
        let mut rng = population.job_rng(salt, pec, chip);
        (pec, job(pec, population.chip_blocks(chip), &mut rng))
    })
}

/// Distribution of minimum erase latencies at one P/E-cycle count (one curve
/// of Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyDistribution {
    /// P/E-cycle count.
    pub pec: u32,
    /// Sorted `mtBERS` samples in milliseconds, one per block.
    pub mtbers_ms: Vec<f64>,
    /// Fraction of blocks per `N_ISPE` value.
    pub n_ispe_fractions: BTreeMap<u32, f64>,
}

impl LatencyDistribution {
    /// Fraction of blocks whose minimum erase latency is at most `ms`.
    pub fn fraction_within_ms(&self, ms: f64) -> f64 {
        if self.mtbers_ms.is_empty() {
            return 0.0;
        }
        self.mtbers_ms.iter().filter(|&&x| x <= ms).count() as f64 / self.mtbers_ms.len() as f64
    }

    /// Mean minimum erase latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.mtbers_ms.is_empty() {
            return 0.0;
        }
        self.mtbers_ms.iter().sum::<f64>() / self.mtbers_ms.len() as f64
    }

    /// Standard deviation of the minimum erase latency in milliseconds.
    pub fn std_dev_ms(&self) -> f64 {
        if self.mtbers_ms.is_empty() {
            return 0.0;
        }
        let mean = self.mean_ms();
        (self
            .mtbers_ms
            .iter()
            .map(|x| (x - mean).powi(2))
            .sum::<f64>()
            / self.mtbers_ms.len() as f64)
            .sqrt()
    }

    /// Fraction of blocks needing exactly `n` erase loops.
    pub fn fraction_with_n_ispe(&self, n: u32) -> f64 {
        self.n_ispe_fractions.get(&n).copied().unwrap_or(0.0)
    }
}

/// Figure 4: minimum erase latency distributions across P/E-cycle counts.
pub fn erase_latency_variation(population: &Population, pecs: &[u32]) -> Vec<LatencyDistribution> {
    let family = population.family();
    let parts = per_chip_jobs(
        population,
        pecs,
        SALT_LATENCY_VARIATION,
        |pec, blocks, rng| {
            let probe = MIspeProbe::new(family);
            let mut mtbers = Vec::with_capacity(blocks.len());
            let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
            for block in blocks {
                let dose = block.sample_dose_at(family, pec, rng);
                let result = probe.probe(dose, rng);
                mtbers.push(result.m_t_bers(family).as_millis_f64());
                *counts.entry(result.n_ispe).or_insert(0) += 1;
            }
            (mtbers, counts)
        },
    );
    // Jobs come back in (PEC-major, chip-minor) order; consume them
    // sequentially, asserting the coordinates, so the merge is linear and a
    // job/cell misalignment can never silently misattribute results.
    let mut parts = parts.into_iter();
    pecs.iter()
        .map(|&pec| {
            let mut mtbers = Vec::with_capacity(population.len());
            let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
            for _ in 0..population.chips() {
                let (job_pec, (chip_mtbers, chip_counts)) =
                    parts.next().expect("one job per (PEC, chip)");
                assert_eq!(job_pec, pec, "job order must match cell order");
                mtbers.extend_from_slice(&chip_mtbers);
                for (n, c) in chip_counts {
                    *counts.entry(n).or_insert(0) += c;
                }
            }
            mtbers.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let total = mtbers.len() as f64;
            LatencyDistribution {
                pec,
                mtbers_ms: mtbers,
                n_ispe_fractions: counts
                    .into_iter()
                    .map(|(n, c)| (n, c as f64 / total))
                    .collect(),
            }
        })
        .collect()
}

/// One series of Figure 7: maximum fail-bit count versus accumulated pulse
/// time in the final erase loop, for blocks with a given `N_ISPE`.
#[derive(Debug, Clone, PartialEq)]
pub struct FailBitSeries {
    /// `N_ISPE` of the blocks contributing to this series.
    pub n_ispe: u32,
    /// (accumulated `tEP` in the final loop in ms, maximum fail-bit count).
    pub points: Vec<(f64, u64)>,
}

impl FailBitSeries {
    /// Least-squares slope of fail bits per 0.5 ms step (an estimate of −δ).
    pub fn slope_per_step(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.0;
        }
        let n = self.points.len() as f64;
        let xs: Vec<f64> = self.points.iter().map(|(x, _)| x / 0.5).collect();
        let ys: Vec<f64> = self.points.iter().map(|(_, y)| *y as f64).collect();
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let var: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        cov / var
    }
}

/// Figure 7 output: one fail-bit series per `N_ISPE`, plus the δ and γ values
/// they imply.
#[derive(Debug, Clone, PartialEq)]
pub struct FailBitStudy {
    /// Series for `N_ISPE` = 2..=5.
    pub series: Vec<FailBitSeries>,
    /// Estimated δ (fail-bit decrease per 0.5 ms).
    pub delta_estimate: f64,
    /// Estimated γ (fail-bit floor one step before complete erasure).
    pub gamma_estimate: f64,
}

/// Figure 7: the relationship between accumulated final-loop pulse time and
/// the fail-bit count.
pub fn failbit_vs_tep(population: &Population, pecs: &[u32]) -> FailBitStudy {
    let family = population.family();
    let parts = per_chip_jobs(population, pecs, SALT_FAILBIT_VS_TEP, |pec, blocks, rng| {
        let probe = MIspeProbe::new(family);
        // max fail bits at (n_ispe, steps_in_final_loop)
        let mut max_fail: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut gamma_samples: Vec<u64> = Vec::new();
        for block in blocks {
            let dose = block.sample_dose_at(family, pec, rng);
            let result = probe.probe(dose, rng);
            if result.n_ispe < 2 {
                continue;
            }
            let final_steps = (result.m_t_ep.as_millis_f64() / 0.5).round() as u32;
            for s in result
                .steps
                .iter()
                .filter(|s| s.loop_index == result.n_ispe)
            {
                let key = (result.n_ispe, s.steps_in_loop);
                let entry = max_fail.entry(key).or_insert(0);
                *entry = (*entry).max(s.fail_bits);
            }
            // γ: the fail-bit count one step before the final (passing)
            // step.
            if final_steps >= 2 {
                if let Some(f) = result.fail_bits_in_final_loop(final_steps - 1) {
                    gamma_samples.push(f);
                }
            }
        }
        (max_fail, gamma_samples)
    });
    let mut max_fail: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut gamma_samples: Vec<u64> = Vec::new();
    for (_, (chip_max_fail, chip_gammas)) in parts {
        for (key, fail) in chip_max_fail {
            let entry = max_fail.entry(key).or_insert(0);
            *entry = (*entry).max(fail);
        }
        gamma_samples.extend(chip_gammas);
    }
    let mut series: Vec<FailBitSeries> = Vec::new();
    for n in 2..=5u32 {
        let points: Vec<(f64, u64)> = max_fail
            .iter()
            .filter(|((sn, _), _)| *sn == n)
            .map(|((_, step), &f)| (*step as f64 * 0.5, f))
            .collect();
        if !points.is_empty() {
            series.push(FailBitSeries { n_ispe: n, points });
        }
    }
    // Weight each series by its number of fitted intervals so sparsely
    // populated N_ISPE groups (e.g. N = 5) do not skew the estimate.
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for s in &series {
        if s.points.len() < 4 {
            continue;
        }
        let slope = -s.slope_per_step();
        if slope.is_finite() && slope > 0.0 {
            let w = (s.points.len() - 1) as f64;
            weighted += slope * w;
            weight += w;
        }
    }
    let delta_estimate = if weight > 0.0 {
        weighted / weight
    } else {
        family.fail_bits.delta
    };
    let gamma_estimate = if gamma_samples.is_empty() {
        family.fail_bits.gamma
    } else {
        gamma_samples.iter().sum::<u64>() as f64 / gamma_samples.len() as f64
    };
    FailBitStudy {
        series,
        delta_estimate,
        gamma_estimate,
    }
}

/// Figure 8: how well the fail-bit range before the final loop predicts the
/// final loop's minimum pulse latency.
#[derive(Debug, Clone, PartialEq)]
pub struct FelpAccuracy {
    /// Per `N_ISPE`: observations of (fail-bit range index, `mtEP` in ms).
    pub observations: BTreeMap<u32, Vec<(u32, f64)>>,
}

impl FelpAccuracy {
    /// Fraction of blocks in each fail-bit range for a given `N_ISPE`
    /// (the top row of Figure 8).
    pub fn range_fractions(&self, n_ispe: u32) -> BTreeMap<u32, f64> {
        let Some(obs) = self.observations.get(&n_ispe) else {
            return BTreeMap::new();
        };
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for (range, _) in obs {
            *counts.entry(*range).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(r, c)| (r, c as f64 / obs.len() as f64))
            .collect()
    }

    /// For a given `N_ISPE` and fail-bit range: the fraction of blocks whose
    /// `mtEP` equals the most common value in that range (the prediction
    /// accuracy the paper reports, e.g. ≥ 66 %).
    pub fn majority_accuracy(&self, n_ispe: u32, range: u32) -> Option<f64> {
        let obs = self.observations.get(&n_ispe)?;
        let in_range: Vec<f64> = obs
            .iter()
            .filter(|(r, _)| *r == range)
            .map(|(_, m)| *m)
            .collect();
        if in_range.is_empty() {
            return None;
        }
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for m in &in_range {
            *counts.entry((m * 10.0).round() as u64).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        Some(max as f64 / in_range.len() as f64)
    }
}

/// Figure 8: fail-bit range versus minimum final-loop latency.
pub fn felp_accuracy(population: &Population, pecs: &[u32]) -> FelpAccuracy {
    let family = population.family();
    let parts = per_chip_jobs(population, pecs, SALT_FELP_ACCURACY, |pec, blocks, rng| {
        let fail_model = FailBitModel::new(family.fail_bits);
        let probe = MIspeProbe::new(family);
        let mut observations: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
        for block in blocks {
            let dose = block.sample_dose_at(family, pec, rng);
            let result = probe.probe(dose, rng);
            if result.n_ispe < 2 {
                continue;
            }
            let Some(prev_fail) = result.fail_bits_before_final_loop() else {
                continue;
            };
            let range = fail_model.range_index(prev_fail);
            observations
                .entry(result.n_ispe)
                .or_default()
                .push((range, result.m_t_ep.as_millis_f64()));
        }
        observations
    });
    let mut observations: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
    for (_, chip_observations) in parts {
        for (n, obs) in chip_observations {
            observations.entry(n).or_default().extend(obs);
        }
    }
    FelpAccuracy { observations }
}

/// Figure 9: distribution of the shallow-erasure fail-bit count and the
/// average erase latency it implies, for one (`tSE`, PEC) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct ShallowEraseDistribution {
    /// Shallow pulse latency in ms.
    pub t_se_ms: f64,
    /// P/E-cycle count of the tested blocks.
    pub pec: u32,
    /// Fraction of blocks per fail-bit range after the shallow pulse.
    pub range_fractions: BTreeMap<u32, f64>,
    /// Average total erase latency (`tBERS`) when the remainder uses 0.5 ms
    /// per fail-bit range index.
    pub average_tbers_ms: f64,
    /// Fraction of blocks whose first loop ends up shorter than the default
    /// pulse latency.
    pub reduced_fraction: f64,
}

/// Figure 9: shallow-erasure feasibility across `tSE` values and P/E-cycle
/// counts.
pub fn shallow_erase(
    population: &Population,
    t_se_values_ms: &[f64],
    pecs: &[u32],
) -> Vec<ShallowEraseDistribution> {
    let family = population.family();
    let t_vr = family.timings.verify_read.as_millis_f64();
    let default_ep = family.timings.erase_pulse.as_millis_f64();
    // One job per (tSE, PEC, chip); the tSE axis is folded into the RNG salt
    // so every combination draws from its own stream.
    let coords: Vec<(usize, u32, u32)> = t_se_values_ms
        .iter()
        .enumerate()
        .flat_map(|(t_idx, _)| {
            pecs.iter()
                .flat_map(move |&pec| (0..population.chips()).map(move |chip| (t_idx, pec, chip)))
        })
        .collect();
    let parts = aero_exec::par_map(coords, |(t_idx, pec, chip)| {
        let fail_model = FailBitModel::new(family.fail_bits);
        let t_se = t_se_values_ms[t_idx];
        let mut rng = population.job_rng(SALT_SHALLOW_ERASE + t_idx as u64, pec, chip);
        let mut ranges: BTreeMap<u32, usize> = BTreeMap::new();
        let mut total_tbers = 0.0;
        let mut reduced = 0usize;
        for block in population.chip_blocks(chip) {
            let dose = block.sample_dose_at(family, pec, &mut rng);
            // Shallow pulse at the first-loop voltage.
            let remaining = (dose - t_se / 0.5).max(0.0);
            let fail_bits = fail_model.observed_fail_bits(remaining, &mut rng);
            let range = fail_model.range_index(fail_bits);
            *ranges.entry(range).or_insert(0) += 1;
            // Remainder erasure: 0.5 ms per range index (range 0 -> 0.5 ms
            // unless already complete).
            let t_re = if fail_model.passes(fail_bits) {
                0.0
            } else {
                0.5 * range.max(1) as f64
            };
            let first_loop = t_se + t_re;
            if first_loop < default_ep {
                reduced += 1;
            }
            // tBERS for the (overwhelmingly single-loop) first erase loop:
            // shallow pulse + VR + remainder + VR.
            total_tbers += t_se + t_vr + if t_re > 0.0 { t_re + t_vr } else { 0.0 };
        }
        (t_idx, pec, ranges, total_tbers, reduced)
    });
    // Jobs come back in (tSE-major, PEC, chip-minor) order; consume them
    // sequentially with coordinate checks — the merge stays linear, and the
    // fixed floating-point summation order keeps the result independent of
    // the thread count.
    let mut parts = parts.into_iter();
    let mut out = Vec::new();
    for (t_idx, &t_se) in t_se_values_ms.iter().enumerate() {
        for &pec in pecs {
            let mut ranges: BTreeMap<u32, usize> = BTreeMap::new();
            let mut total_tbers = 0.0;
            let mut reduced = 0usize;
            for _ in 0..population.chips() {
                let (job_t, job_pec, chip_ranges, chip_tbers, chip_reduced) =
                    parts.next().expect("one job per (tSE, PEC, chip)");
                assert_eq!(
                    (job_t, job_pec),
                    (t_idx, pec),
                    "job order must match cell order"
                );
                for (r, c) in chip_ranges {
                    *ranges.entry(r).or_insert(0) += c;
                }
                total_tbers += chip_tbers;
                reduced += chip_reduced;
            }
            let n = population.len() as f64;
            out.push(ShallowEraseDistribution {
                t_se_ms: t_se,
                pec,
                range_fractions: ranges.into_iter().map(|(r, c)| (r, c as f64 / n)).collect(),
                average_tbers_ms: total_tbers / n,
                reduced_fraction: reduced as f64 / n,
            });
        }
    }
    out
}

/// Figure 10: the reliability margin after complete and insufficient erasure.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityMargin {
    /// ECC capability in errors per 1 KiB.
    pub ecc_capability: f64,
    /// RBER requirement in errors per 1 KiB.
    pub rber_requirement: f64,
    /// Maximum `M_RBER` among completely erased blocks, per `N_ISPE`.
    pub complete: BTreeMap<u32, f64>,
    /// Maximum `M_RBER` among insufficiently erased blocks (only `N_ISPE - 1`
    /// loops performed), per (`N_ISPE`, fail-bit range).
    pub incomplete: BTreeMap<(u32, u32), f64>,
}

impl ReliabilityMargin {
    /// True if skipping the final loop for blocks with the given `N_ISPE` and
    /// fail-bit range keeps `M_RBER` within the requirement (the paper's
    /// conditions C1/C2).
    pub fn skip_is_safe(&self, n_ispe: u32, range: u32) -> Option<bool> {
        self.incomplete
            .get(&(n_ispe, range))
            .map(|&m| m <= self.rber_requirement)
    }
}

/// Figure 10: `M_RBER` after complete versus insufficient erasure.
pub fn reliability_margin(
    population: &Population,
    pecs: &[u32],
    ecc: &EccConfig,
) -> ReliabilityMargin {
    let family = population.family();
    let parts = per_chip_jobs(
        population,
        pecs,
        SALT_RELIABILITY_MARGIN,
        |pec, blocks, rng| {
            let fail_model = FailBitModel::new(family.fail_bits);
            let probe = MIspeProbe::new(family);
            let retention = RetentionSpec::one_year_30c();
            let mut complete: BTreeMap<u32, f64> = BTreeMap::new();
            let mut incomplete: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            for block in blocks {
                let dose = block.sample_dose_at(family, pec, rng);
                let result = probe.probe(dose, rng);
                let n = result.n_ispe;
                // Complete erasure.
                let m_complete = block.m_rber_at(family, pec, 0.0, retention);
                let entry = complete.entry(n).or_insert(0.0);
                *entry = entry.max(m_complete);
                // Insufficient erasure: stop after N_ISPE - 1 loops.
                if n >= 2 {
                    if let Some(prev_fail) = result.fail_bits_before_final_loop() {
                        let range = fail_model.range_index(prev_fail);
                        let residual_units = fail_model.dose_for_fail_bits(prev_fail as f64);
                        let m_incomplete = block.m_rber_at(family, pec, residual_units, retention);
                        let entry = incomplete.entry((n, range)).or_insert(0.0);
                        *entry = entry.max(m_incomplete);
                    }
                }
            }
            (complete, incomplete)
        },
    );
    let mut complete: BTreeMap<u32, f64> = BTreeMap::new();
    let mut incomplete: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (_, (chip_complete, chip_incomplete)) in parts {
        for (n, m) in chip_complete {
            let entry = complete.entry(n).or_insert(0.0);
            *entry = entry.max(m);
        }
        for (key, m) in chip_incomplete {
            let entry = incomplete.entry(key).or_insert(0.0);
            *entry = entry.max(m);
        }
    }
    ReliabilityMargin {
        ecc_capability: ecc.capability_per_kib as f64,
        rber_requirement: ecc.requirement_per_kib as f64,
        complete,
        incomplete,
    }
}

/// Figure 11: δ/γ consistency and insufficient-erasure reliability for
/// another chip family.
#[derive(Debug, Clone, PartialEq)]
pub struct OtherChipStudy {
    /// Family name.
    pub family_name: String,
    /// Fail-bit study (δ and γ estimates).
    pub fail_bits: FailBitStudy,
    /// Reliability margin after insufficient erasure.
    pub margin: ReliabilityMargin,
}

/// Figure 11: repeats the δ/γ extraction and the insufficient-erasure
/// reliability study on a different chip family.
pub fn other_chip_type(
    family: ChipFamily,
    chips: u32,
    blocks_per_chip: u32,
    seed: u64,
) -> OtherChipStudy {
    let population = Population::generate(crate::population::PopulationConfig {
        family: family.clone(),
        chips,
        blocks_per_chip,
        seed,
    });
    let pecs = [1_000, 2_000, 3_000, 4_000];
    OtherChipStudy {
        family_name: family.name.clone(),
        fail_bits: failbit_vs_tep(&population, &pecs),
        margin: reliability_margin(&population, &pecs, &EccConfig::paper_default()),
    }
}

/// Table 1: derives the EPT from the population's family and compares its
/// conservative column against the paper's published table (for the 3D TLC
/// family they must match).
pub fn derive_ept(family: &ChipFamily, ecc: &EccConfig) -> Ept {
    Ept::derive(family, ecc)
}

/// Convenience: the millisecond values of one EPT row (conservative,
/// aggressive), for report formatting.
pub fn ept_row_ms(ept: &Ept, n_ispe: u32) -> Vec<(f64, f64)> {
    (0..EPT_RANGES as u32)
        .map(|r| {
            let e = ept.entry(n_ispe, r).expect("range within table");
            (e.conservative.as_millis_f64(), e.aggressive.as_millis_f64())
        })
        .collect()
}

/// Helper used by studies and tests: the default pulse in ms.
pub fn default_pulse_ms(family: &ChipFamily) -> f64 {
    Micros::as_millis_f64(family.timings.erase_pulse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    fn small_population() -> Population {
        Population::generate(PopulationConfig {
            family: ChipFamily::tlc_3d_48l(),
            chips: 10,
            blocks_per_chip: 40,
            seed: 21,
        })
    }

    #[test]
    fn figure4_shape_holds() {
        let pop = small_population();
        let dists = erase_latency_variation(&pop, &[0, 1_000, 2_000, 3_000, 5_000]);
        assert_eq!(dists.len(), 5);
        // At zero PEC essentially every block is a single-loop erase and most
        // finish within 2.5 ms.
        assert!(dists[0].fraction_with_n_ispe(1) > 0.98);
        assert!(dists[0].fraction_within_ms(2.6) > 0.6);
        // At 2K PEC essentially every block needs at least two loops.
        assert!(dists[2].fraction_with_n_ispe(1) < 0.05);
        // Latency and its spread grow with PEC.
        assert!(dists[4].mean_ms() > dists[0].mean_ms());
        assert!(dists[3].std_dev_ms() > dists[0].std_dev_ms());
    }

    #[test]
    fn figure7_linear_failbit_decay() {
        let pop = small_population();
        let study = failbit_vs_tep(&pop, &[2_000, 3_000, 4_000, 5_000]);
        assert!(!study.series.is_empty());
        let family = pop.family();
        // δ estimate within 25% of the model's ground truth. The estimator
        // fits max-fail-bit points per step bucket, and a max statistic
        // flattens the fitted slope, so it systematically reads ~15% low on
        // small populations; the tolerance leaves room for sampling noise on
        // top of that bias.
        assert!(
            (study.delta_estimate - family.fail_bits.delta).abs() / family.fail_bits.delta < 0.25,
            "delta estimate {}",
            study.delta_estimate
        );
        // γ is far below δ.
        assert!(study.gamma_estimate < study.delta_estimate / 4.0);
        // Within each well-populated series, fail bits decrease with
        // accumulated pulse time (sparse series — a handful of blocks at the
        // largest N_ISPE — can be flat).
        for series in study.series.iter().filter(|s| s.points.len() >= 5) {
            assert!(
                series.slope_per_step() < 0.0,
                "series N={} slope {}",
                series.n_ispe,
                series.slope_per_step()
            );
        }
    }

    #[test]
    fn figure8_failbit_range_predicts_mtep() {
        let pop = small_population();
        let acc = felp_accuracy(&pop, &[2_000, 3_000, 4_000]);
        let mut checked = 0;
        for (&n, obs) in &acc.observations {
            if obs.len() < 20 {
                continue;
            }
            for (range, _) in obs.iter().take(1) {
                if let Some(majority) = acc.majority_accuracy(n, *range) {
                    assert!(
                        majority > 0.5,
                        "majority accuracy for N={n} range={range} was {majority}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "at least one (N, range) cell must be checked");
    }

    #[test]
    fn figure9_shallow_erase_reduces_most_first_loops() {
        let pop = small_population();
        let dists = shallow_erase(&pop, &[1.0], &[100, 500]);
        assert_eq!(dists.len(), 2);
        for d in &dists {
            // The paper: ~85% of blocks benefit at tSE = 1 ms, and the average
            // tBERS is well below the 3.6 ms conventional first loop.
            assert!(
                d.reduced_fraction > 0.7,
                "reduced fraction {}",
                d.reduced_fraction
            );
            assert!(d.average_tbers_ms < 3.3, "avg tBERS {}", d.average_tbers_ms);
        }
    }

    #[test]
    fn figure10_margin_conditions() {
        let pop = small_population();
        let margin = reliability_margin(
            &pop,
            &[500, 1_500, 2_500, 3_500, 4_500],
            &EccConfig::paper_default(),
        );
        // Complete erasure always meets the requirement for N_ISPE <= 4.
        for (&n, &m) in &margin.complete {
            if n <= 4 {
                assert!(m < margin.rber_requirement, "complete N={n} M_RBER={m}");
            }
        }
        // Skipping the final loop is safe for small fail-bit counts at low
        // N_ISPE and unsafe for large fail-bit counts. Range 0 (F ≤ γ) has a
        // wide margin below the requirement; range 1 (F ≤ δ) sits right at
        // the boundary by construction of the ECC margin, so only its
        // neighborhood is asserted, not its side of the line.
        if let Some(safe) = margin.skip_is_safe(2, 0) {
            assert!(safe, "N=2, F<=gamma must be skippable");
        }
        if let Some(&m) = margin.incomplete.get(&(2, 1)) {
            assert!(
                (m - margin.rber_requirement).abs() / margin.rber_requirement < 0.15,
                "N=2, F<=delta must sit near the requirement boundary, got {m}"
            );
        }
        let mut any_unsafe = false;
        for ((_, range), &m) in &margin.incomplete {
            if *range >= 4 && m > margin.rber_requirement {
                any_unsafe = true;
            }
        }
        assert!(any_unsafe, "large residuals must violate the requirement");
    }

    #[test]
    fn figure11_other_families_show_same_structure() {
        for family in [ChipFamily::tlc_2d_2xnm(), ChipFamily::mlc_3d_48l()] {
            let study = other_chip_type(family.clone(), 10, 40, 3);
            assert_eq!(study.family_name, family.name);
            let rel_err = (study.fail_bits.delta_estimate - family.fail_bits.delta).abs()
                / family.fail_bits.delta;
            assert!(
                rel_err < 0.35,
                "delta estimate {} vs model {} for {}",
                study.fail_bits.delta_estimate,
                family.fail_bits.delta,
                family.name
            );
            assert!(study.fail_bits.gamma_estimate < study.fail_bits.delta_estimate / 3.0);
        }
    }

    #[test]
    fn derived_ept_rows_formatted() {
        let family = ChipFamily::tlc_3d_48l();
        let ept = derive_ept(&family, &EccConfig::paper_default());
        let row1 = ept_row_ms(&ept, 1);
        assert_eq!(row1.len(), EPT_RANGES);
        assert_eq!(row1[0].0, 0.5);
        assert_eq!(row1[1].1, 0.0);
        assert_eq!(default_pulse_ms(&family), 3.5);
    }
}
