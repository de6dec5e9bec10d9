//! Property-based tests (proptest) over the core invariants of the device
//! model, the EPT, the FTL structures, and the latency statistics.

use aero_core::ept::{Ept, EPT_RANGES};
use aero_core::scheme::BlockId;
use aero_core::sef::ShallowEraseFlags;
use aero_core::SchemeKind;
use aero_nand::chip_family::ChipFamily;
use aero_nand::erase::characteristics::ispe_decomposition;
use aero_nand::erase::failbits::FailBitModel;
use aero_nand::reliability::ecc::EccConfig;
use aero_nand::reliability::rber::{RberModel, RberSample};
use aero_nand::reliability::retention::RetentionSpec;
use aero_nand::timing::Micros;
use aero_nand::wear::WearState;
use aero_ssd::audit::Auditor;
use aero_ssd::ftl::{DieFtl, PageMapping, Ppa};
use aero_ssd::latency::LatencyRecorder;
use aero_ssd::{Ssd, SsdConfig};
use aero_workloads::{IoRequest, IterSource, SyntheticWorkload};
use proptest::prelude::*;

proptest! {
    /// The ISPE decomposition is monotone in the required dose: more dose
    /// never needs fewer loops or a shorter final pulse at the same loop
    /// count, and the final pulse always respects the chip's pulse bounds.
    #[test]
    fn ispe_decomposition_monotone_and_bounded(
        a in 0.3f64..60.0,
        b in 0.3f64..60.0,
    ) {
        let family = ChipFamily::tlc_3d_48l();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let d_lo = ispe_decomposition(&family, lo);
        let d_hi = ispe_decomposition(&family, hi);
        prop_assert!(d_hi.m_t_bers(&family) >= d_lo.m_t_bers(&family));
        for d in [d_lo, d_hi] {
            prop_assert!(d.n_ispe >= 1 && d.n_ispe <= family.erase.max_loops);
            prop_assert!(d.final_pulse >= family.timings.erase_pulse_min);
            prop_assert!(d.final_pulse <= family.timings.erase_pulse);
        }
    }

    /// The fail-bit model is monotone (more remaining erasure never lowers
    /// the expected fail-bit count) and its range index matches the paper's
    /// γ/δ bucketing.
    #[test]
    fn fail_bit_model_monotone_and_consistent(remaining in 0.0f64..40.0, extra in 0.0f64..5.0) {
        let model = FailBitModel::new(ChipFamily::tlc_3d_48l().fail_bits);
        let f1 = model.expected_fail_bits(remaining);
        let f2 = model.expected_fail_bits(remaining + extra);
        prop_assert!(f2 + 1e-9 >= f1);
        // Range indices are monotone in the fail-bit count.
        prop_assert!(model.range_index(f2.round() as u64) >= model.range_index(f1.round() as u64));
        // Inverting the expected count recovers a remaining-time estimate that
        // never exceeds the true remaining time by more than one step.
        let back = model.dose_for_fail_bits(f1);
        prop_assert!(back <= remaining.max(1.0) + 1e-9);
    }

    /// M_RBER is monotone in accumulated stress, retention severity, and
    /// residual erasure.
    #[test]
    fn rber_monotonicity(
        stress in 0.0f64..300_000.0,
        extra_stress in 0.0f64..50_000.0,
        residual in 0.0f64..4.0,
    ) {
        let model = RberModel::new(&ChipFamily::tlc_3d_48l());
        let wear = |s: f64| WearState { pec: 1_000, erase_stress: s, program_stress: 1_000.0 };
        let base = model.m_rber(&RberSample::nominal(wear(stress)));
        let more_stress = model.m_rber(&RberSample::nominal(wear(stress + extra_stress)));
        prop_assert!(more_stress + 1e-9 >= base);
        let with_residual = model.m_rber(&RberSample {
            residual_units: residual,
            ..RberSample::nominal(wear(stress))
        });
        prop_assert!(with_residual + 1e-9 >= base);
        let no_retention = model.m_rber(&RberSample {
            retention: RetentionSpec::immediate(),
            ..RberSample::nominal(wear(stress))
        });
        prop_assert!(no_retention <= base + 1e-9);
    }

    /// Every EPT entry is within the legal pulse range, aggressive entries
    /// never exceed conservative ones, and weaker ECC requirements never make
    /// the aggressive column more aggressive.
    #[test]
    fn ept_entries_are_ordered(requirement in 30u32..=72) {
        let family = ChipFamily::tlc_3d_48l();
        let ecc = EccConfig::paper_default().with_requirement(requirement);
        let ept = Ept::derive(&family, &ecc);
        let reference = Ept::derive(&family, &EccConfig::paper_default());
        for n in 1..=5u32 {
            for r in 0..EPT_RANGES as u32 {
                let e = ept.entry(n, r).unwrap();
                prop_assert!(e.conservative <= family.timings.erase_pulse);
                prop_assert!(e.aggressive <= e.conservative);
                if requirement <= 63 {
                    // A stricter requirement can only lengthen aggressive pulses.
                    prop_assert!(e.aggressive >= reference.entry(n, r).unwrap().aggressive);
                }
            }
        }
    }

    /// The SEF bitmap behaves like a plain set of booleans.
    #[test]
    fn sef_matches_reference_model(ops in proptest::collection::vec((0usize..500, any::<bool>()), 1..200)) {
        let mut sef = ShallowEraseFlags::new(500);
        let mut reference = vec![true; 500];
        for (block, enabled) in ops {
            sef.set(BlockId(block), enabled);
            reference[block] = enabled;
        }
        for (i, &expected) in reference.iter().enumerate() {
            prop_assert_eq!(sef.is_enabled(BlockId(i)), expected);
        }
        prop_assert_eq!(sef.enabled_count(), reference.iter().filter(|&&b| b).count());
    }

    /// The die FTL never loses pages: allocations are unique and the free +
    /// open + full accounting matches the number of allocations.
    #[test]
    fn die_ftl_allocations_are_unique(blocks in 2u32..8, pages in 2u32..16, allocs in 1usize..100) {
        let mut die = DieFtl::new(blocks, pages);
        let capacity = (blocks * pages) as usize;
        let mut seen = std::collections::HashSet::new();
        let mut succeeded = 0usize;
        for _ in 0..allocs {
            match die.allocate_page() {
                Some((block, page, _)) => {
                    prop_assert!(seen.insert((block, page)), "duplicate allocation");
                    succeeded += 1;
                }
                None => break,
            }
        }
        prop_assert!(succeeded <= capacity);
        prop_assert_eq!(die.valid_pages(), succeeded as u64);
    }

    /// The logical-to-physical mapping returns exactly the last installed
    /// location for every logical page, and each update hands back the
    /// one it replaced, over the full range a packed table entry holds.
    #[test]
    fn page_mapping_last_write_wins(updates in proptest::collection::vec((
        0u64..64,
        0u32..PageMapping::MAX_DIES,
        0u32..PageMapping::MAX_BLOCKS_PER_DIE,
        0u32..PageMapping::MAX_PAGES_PER_BLOCK,
    ), 1..200)) {
        let mut mapping = PageMapping::new(64);
        let mut reference = std::collections::HashMap::new();
        for (lpn, die, block, page) in updates {
            let ppa = Ppa { die, block, page };
            prop_assert_eq!(mapping.update(lpn, ppa), reference.insert(lpn, ppa));
        }
        for (lpn, ppa) in reference {
            prop_assert_eq!(mapping.lookup(lpn), Some(ppa));
        }
    }

    /// Percentiles are order statistics: they never decrease with the
    /// percentile rank and are bracketed by the minimum and maximum samples.
    #[test]
    fn latency_percentiles_are_order_statistics(samples in proptest::collection::vec(1u64..10_000_000, 1..400)) {
        let mut recorder = LatencyRecorder::new();
        for &s in &samples {
            recorder.record(s);
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let p50 = recorder.percentile(50.0);
        let p99 = recorder.percentile(99.0);
        let p100 = recorder.percentile(100.0);
        prop_assert!(p50 >= min && p50 <= max);
        prop_assert!(p99 >= p50);
        prop_assert_eq!(p100, max);
    }

    /// The recorder agrees with a naive reference (every sample in a
    /// `Vec<u64>`, sorted on demand) under random interleavings of
    /// `record`, `percentile`, `merge` and `clone`, with samples around
    /// 2³² ns, at device scale and up to 20 s: every percentile lies within
    /// the histogram's bound of the exact nearest-rank sample (never below
    /// it, at most `exact >> 10` above it, exact below 2¹¹ ns), and the
    /// count, maximum and mean are exact. The same samples recorded in
    /// reverse compare equal; one extra sample compares unequal.
    #[test]
    fn latency_recorder_matches_a_sorted_reference(
        ops in proptest::collection::vec((0u8..9, any::<u64>(), 1u64..=1_000_000_000), 1..400),
    ) {
        let mut recorder = LatencyRecorder::new();
        let mut reference: Vec<u64> = Vec::new();
        let mut donor = LatencyRecorder::new();
        let mut donor_reference: Vec<u64> = Vec::new();
        for (op, bits, p_units) in ops {
            let value = latency_near_the_split(bits);
            match op {
                0..=3 => {
                    recorder.record(value);
                    reference.push(value);
                }
                4 => {
                    donor.record(value);
                    donor_reference.push(value);
                }
                5 => {
                    recorder.merge(&donor);
                    reference.extend_from_slice(&donor_reference);
                }
                6 => recorder = recorder.clone(),
                op => {
                    let p = if op == 7 {
                        PERCENTILE_LADDER[(bits % 8) as usize]
                    } else {
                        p_units as f64 / 1e7
                    };
                    let (got, exact) = (recorder.percentile(p), nearest_rank(&reference, p));
                    prop_assert!(within_histogram_bound(got, exact), "p{}: {} vs exact {}", p, got, exact);
                }
            }
        }
        prop_assert_eq!(recorder.len(), reference.len());
        prop_assert_eq!(recorder.max(), reference.iter().copied().max().unwrap_or(0));
        let mean = if reference.is_empty() {
            0.0
        } else {
            reference.iter().sum::<u64>() as f64 / reference.len() as f64
        };
        prop_assert_eq!(recorder.mean(), mean);
        for p in PERCENTILE_LADDER {
            let (got, exact) = (recorder.percentile(p), nearest_rank(&reference, p));
            prop_assert!(within_histogram_bound(got, exact), "p{}: {} vs exact {}", p, got, exact);
        }
        let mut reversed = LatencyRecorder::new();
        for &v in reference.iter().rev() {
            reversed.record(v);
        }
        prop_assert_eq!(&reversed, &recorder);
        reversed.record(latency_near_the_split(reference.len() as u64));
        prop_assert_ne!(&reversed, &recorder);
    }

    /// Micros arithmetic round-trips through milliseconds at 0.1 µs
    /// resolution.
    #[test]
    fn micros_roundtrip(ms in 0.0f64..100.0) {
        let m = Micros::from_millis_f64(ms);
        prop_assert!((m.as_millis_f64() - ms).abs() < 1e-4);
    }

    /// After any session, the shadow-FTL oracle's generation map agrees
    /// with the reads the real FTL serves: for every written LBA the
    /// oracle knows, the real mapping points at the same physical page,
    /// and that page (per the oracle) holds exactly that LBA's latest
    /// write. The attached auditor must stay clean throughout, and the
    /// quiesced drive must pass a full invariant audit.
    #[test]
    fn oracle_generation_map_agrees_with_served_reads(
        seed in 0u64..1_000_000,
        count in 40usize..180,
        fill in 0.15f64..0.6,
        read_ratio in 0.0f64..=1.0,
    ) {
        let scheme = SchemeKind::all()[(seed % 5) as usize];
        let mut ssd = Ssd::new(SsdConfig::small_test(scheme).with_seed(seed));
        ssd.fill_fraction(fill);
        let mut auditor = Auditor::new().check_every(200).with_oracle(&ssd);
        let workload = SyntheticWorkload {
            read_ratio,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 8 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        };
        let report = ssd
            .session(IterSource::new(workload.stream(seed).take(count)))
            .with_auditor(&mut auditor)
            .run_to_end();
        prop_assert_eq!(
            (report.reads_completed + report.writes_completed) as usize,
            count
        );
        prop_assert!(auditor.is_clean(), "violations: {:?}", auditor.violations());
        let oracle = auditor.oracle().expect("oracle was attached");
        let mut checked = 0u64;
        for (lpn, ppa, write_id) in oracle.written_lpns() {
            prop_assert!(
                ssd.mapping().lookup(lpn) == Some(ppa),
                "lpn {} must be served from the oracle's location {:?}, real {:?}",
                lpn,
                ppa,
                ssd.mapping().lookup(lpn)
            );
            prop_assert!(
                oracle.page_content(ppa) == Some(lpn),
                "the served page {:?} must hold lpn {}",
                ppa,
                lpn
            );
            prop_assert!(write_id <= oracle.writes_observed());
            checked += 1;
        }
        prop_assert!(checked > 0, "the fill guarantees written LBAs");
        let final_audit = ssd.audit();
        prop_assert!(final_audit.is_clean(), "{}", final_audit);
    }

    /// A run split across `save_snapshot`/`restore_snapshot` continues
    /// **byte-identically**: for any scheme, fill level, and split point
    /// (from a quarter of the run to three quarters), the post-split
    /// report equals an uninterrupted control run's, and the final drive
    /// states serialize to the same bytes.
    #[test]
    fn snapshot_restore_continuation_is_byte_identical(
        seed in 0u64..1_000_000,
        count in 60usize..160,
        fill in 0.1f64..0.5,
        split_quarters in 1usize..4,
    ) {
        let scheme = SchemeKind::all()[(seed % 5) as usize];
        let config = SsdConfig::small_test(scheme).with_seed(seed);
        let workload = SyntheticWorkload {
            read_ratio: 0.35,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 6 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        };
        let requests: Vec<IoRequest> = workload.stream(seed).take(count).collect();
        let (head, tail) = requests.split_at(count * split_quarters / 4);

        let mut control = Ssd::new(config.clone());
        control.fill_fraction(fill);
        let mut subject = Ssd::new(config.clone());
        subject.fill_fraction(fill);

        let head_control = control
            .session(IterSource::new(head.iter().cloned()))
            .run_to_end();
        let head_subject = subject
            .session(IterSource::new(head.iter().cloned()))
            .run_to_end();
        prop_assert_eq!(&head_control, &head_subject);

        // Save, restore into a brand-new drive, and prove the restored
        // drive re-serializes to the exact same bytes.
        let bytes = subject.snapshot_bytes();
        let mut restored = match Ssd::restore_snapshot_bytes(&bytes, &config) {
            Ok(ssd) => ssd,
            Err(e) => return Err(TestCaseError::new(format!("restore failed: {e}"))),
        };
        prop_assert_eq!(restored.snapshot_bytes(), bytes);

        let tail_control = control
            .session(IterSource::new(tail.iter().cloned()))
            .run_to_end();
        let tail_restored = restored
            .session(IterSource::new(tail.iter().cloned()))
            .run_to_end();
        prop_assert_eq!(&tail_control, &tail_restored);
        prop_assert_eq!(control.snapshot_bytes(), restored.snapshot_bytes());
    }
}

/// The percentiles reports and digests ask for, plus the maximum.
const PERCENTILE_LADDER: [f64; 8] = [10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 99.9999, 100.0];

/// A latency drawn from `bits`: within 16 ns below `u32::MAX` or above
/// 2³² (either side of a power-of-two bucket edge), a device-scale value
/// under 10 ms, or anything up to 20 s.
fn latency_near_the_split(bits: u64) -> u64 {
    let jitter = bits >> 60;
    match bits % 4 {
        0 => u64::from(u32::MAX) - jitter,
        1 => (1 << 32) + jitter,
        2 => (bits >> 8) % 10_000_000,
        _ => (bits >> 8) % 20_000_000_000,
    }
}

/// The latency histogram's error bound: a percentile is never below the
/// exact order statistic, at most `exact >> 10` above it, and exact below
/// 2¹¹ ns.
fn within_histogram_bound(got: u64, exact: u64) -> bool {
    if exact < 1 << 11 {
        got == exact
    } else {
        exact <= got && got - exact <= exact >> 10
    }
}

/// The nearest-rank `p`-th percentile of `samples` (0 when empty): the
/// `k`-th smallest sample for the least `k` with `k / n ≥ p / 100`, with
/// `p` taken to 10⁻⁷ of a percent.
fn nearest_rank(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u128;
    let p_units = (p * 1e7).round() as u128;
    (1..=n)
        .find(|&k| k * 1_000_000_000 >= p_units * n)
        .map_or(0, |k| sorted[k as usize - 1])
}
