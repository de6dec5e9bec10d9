//! Cross-crate integration tests: NAND model → erase schemes → SSD simulator.

use aero_core::controller::EraseController;
use aero_core::scheme::BlockId;
use aero_core::{Aero, BaselineIspe, SchemeKind};
use aero_nand::cell::DataPattern;
use aero_nand::{BlockAddr, Chip, ChipConfig, ChipFamily};
use aero_ssd::session::CompletedRequest;
use aero_ssd::{LatencyRecorder, SimObserver, Ssd, SsdConfig};
use aero_workloads::catalog::WorkloadId;
use aero_workloads::{IoOp, IterSource, SyntheticWorkload};

/// A full P/E-cycling loop through the controller keeps chip, scheme, and
/// statistics consistent, and AERO accumulates less stress than Baseline on
/// the same (seeded) blocks.
#[test]
fn pe_cycling_through_controller_is_consistent() {
    let family = ChipFamily::small_test();
    let block = BlockAddr::new(0, 0);
    let cycles = 150;

    let mut chip_base = Chip::new(ChipConfig::new(family.clone()).with_seed(3));
    let mut chip_aero = Chip::new(ChipConfig::new(family.clone()).with_seed(3));
    let mut base = EraseController::new(BaselineIspe::paper_default());
    let mut aero = EraseController::new(Aero::aggressive());

    for _ in 0..cycles {
        base.erase(&mut chip_base, block, BlockId(0)).unwrap();
        chip_base
            .program_block_bulk(block, DataPattern::Randomized)
            .unwrap();
        aero.erase(&mut chip_aero, block, BlockId(0)).unwrap();
        chip_aero
            .program_block_bulk(block, DataPattern::Randomized)
            .unwrap();
    }
    assert_eq!(chip_base.wear(block).unwrap().pec, cycles);
    assert_eq!(chip_aero.wear(block).unwrap().pec, cycles);
    assert_eq!(base.stats().operations, cycles as u64);
    assert_eq!(aero.stats().operations, cycles as u64);
    let stress_base = chip_base.wear(block).unwrap().erase_stress;
    let stress_aero = chip_aero.wear(block).unwrap().erase_stress;
    assert!(
        stress_aero < stress_base,
        "AERO stress {stress_aero} must stay below baseline {stress_base}"
    );
    assert!(aero.stats().mean_latency() < base.stats().mean_latency());
}

/// Replaying a cataloged workload end to end on the simulated SSD completes
/// every request under every scheme and keeps the FTL invariants (no request
/// lost, GC keeps up).
#[test]
fn every_scheme_completes_a_cataloged_workload() {
    for scheme in SchemeKind::all() {
        let config = SsdConfig::small_test(scheme).with_seed(1);
        let logical = config.logical_capacity_bytes();
        let mut ssd = Ssd::new(config);
        ssd.precondition_wear(1_000);
        ssd.fill_fraction(0.6);
        let mut synth = WorkloadId::Hm.spec().synthetic();
        synth.footprint_bytes = (logical as f64 * 0.5) as u64;
        synth.mean_inter_arrival_ns = 150_000.0;
        let trace = synth.generate(2_500, 42);
        let report = ssd.run_trace(&trace);
        assert_eq!(
            report.reads_completed + report.writes_completed,
            2_500,
            "scheme {} lost requests",
            scheme.label()
        );
        assert!(report.makespan_ns > 0);
        assert_eq!(report.scheme, scheme.label());
    }
}

/// The headline system-level claim: on a wear-leveled drive under write
/// pressure, AERO's read tail latency is no worse than Baseline's, and its
/// erase operations are shorter on average.
#[test]
fn aero_improves_erase_latency_and_read_tail() {
    let run = |scheme: SchemeKind| {
        let config = SsdConfig::small_test(scheme).with_seed(9);
        let mut ssd = Ssd::new(config);
        ssd.precondition_wear(500);
        ssd.fill_fraction(0.7);
        let trace = SyntheticWorkload {
            read_ratio: 0.5,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 120_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        }
        .generate(6_000, 5);
        ssd.run_trace(&trace)
    };
    let base = run(SchemeKind::Baseline);
    let aero = run(SchemeKind::Aero);
    assert!(base.erase_stats.operations > 0);
    assert!(aero.erase_stats.operations > 0);
    assert!(
        aero.erase_stats.mean_latency() < base.erase_stats.mean_latency(),
        "AERO mean erase latency must be below baseline"
    );
    assert!(
        aero.read_latency.percentile(99.9) <= base.read_latency.percentile(99.9),
        "AERO read tail must not regress"
    );
}

/// Erase suspension and AERO compose: with both enabled the tail is at least
/// as good as with either alone.
#[test]
fn erase_suspension_composes_with_aero() {
    let run = |scheme: SchemeKind, suspension: bool| {
        let config = SsdConfig::small_test(scheme)
            .with_erase_suspension(suspension)
            .with_seed(3);
        let mut ssd = Ssd::new(config);
        ssd.precondition_wear(2_500);
        ssd.fill_fraction(0.7);
        let trace = SyntheticWorkload {
            read_ratio: 0.4,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 150_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        }
        .generate(5_000, 21);
        ssd.run_trace(&trace)
    };
    let base_no_susp = run(SchemeKind::Baseline, false);
    let aero_susp = run(SchemeKind::Aero, true);
    let baseline_tail = base_no_susp.read_latency.percentile(99.99);
    let combined_tail = aero_susp.read_latency.percentile(99.99);
    assert!(
        combined_tail <= baseline_tail,
        "AERO + suspension ({combined_tail}) must beat plain baseline without suspension ({baseline_tail})"
    );
}

/// The misprediction knob degrades AERO only mildly (Figure 16's conclusion).
#[test]
fn mispredictions_do_not_erase_aeros_benefit() {
    let run = |rate: f64| {
        let config = SsdConfig::small_test(SchemeKind::Aero)
            .with_misprediction_rate(rate)
            .with_seed(13);
        let mut ssd = Ssd::new(config);
        ssd.precondition_wear(500);
        ssd.fill_fraction(0.7);
        let trace = SyntheticWorkload {
            read_ratio: 0.3,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 120_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        }
        .generate(4_000, 17);
        ssd.run_trace(&trace)
    };
    let clean = run(0.0);
    let noisy = run(0.20);
    // Erases stay close in average latency: the 0.5 ms penalty is small
    // against the multi-millisecond reductions.
    let clean_lat = clean.erase_stats.mean_latency().as_micros_f64();
    let noisy_lat = noisy.erase_stats.mean_latency().as_micros_f64();
    assert!(
        noisy_lat < clean_lat * 1.5 + 600.0,
        "20% mispredictions should cost little (clean {clean_lat} us, noisy {noisy_lat} us)"
    );
}

/// Every completed request's latency, as the session reports it to
/// observers, split by operation.
#[derive(Default)]
struct ExactLatencies {
    reads: Vec<u64>,
    writes: Vec<u64>,
}

impl SimObserver for ExactLatencies {
    fn on_request_complete(&mut self, request: &CompletedRequest) {
        match request.op {
            IoOp::Read => self.reads.push(request.latency_ns),
            IoOp::Write => self.writes.push(request.latency_ns),
        }
    }
}

/// The report's drive-wide latency histograms against exact order
/// statistics: on a write-heavy session with garbage collection and
/// multi-loop erases, every percentile of the ladder is never below the
/// exact nearest-rank latency and at most `exact >> 10` above it, and the
/// count, maximum and mean are exact.
#[test]
fn histogram_percentiles_stay_within_the_bound_of_exact_ranks() {
    let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero).with_seed(5));
    ssd.precondition_wear(2_500);
    ssd.fill_fraction(0.7);
    let workload = SyntheticWorkload {
        read_ratio: 0.3,
        mean_request_bytes: 16.0 * 1024.0,
        mean_inter_arrival_ns: 100_000.0,
        footprint_bytes: 4 << 20,
        hot_access_fraction: 0.9,
        hot_region_fraction: 0.3,
    };
    let mut exact = ExactLatencies::default();
    let report = ssd
        .session(IterSource::new(workload.stream(11).take(100_000)))
        .with_observer(&mut exact)
        .run_to_end();
    assert!(report.gc_invocations > 0 && report.erase_stats.operations > 0);
    let pairs: [(&LatencyRecorder, &mut Vec<u64>); 2] = [
        (&report.read_latency, &mut exact.reads),
        (&report.write_latency, &mut exact.writes),
    ];
    for (recorder, samples) in pairs {
        samples.sort_unstable();
        let n = samples.len() as u128;
        assert!(n > 1_000);
        assert_eq!(recorder.len() as u128, n);
        assert_eq!(recorder.max(), samples[samples.len() - 1]);
        let sum: u64 = samples.iter().sum();
        assert_eq!(recorder.mean(), sum as f64 / n as f64);
        for p in [10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 99.9999, 100.0] {
            let p_units = (p * 1e7f64).round() as u128;
            let rank = (p_units * n).div_ceil(1_000_000_000).clamp(1, n);
            let want = samples[rank as usize - 1];
            let got = recorder.percentile(p);
            let bound = if want < 1 << 11 { 0 } else { want >> 10 };
            assert!(
                want <= got && got - want <= bound,
                "p{p}: {got} vs exact {want} (n = {n})"
            );
        }
    }
}
