//! `tenants_faulted`: a latency-sensitive reader and a write-heavy
//! neighbour sharing the paper drive through `HostInterface`, with the NAND
//! fault model on.
//!
//! The only workload that exercises host arbitration, per-tenant telemetry,
//! the read-error model and the retry ladder. `interference_study`'s own
//! parameters are not reused: they overload the drive (reader p99.99 in
//! seconds), and under faults they wedge the small test drive read-only.

use aero_core::SchemeKind;
use aero_nand::FaultConfig;
use aero_ssd::{HostInterface, RunReport, SsdConfig, TenantConfig};
use aero_workloads::{ArbiterKind, IterSource, SyntheticWorkload, WorkloadSource};

use crate::clock::now_ns;
use crate::common::{digest_reports, mix, report_counters, Batch, BurstSource, PullStats};
use crate::drive::{build_drive, SetupTimes};
use crate::trace::Tracer;

/// Reader requests: 50 simulated seconds at one every 50 µs.
const READER_REQUESTS: u64 = 1_000_000;
/// Writer requests: 50 simulated seconds at one every 200 µs.
const WRITER_REQUESTS: u64 = 250_000;
/// Requests per batch.
pub const REQUESTS: u64 = READER_REQUESTS + WRITER_REQUESTS;
/// Device slots the tenants arbitrate over: a closed loop at the device.
const DEVICE_SLOTS: usize = 16;
/// Per-tenant submission-queue depth (arrivals beyond it wait).
const QUEUE_DEPTH: usize = 64;

/// The fault rates `perf_report`'s faulted pass uses: 0.1% program
/// failures, 100 ppm erase failures, 2 ppm grown-bad declarations and 5%
/// read-error spikes. They retire a few blocks per batch and stay far from
/// the read-only transition.
const FAULTS: FaultConfig = FaultConfig {
    program_fail_per_million: 1_000,
    erase_fail_per_million: 100,
    grown_bad_per_million: 2,
    read_fault_per_million: 50_000,
};

fn config(seed: u64, faults: bool) -> SsdConfig {
    SsdConfig::scaled_paper(SchemeKind::Aero)
        .with_seed(mix(seed, 5))
        .with_faults(if faults {
            FAULTS
        } else {
            FaultConfig::disabled()
        })
}

/// The reader: 4 KiB reads, 50 µs mean gap.
fn reader(footprint_bytes: u64) -> SyntheticWorkload {
    SyntheticWorkload {
        read_ratio: 1.0,
        mean_request_bytes: 4.0 * 1024.0,
        mean_inter_arrival_ns: 50_000.0,
        footprint_bytes,
        hot_access_fraction: 0.8,
        hot_region_fraction: 0.2,
    }
}

/// The neighbour: 64 KiB writes, 200 µs mean gap.
fn writer(footprint_bytes: u64) -> SyntheticWorkload {
    SyntheticWorkload {
        read_ratio: 0.0,
        mean_request_bytes: 64.0 * 1024.0,
        mean_inter_arrival_ns: 200_000.0,
        footprint_bytes,
        hot_access_fraction: 0.8,
        hot_region_fraction: 0.2,
    }
}

/// Set-up alone, for extra set-up samples.
pub fn setup_only(seed: u64) -> SetupTimes {
    build_drive(config(seed, true), 2_500, 0.7, None).1
}

/// One batch's results.
pub struct TenantsOut {
    /// Batch totals.
    pub batch: Batch,
    /// Per-step set-up times.
    pub setup: SetupTimes,
}

fn run_host<'w>(
    ssd: &mut aero_ssd::Ssd,
    reader: impl WorkloadSource + 'w,
    writer: impl WorkloadSource + 'w,
) -> RunReport {
    HostInterface::new(ArbiterKind::WeightedShare)
        .with_device_slots(DEVICE_SLOTS)
        .tenant(
            TenantConfig::new("reader")
                .with_weight(4)
                .with_queue_depth(QUEUE_DEPTH),
            reader,
        )
        .tenant(
            TenantConfig::new("writer")
                .with_weight(1)
                .with_queue_depth(QUEUE_DEPTH),
            writer,
        )
        .run(ssd)
}

/// Runs one batch. `faults: false` is the fault-free twin: same drive,
/// same tenants, `FaultConfig::disabled()`.
pub fn batch(seed: u64, faults: bool, mut tracer: Option<&mut Tracer>) -> TenantsOut {
    let start = now_ns();
    let config = config(seed, faults);
    let footprint = ((config.logical_capacity_bytes() as f64 * 0.5) as u64).max(1 << 20);
    let (reader, writer) = (reader(footprint), writer(footprint));
    let (reader_seed, writer_seed) = (mix(seed, 6), mix(seed, 7));
    let (mut ssd, setup) = build_drive(config, 2_500, 0.7, tracer.as_deref_mut());
    let filled = ssd.user_pages_written();
    let replay_start = now_ns();
    let report = if let Some(t) = tracer {
        let pulls = PullStats::default();
        let r = BurstSource::new(reader.stream(reader_seed), READER_REQUESTS, &pulls);
        let w = BurstSource::new(writer.stream(writer_seed), WRITER_REQUESTS, &pulls);
        t.enter("host.run");
        let report = run_host(&mut ssd, r, w);
        t.aggregate("synth.pull", pulls.ns.get(), pulls.requests.get());
        t.exit();
        report
    } else {
        let r = IterSource::new(reader.stream(reader_seed).take(READER_REQUESTS as usize));
        let w = IterSource::new(writer.stream(writer_seed).take(WRITER_REQUESTS as usize));
        run_host(&mut ssd, r, w)
    };
    let end = now_ns();

    for (tenant, expected) in report
        .tenants
        .iter()
        .zip([READER_REQUESTS, WRITER_REQUESTS])
    {
        assert_eq!(
            tenant.submitted, expected,
            "{}: every arrival is admitted",
            tenant.name
        );
        assert_eq!(tenant.rejected, 0, "{}: nothing is shed", tenant.name);
        assert_eq!(
            tenant.completed(),
            tenant.submitted,
            "{}: every admitted request completes",
            tenant.name
        );
    }
    assert_eq!(report.tenants.len(), 2, "both tenant slices are reported");
    assert!(
        !report.health.read_only,
        "the faulted drive went read-only: writes would complete as cheap rejections"
    );
    if faults {
        assert!(
            report.health.retired_blocks >= 1,
            "the fault model must retire at least one block"
        );
    }
    let mut counters = report_counters(&report, ssd.user_pages_written() - filled);
    let sum = |f: fn(&aero_ssd::TenantReport) -> u64| report.tenants.iter().map(f).sum::<u64>();
    counters.insert("host_submitted", sum(|t| t.submitted));
    counters.insert("host_deferred", sum(|t| t.deferred));
    counters.insert(
        "host_queue_high_water",
        report
            .tenants
            .iter()
            .map(|t| t.queue_depth_high_water)
            .max()
            .unwrap_or(0),
    );
    counters.insert("pages_filled", filled);
    TenantsOut {
        batch: Batch {
            ops: REQUESTS,
            setup_ns: setup.total_ns(),
            replay_ns: end - replay_start,
            wall_ns: end - start,
            digest: digest_reports([&report]),
            counters,
            ..Batch::default()
        },
        setup,
    }
}
