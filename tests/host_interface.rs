//! Integration suite for the multi-tenant host interface.
//!
//! Exercises the full stack — per-tenant submission queues, the three
//! arbitration policies, per-queue depth limits, and per-tenant report
//! slices — through the umbrella crate, the way `interference_study` and the
//! scenario fuzzer drive it. (The thread-count determinism pin for the
//! interference sweep lives in `tests/determinism.rs` alongside the other
//! sweeps, because the thread override is process-global.)

use aero::core::SchemeKind;
use aero::ssd::audit::Auditor;
use aero::ssd::{HostInterface, LatencyRecorder, RunReport, Ssd, SsdConfig, TenantConfig};
use aero::workloads::{ArbiterKind, IterSource, QueueFullPolicy, SyntheticWorkload};

/// A read-heavy tenant workload with a small footprint.
fn reader() -> SyntheticWorkload {
    SyntheticWorkload {
        read_ratio: 0.9,
        mean_request_bytes: 4.0 * 1024.0,
        mean_inter_arrival_ns: 40_000.0,
        footprint_bytes: 8 << 20,
        hot_access_fraction: 0.8,
        hot_region_fraction: 0.2,
    }
}

/// A write-heavy tenant workload arriving fast enough to contend.
fn writer() -> SyntheticWorkload {
    SyntheticWorkload {
        read_ratio: 0.1,
        mean_request_bytes: 32.0 * 1024.0,
        mean_inter_arrival_ns: 10_000.0,
        footprint_bytes: 8 << 20,
        hot_access_fraction: 0.8,
        hot_region_fraction: 0.2,
    }
}

/// Builds a contended two-tenant run under the given arbiter and returns the
/// final report.
fn contended_run(arbiter: ArbiterKind, reader_weight: u32) -> RunReport {
    let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero).with_seed(7));
    ssd.fill_fraction(0.6);
    let host = HostInterface::new(arbiter)
        .with_device_slots(8)
        .tenant(
            TenantConfig::new("reader")
                .with_weight(reader_weight)
                .with_queue_depth(32)
                .with_deadline_ns(1_000_000),
            IterSource::new(reader().stream(11).take(400)),
        )
        .tenant(
            TenantConfig::new("writer")
                .with_weight(1)
                .with_queue_depth(32)
                .with_deadline_ns(20_000_000),
            IterSource::new(writer().stream(13).take(400)),
        );
    host.run(&mut ssd)
}

#[test]
fn tenant_slices_carry_full_telemetry() {
    let report = contended_run(ArbiterKind::RoundRobin, 1);
    assert_eq!(report.tenants.len(), 2);
    for tenant in &report.tenants {
        assert_eq!(tenant.completed(), 400);
        assert_eq!(tenant.submitted, 400);
        assert_eq!(tenant.rejected, 0, "backpressure tenants never drop");
        assert_eq!(tenant.latency.len(), 400);
        assert_eq!(tenant.queue_delay.len(), 400);
        assert!(tenant.queue_depth_high_water <= 32);
        assert!(tenant.outstanding_high_water <= 8);
        assert!(tenant.mean_latency_us() > 0.0);
        // End-to-end latency dominates queueing delay by construction.
        assert!(tenant.tails().p99_99_ns >= tenant.queue_delay.percentile(99.99));
    }
    // Tenant slices sum to the drive-wide totals.
    let reads: u64 = report.tenants.iter().map(|t| t.reads_completed).sum();
    let writes: u64 = report.tenants.iter().map(|t| t.writes_completed).sum();
    assert_eq!(reads, report.reads_completed);
    assert_eq!(writes, report.writes_completed);
    // End-to-end latency is device latency plus queueing delay, request by
    // request, so the sums over all tenants split the same way.
    let sum = |r: &LatencyRecorder| r.mean() * r.len() as f64;
    let end_to_end: f64 = report.tenants.iter().map(|t| sum(&t.latency)).sum();
    let queued: f64 = report.tenants.iter().map(|t| sum(&t.queue_delay)).sum();
    let device = sum(&report.read_latency) + sum(&report.write_latency);
    assert!(queued > 0.0, "the contended run queues requests");
    assert!(
        (end_to_end - (device + queued)).abs() <= 1e-9 * end_to_end,
        "end-to-end {end_to_end} vs device {device} + queued {queued}"
    );
}

#[test]
fn weighted_share_protects_the_heavier_tenant() {
    let fair = contended_run(ArbiterKind::RoundRobin, 1);
    let weighted = contended_run(ArbiterKind::WeightedShare, 8);
    let fair_delay = fair.tenant("reader").expect("reader").mean_queue_delay_us();
    let weighted_delay = weighted
        .tenant("reader")
        .expect("reader")
        .mean_queue_delay_us();
    assert!(
        weighted_delay < fair_delay,
        "weight 8 should shrink reader queueing delay ({weighted_delay} vs {fair_delay})"
    );
}

#[test]
fn every_arbiter_completes_all_work_identically_on_reruns() {
    for arbiter in ArbiterKind::all() {
        let first = contended_run(arbiter, 4);
        let second = contended_run(arbiter, 4);
        assert_eq!(first, second, "{arbiter} run must be reproducible");
        assert_eq!(first.reads_completed + first.writes_completed, 800);
    }
}

#[test]
fn reject_policy_accounts_for_shed_requests() {
    let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero).with_seed(9));
    ssd.fill_fraction(0.5);
    // One device slot and a two-deep queue under a fast arrival stream: the
    // queue must overflow and the Reject policy must shed, not stall.
    let mut burst = writer();
    burst.mean_inter_arrival_ns = 500.0;
    let report = HostInterface::new(ArbiterKind::RoundRobin)
        .with_device_slots(1)
        .tenant(
            TenantConfig::new("bursty")
                .with_queue_depth(2)
                .with_on_full(QueueFullPolicy::Reject),
            IterSource::new(burst.stream(21).take(300)),
        )
        .run(&mut ssd);
    let tenant = report.tenant("bursty").expect("bursty slice");
    assert_eq!(tenant.completed() + tenant.rejected, 300);
    assert!(tenant.rejected > 0, "the burst must overflow the queue");
    assert!(tenant.queue_depth_high_water <= 2);
    // Rejected arrivals never reach the drive.
    assert_eq!(
        report.reads_completed + report.writes_completed,
        tenant.completed()
    );
}

#[test]
fn audited_multi_tenant_run_stays_clean() {
    let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero).with_seed(17));
    ssd.fill_fraction(0.6);
    let mut auditor = Auditor::new().check_every(200).with_oracle(&ssd);
    let host = HostInterface::new(ArbiterKind::WeightedShare)
        .with_device_slots(8)
        .tenant(
            TenantConfig::new("reader").with_weight(3),
            IterSource::new(reader().stream(31).take(300)),
        )
        .tenant(
            TenantConfig::new("writer"),
            IterSource::new(writer().stream(37).take(300)),
        );
    let report = host.run_with(&mut ssd, Some(&mut auditor));
    auditor.checkpoint(&ssd);
    assert!(
        auditor.is_clean(),
        "auditor violations on a contended drive: {:?}",
        auditor.violations()
    );
    assert!(auditor.checkpoints() > 0);
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(
        report.tenants.iter().map(|t| t.completed()).sum::<u64>(),
        600
    );
}
