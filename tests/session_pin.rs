//! Exact pin of the simulation session's reports.
//!
//! `determinism.rs` and `streaming.rs` compare runs against each other, and
//! the golden snapshot holds drive state but no latencies; none of them
//! notices a change that moves every session a little. This suite runs seven
//! sessions and compares every [`RunReport`] field, rendered as text, with
//! the committed fixture under `tests/fixtures/`:
//!
//! - one per erase scheme on a drive whose two channels each carry two
//!   dies, so transfers contend for a bus and the calendar breaks ties,
//!   aged to 2.5K P/E cycles, filled to 70% and driven by a write-heavy
//!   stream long enough for garbage collection to run;
//! - one AERO session with every NAND fault class on, in which blocks are
//!   retired, programs fail, reads climb the retry ladder and some end as
//!   media errors, while the drive stays writable;
//! - one two-tenant session through [`HostInterface`].
//!
//! The fixture is regenerated with:
//!
//! ```text
//! AERO_BLESS_FIXTURES=1 cargo test -q --test session_pin
//! ```
//!
//! Re-bless only on a deliberate change to what a session computes: its
//! scheduling, FTL, erase or fault model, or what a report records.

mod pin;

use std::fmt::Write as _;

use aero::core::SchemeKind;
use aero::nand::FaultConfig;
use aero::ssd::{HostInterface, LatencyRecorder, RunReport, Ssd, SsdConfig, TenantConfig};
use aero::workloads::{ArbiterKind, IterSource, SyntheticWorkload};

/// The percentiles rendered for every recorder.
const LADDER: [f64; 7] = [10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 99.9999];

/// A 2-channel × 2-die `small_test` drive aged to 2.5K P/E cycles and
/// filled to 70% of its logical space.
fn aged_drive(config: SsdConfig) -> Ssd {
    let mut ssd = Ssd::new(config.with_channel_layout(2, 2));
    ssd.precondition_wear(2_500);
    ssd.fill_fraction(0.7);
    ssd
}

/// 70% writes of 16 KiB on average over a 32 MiB footprint, 90% of them to
/// its hottest 30%, one every 250 µs on average: 20K requests program about
/// five times the drive's logical space.
fn write_heavy() -> SyntheticWorkload {
    SyntheticWorkload {
        read_ratio: 0.3,
        mean_request_bytes: 16.0 * 1024.0,
        mean_inter_arrival_ns: 250_000.0,
        footprint_bytes: 32 << 20,
        hot_access_fraction: 0.9,
        hot_region_fraction: 0.3,
    }
}

/// One erase scheme on the aged drive; garbage collection and erase
/// suspension must both run.
fn scheme_session(kind: SchemeKind) -> RunReport {
    let mut ssd = aged_drive(SsdConfig::small_test(kind).with_seed(3));
    let report = ssd
        .session(IterSource::new(write_heavy().stream(17).take(20_000)))
        .run_to_end();
    assert!(report.gc_invocations > 0 && report.erase_suspensions > 0);
    report
}

/// AERO with every fault class on. The rates retire blocks, fail programs
/// and fill every retry-ladder bucket, while 4 spares per die keep the
/// drive writable.
fn faulted_session() -> RunReport {
    let config = SsdConfig::small_test(SchemeKind::Aero)
        .with_seed(29)
        .with_faults(FaultConfig {
            program_fail_per_million: 2_000,
            erase_fail_per_million: 4_000,
            grown_bad_per_million: 100,
            read_fault_per_million: 120_000,
        })
        .with_spare_blocks(4);
    let mut ssd = aged_drive(config);
    let report = ssd
        .session(IterSource::new(write_heavy().stream(31).take(20_000)))
        .run_to_end();
    let health = &report.health;
    assert!(
        health.retired_blocks > 0
            && health.program_failures > 0
            && health.media_errors > 0
            && health.read_retry_histogram.iter().all(|&b| b > 0)
            && !health.read_only,
        "{health:?}"
    );
    report
}

/// A read-heavy tenant (weight 4) and a write-heavy one (weight 1) sharing 8
/// device slots; both submission queues fill at times.
fn tenants_session() -> RunReport {
    let mut ssd = aged_drive(SsdConfig::small_test(SchemeKind::Aero).with_seed(41));
    let reader = SyntheticWorkload {
        read_ratio: 0.9,
        mean_request_bytes: 4.0 * 1024.0,
        mean_inter_arrival_ns: 100_000.0,
        ..write_heavy()
    };
    let writer = SyntheticWorkload {
        read_ratio: 0.1,
        mean_request_bytes: 32.0 * 1024.0,
        mean_inter_arrival_ns: 400_000.0,
        ..write_heavy()
    };
    let report = HostInterface::new(ArbiterKind::WeightedShare)
        .with_device_slots(8)
        .tenant(
            TenantConfig::new("reader")
                .with_weight(4)
                .with_queue_depth(16),
            IterSource::new(reader.stream(43).take(6_000)),
        )
        .tenant(
            TenantConfig::new("writer")
                .with_weight(1)
                .with_queue_depth(16),
            IterSource::new(writer.stream(47).take(1_500)),
        )
        .run(&mut ssd);
    assert!(report.gc_invocations > 0 && report.tenants.iter().all(|t| t.deferred > 0));
    report
}

/// A float as its exact bits, then a decimal for a human reading a diff.
fn float(x: f64) -> String {
    format!("{:016x} ({x:.3})", x.to_bits())
}

/// One line: `len`, mean, max and the percentile ladder.
fn render_recorder(out: &mut String, prefix: &str, recorder: &LatencyRecorder) {
    write!(
        out,
        "{prefix} len={} mean={} max={}",
        recorder.len(),
        float(recorder.mean()),
        recorder.max()
    )
    .unwrap();
    for p in LADDER {
        write!(out, " p{p}={}", recorder.percentile(p)).unwrap();
    }
    out.push('\n');
}

/// Every field of `report`, each line prefixed by the session's name.
fn render_report(out: &mut String, name: &str, r: &RunReport) {
    writeln!(
        out,
        "{name} scheme={} reads={} writes={} makespan_ns={} user_pages={} gc_invocations={} \
         gc_page_moves={} erase_suspensions={}",
        r.scheme,
        r.reads_completed,
        r.writes_completed,
        r.makespan_ns,
        r.user_pages_written,
        r.gc_invocations,
        r.gc_page_moves,
        r.erase_suspensions
    )
    .unwrap();
    let e = &r.erase_stats;
    writeln!(
        out,
        "{name} erase ops={} loops={} latency_ns={} stress={} partial={} complete={} \
         loop_histogram={:?} max_latency_ns={}",
        e.operations,
        e.loops,
        e.total_latency.as_nanos(),
        float(e.total_stress),
        e.partial_erases,
        e.complete_erases,
        e.loop_histogram,
        e.max_latency.as_nanos()
    )
    .unwrap();
    for (i, c) in r.channel_stats.iter().enumerate() {
        writeln!(
            out,
            "{name} channel{i} transfers={} busy_ns={} waited={} wait_ns={} write_deferrals={}",
            c.transfers, c.busy_ns, c.waited_transfers, c.wait_ns, c.write_deferrals
        )
        .unwrap();
    }
    let h = &r.health;
    writeln!(
        out,
        "{name} health retired={} spares={} headroom={} program_failures={} erase_failures={} \
         media_errors={} retry={:?} rejected_read_only={} read_only={} read_only_since_ns={:?}",
        h.retired_blocks,
        h.spare_blocks_total,
        h.spare_headroom,
        h.program_failures,
        h.erase_failures,
        h.media_errors,
        h.read_retry_histogram,
        h.writes_rejected_read_only,
        h.read_only,
        h.read_only_since_ns
    )
    .unwrap();
    render_recorder(out, &format!("{name} read"), &r.read_latency);
    render_recorder(out, &format!("{name} write"), &r.write_latency);
    for t in &r.tenants {
        let prefix = format!("{name} tenant {}", t.name);
        writeln!(
            out,
            "{prefix} reads={} writes={} submitted={} rejected={} deferred={} \
             queue_high_water={} outstanding_high_water={}",
            t.reads_completed,
            t.writes_completed,
            t.submitted,
            t.rejected,
            t.deferred,
            t.queue_depth_high_water,
            t.outstanding_high_water
        )
        .unwrap();
        render_recorder(out, &format!("{prefix} latency"), &t.latency);
        render_recorder(out, &format!("{prefix} queue_delay"), &t.queue_delay);
    }
}

fn render() -> String {
    let mut out = String::from(
        "# 2x2 small_test drives at 2.5K PEC, 70% full: 20K write-heavy requests per scheme, \
         a faulted AERO session, a two-tenant session\n",
    );
    for kind in SchemeKind::all() {
        render_report(&mut out, kind.label(), &scheme_session(kind));
    }
    render_report(&mut out, "faulted", &faulted_session());
    render_report(&mut out, "tenants", &tenants_session());
    out
}

#[test]
fn session_reports_are_bit_identical_to_the_fixture() {
    pin::check_fixture("session_reports.txt", "session_pin", &render());
}
