//! `stream_paper`: one long streamed session on the paper-organized drive.
//!
//! Steady-state GC, a mapping table larger than L2, a 16-die calendar and
//! latency recorders that keep every sample put nearly all host time in
//! the event loop, the FTL and telemetry; set-up is under 1% and erase
//! physics about 1%.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use aero_core::SchemeKind;
use aero_ssd::SsdConfig;
use aero_workloads::{IterSource, SyntheticWorkload};

use crate::clock::now_ns;
use crate::common::{
    hash_report, mix, report_counters, Batch, BurstSource, CountingObserver, PullStats,
};
use crate::drive::{build_drive, replay_windows, SetupTimes, Windows};
use crate::trace::Tracer;

/// Requests streamed per batch: 200 simulated seconds at the arrival rate.
pub const REQUESTS: u64 = 4_000_000;
/// Pre-aged wear of every block.
const PEC: u32 = 2_500;
/// Fraction of the logical space written before the stream starts.
const FILL: f64 = 0.7;
/// Telemetry cadence: one poll every 10 simulated seconds.
const POLL_NS: u64 = 10_000_000_000;

fn config(seed: u64) -> SsdConfig {
    SsdConfig::scaled_paper(SchemeKind::Aero)
        .with_erase_suspension(true)
        .with_seed(mix(seed, 1))
}

/// 50% reads of 16 KiB mean size, 80/20 hot/cold over 60% of the logical
/// space, open-loop Poisson arrivals 50 µs apart on average — the fastest
/// gap at which the drive keeps up (at 20–30 µs the makespan outruns the
/// arrival span).
fn workload(logical_bytes: u64) -> SyntheticWorkload {
    SyntheticWorkload {
        read_ratio: 0.5,
        mean_request_bytes: 16.0 * 1024.0,
        mean_inter_arrival_ns: 50_000.0,
        footprint_bytes: (logical_bytes as f64 * 0.6) as u64,
        hot_access_fraction: 0.8,
        hot_region_fraction: 0.2,
    }
}

/// Set-up alone, for extra set-up samples.
pub fn setup_only(seed: u64) -> SetupTimes {
    build_drive(config(seed), PEC, FILL, None).1
}

/// How a batch is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `IterSource` stream, no tracing, no observer: what the end-to-end
    /// metrics time.
    Plain,
    /// Spans around set-up, windows, pulls and polls.
    Traced,
    /// A counting observer attached; untimed verification.
    Observed,
}

/// One batch's results plus the windowed replay's by-products.
pub struct StreamOut {
    /// Batch totals.
    pub batch: Batch,
    /// Per-step set-up times.
    pub setup: SetupTimes,
    /// Window/poll by-products.
    pub windows: Windows,
    /// Observer counts ([`Pass::Observed`] only).
    pub observed: Option<CountingObserver>,
}

/// Runs one batch: set-up, then [`REQUESTS`] streamed requests in 10 s
/// simulated windows with a telemetry poll after each.
pub fn batch(seed: u64, pass: Pass, mut tracer: Option<&mut Tracer>) -> StreamOut {
    let start = now_ns();
    let config = config(seed);
    let synth = workload(config.logical_capacity_bytes());
    let stream_seed = mix(seed, 2);
    let (mut ssd, setup) = build_drive(config, PEC, FILL, tracer.as_deref_mut());
    let filled = ssd.user_pages_written();
    let replay_start = now_ns();
    let pulls = PullStats::default();
    let mut observer = CountingObserver::default();
    let (report, windows) = match pass {
        Pass::Traced => replay_windows(
            ssd.session(BurstSource::new(
                synth.stream(stream_seed),
                REQUESTS,
                &pulls,
            )),
            POLL_NS,
            tracer,
            Some(&pulls),
        ),
        Pass::Plain | Pass::Observed => {
            let mut sim = ssd.session(IterSource::new(
                synth.stream(stream_seed).take(REQUESTS as usize),
            ));
            if pass == Pass::Observed {
                sim.add_observer(&mut observer);
            }
            replay_windows(sim, POLL_NS, None, None)
        }
    };
    let end = now_ns();
    let completed = report.reads_completed + report.writes_completed;
    assert_eq!(completed, REQUESTS, "every streamed request must complete");
    assert!(!report.health.read_only, "the drive must stay writable");
    let mut h = DefaultHasher::new();
    hash_report(&report, &mut h);
    windows.poll_digest.hash(&mut h);
    let mut counters = report_counters(&report, ssd.user_pages_written() - filled);
    counters.insert("events", windows.events);
    counters.insert("polls", windows.polls);
    counters.insert("pages_filled", filled);
    StreamOut {
        batch: Batch {
            ops: REQUESTS,
            setup_ns: setup.total_ns(),
            replay_ns: end - replay_start,
            wall_ns: end - start,
            digest: h.finish(),
            counters,
            ..Batch::default()
        },
        setup,
        windows,
        observed: (pass == Pass::Observed).then_some(observer),
    }
}
