//! Executes deterministic fuzz scenarios under the state auditor.
//!
//! [`run_scenario`] takes a seeded [`FuzzScenario`] (see
//! [`aero_workloads::fuzz`]), builds the described drive, preconditions it,
//! captures a [`crate::ShadowFtl`] oracle, and drives every session plan
//! with an attached [`crate::Auditor`] — checkpointing the full invariant
//! set on the scenario's cadence, replaying mid-run snapshot windows when
//! the plan asks for them, and sanity-checking every derived report metric
//! for NaN/infinity. Scenarios that carry a
//! [`aero_workloads::fuzz::CrashPlan`] additionally exercise the
//! crash-recovery path: one session is cut short by a power loss
//! ([`crate::Simulation::crash_at`]), the drive is snapshotted, a torn copy
//! of the snapshot must be rejected with a typed error, and the run then
//! continues on a drive restored from the pristine copy — which must still
//! agree with the shadow oracle. The run stops at the **first** violation, and
//! [`shrink_to_minimal_prefix`] then binary-searches the smallest request
//! prefix of the same scenario that still fails, so a CI failure arrives
//! pre-minimized:
//!
//! ```text
//! AERO_FUZZ_SEED=1234 cargo test -q --test audit
//! ```
//!
//! Everything here is deterministic: a scenario is a pure function of its
//! seed, the simulator is seeded from the scenario, and prefixes are exact
//! request counts — the same seed fails (or passes) identically on every
//! machine and every thread count.

use std::fmt;

use aero_nand::FaultConfig;
use aero_workloads::fuzz::{CrashPlan, FuzzScenario, MultiTenantPlan};
use aero_workloads::IterSource;

use crate::audit::{Auditor, CorruptionKind, Invariant, Violation, MAX_VIOLATIONS};
use crate::config::SsdConfig;
use crate::host::{HostInterface, TenantConfig};
use crate::latency::LatencyRecorder;
use crate::persist::{apply_torn_write, TornWrite};
use crate::report::RunReport;
use crate::ssd::Ssd;

/// Summary of a clean scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// User requests completed across all sessions.
    pub requests_completed: u64,
    /// Full audit checkpoints performed (cadence + end-of-session +
    /// end-of-scenario).
    pub checkpoints: u64,
    /// Sessions actually opened (a request-limited prefix may skip late
    /// sessions).
    pub sessions_run: usize,
    /// Garbage-collection invocations across the whole scenario.
    pub gc_invocations: u64,
    /// Erase operations across the whole scenario.
    pub erases: u64,
    /// Whether the scenario's power-loss crash/snapshot/restore phase ran
    /// (see [`aero_workloads::fuzz::CrashPlan`]).
    pub crashed: bool,
    /// Whether the scenario ran under an active NAND fault model (see
    /// [`aero_workloads::fuzz::FaultPlan`]).
    pub faulted: bool,
    /// Blocks retired after failed erases, drive-wide, by scenario end.
    pub retired_blocks: u64,
    /// Program-status failures absorbed by frontier remapping.
    pub program_failures: u64,
    /// Reads completed as media errors after exhausting the retry ladder.
    pub media_errors: u64,
    /// Reads that needed at least one retry level or the soft-decode
    /// fallback.
    pub recovered_reads: u64,
    /// User writes completed as rejected because the drive was read-only.
    pub writes_rejected_read_only: u64,
    /// Whether the drive ended the scenario in read-only degradation.
    pub read_only: bool,
    /// Whether the scenario ran a multi-tenant contention phase (see
    /// [`aero_workloads::fuzz::MultiTenantPlan`]).
    pub multi_tenant: bool,
    /// Requests completed through the host interface during the
    /// multi-tenant phase (also included in `requests_completed`).
    pub tenant_requests_completed: u64,
    /// Arrivals shed at full reject-policy submission queues during the
    /// multi-tenant phase (these never reach the drive, so they are *not*
    /// in `requests_completed`).
    pub tenant_rejected: u64,
    /// Arrivals that waited for a queue credit under backpressure during
    /// the multi-tenant phase.
    pub tenant_deferred: u64,
}

/// A scenario run that violated an invariant or diverged from the oracle.
#[derive(Debug, Clone)]
pub struct ScenarioFailure {
    /// The scenario's seed.
    pub seed: u64,
    /// Requests issued to the drive under the active prefix limit when the
    /// failure surfaced.
    pub requests_issued: u64,
    /// The recorded violations, in discovery order (capped).
    pub violations: Vec<Violation>,
}

impl fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario seed {} failed after {} issued requests with {} violation(s):",
            self.seed,
            self.requests_issued,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        write!(
            f,
            "reproduce with: AERO_FUZZ_SEED={} cargo test -q --test audit",
            self.seed
        )
    }
}

impl std::error::Error for ScenarioFailure {}

/// Options for [`run_scenario_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioOptions {
    /// Issue at most this many requests (a *prefix* of the scenario's
    /// request sequence, across session boundaries). `None` = the whole
    /// scenario. This is the knob the shrinker binary-searches.
    pub request_limit: Option<u64>,
    /// Test support: inject the given corruption once this many requests
    /// have completed, to prove end to end that the auditor catches
    /// corruption mid-run and the shrinker localizes it.
    #[doc(hidden)]
    pub corrupt_after: Option<(u64, CorruptionKind)>,
}

/// Runs the full scenario. See [`run_scenario_with`].
pub fn run_scenario(scenario: &FuzzScenario) -> Result<ScenarioOutcome, Box<ScenarioFailure>> {
    run_scenario_with(scenario, ScenarioOptions::default())
}

/// Builds the scenario's drive, preconditions it, and replays every session
/// plan with an attached auditor + shadow oracle. Returns at the first
/// recorded violation (drive invariants, session invariants, oracle
/// divergence, or a non-finite report metric), identifying the failing
/// prefix.
pub fn run_scenario_with(
    scenario: &FuzzScenario,
    options: ScenarioOptions,
) -> Result<ScenarioOutcome, Box<ScenarioFailure>> {
    let mut config = SsdConfig::small_test(scenario.scheme)
        .with_channel_layout(scenario.channels, scenario.chips_per_channel)
        .with_erase_suspension(scenario.erase_suspension)
        .with_seed(scenario.seed);
    if let Some(fault) = &scenario.fault {
        config = config
            .with_faults(FaultConfig {
                program_fail_per_million: fault.program_fail_per_million,
                erase_fail_per_million: fault.erase_fail_per_million,
                grown_bad_per_million: fault.grown_bad_per_million,
                read_fault_per_million: fault.read_fault_per_million,
            })
            .with_spare_blocks(fault.spare_blocks_per_die);
    }
    let mut ssd = Ssd::new(config);
    if scenario.precondition_pec > 0 {
        ssd.precondition_wear(scenario.precondition_pec);
    }
    // A fault plan imposes a minimum pre-fill: erase faults need GC
    // pressure to fire at all (see `FaultPlan::min_fill_percent`).
    let fill_fraction = match &scenario.fault {
        Some(fault) => scenario
            .fill_fraction
            .max(fault.min_fill_percent as f64 / 100.0),
        None => scenario.fill_fraction,
    };
    if fill_fraction > 0.0 {
        ssd.fill_fraction(fill_fraction);
    }

    let mut auditor = Auditor::new()
        .check_every(scenario.audit_every_events)
        .with_oracle(&ssd);
    let mut budget = options.request_limit.unwrap_or(u64::MAX);
    let mut corruption = options.corrupt_after;
    let mut issued = 0u64;
    let mut completed_before = 0u64;
    let mut sessions_run = 0usize;
    let mut crashed = false;

    for (session_index, plan) in scenario.sessions.iter().enumerate() {
        if budget == 0 {
            break;
        }
        let take = plan.total_requests().min(budget);
        budget -= take;
        issued += take;
        sessions_run += 1;
        let crash_plan = scenario
            .crash
            .as_ref()
            .filter(|c| c.session == session_index);

        let mut sanity = Vec::new();
        let session_completed;
        {
            let source = IterSource::new(plan.stream().take(take as usize));
            let mut sim = ssd.session(source);
            sim.attach_auditor(&mut auditor);
            if let Some(crash) = crash_plan {
                // Power-loss phase: run a bounded number of events under the
                // auditor, then cut power. The snapshot/restore cycle runs
                // below, once the session borrow ends.
                let mut processed = 0u64;
                while processed < crash.events {
                    if let Some((after, kind)) = corruption {
                        if completed_before + sim.completed_requests() >= after {
                            sim.debug_corrupt(kind);
                            corruption = None;
                        }
                    }
                    if sim.audit_failed() || !sim.step() {
                        break;
                    }
                    processed += 1;
                }
                sim.power_cut();
            } else {
                loop {
                    if let Some((after, kind)) = corruption {
                        if completed_before + sim.completed_requests() >= after {
                            sim.debug_corrupt(kind);
                            corruption = None;
                        }
                    }
                    if sim.audit_failed() {
                        break;
                    }
                    match plan.snapshot_every_ns {
                        Some(window) => {
                            if sim.is_finished() {
                                break;
                            }
                            let target = sim.now().saturating_add(window);
                            sim.run_until(target);
                            check_report_sanity(&sim.snapshot(), "mid-run snapshot", &mut sanity);
                            if !sanity.is_empty() {
                                break;
                            }
                        }
                        None => {
                            if !sim.step() {
                                break;
                            }
                        }
                    }
                }
            }
            // Every session's final report gets the NaN sanity pass, not
            // just the snapshot-windowed ones.
            check_report_sanity(&sim.snapshot(), "end-of-session report", &mut sanity);
            // End-of-session audit: drive + session + oracle in one pass —
            // but only when the attached auditor found nothing yet, since a
            // cadence checkpoint that already recorded violations would be
            // re-collected verbatim here and double-count every finding.
            if !sim.audit_failed() {
                let end_audit = sim.audit();
                sanity.extend(end_audit.violations);
            }
            session_completed = sim.completed_requests();
        }
        completed_before += session_completed;
        absorb(&mut auditor, sanity);
        if !auditor.is_clean() {
            return Err(failure(scenario, issued, &auditor));
        }
        if let Some(crash) = crash_plan {
            // Snapshot the powered-down drive, prove a torn copy is
            // rejected, then restore the pristine copy and continue the
            // remaining sessions on the restored drive.
            crashed = true;
            let mut persist_violations = Vec::new();
            run_crash_recovery(&mut ssd, crash, &mut persist_violations);
            absorb(&mut auditor, persist_violations);
            // The restored drive must agree with the shadow oracle: queued
            // requests dropped by the cut never dispatched, so the oracle
            // never saw them either.
            auditor.checkpoint(&ssd);
            if !auditor.is_clean() {
                return Err(failure(scenario, issued, &auditor));
            }
        } else if session_completed != take {
            let violation = Violation::new(
                Invariant::InFlight,
                format!("session {sessions_run}: {session_completed} of {take} requests completed"),
            );
            absorb(&mut auditor, vec![violation]);
            return Err(failure(scenario, issued, &auditor));
        }
    }

    // Multi-tenant contention phase: whatever request budget remains is
    // spent through a host interface on the same aged, exercised drive,
    // with the auditor/oracle still attached — arbitration and queueing
    // must not perturb any FTL invariant.
    let mut multi_tenant = false;
    let mut tenant_requests_completed = 0u64;
    let mut tenant_rejected = 0u64;
    let mut tenant_deferred = 0u64;
    if let Some(plan) = &scenario.tenants {
        if budget > 0 {
            let mut host =
                HostInterface::new(plan.arbiter).with_device_slots(plan.device_slots as usize);
            let mut expected = Vec::new();
            for (index, tenant) in plan.tenants.iter().enumerate() {
                let take = tenant.requests.min(budget);
                if take == 0 {
                    break;
                }
                budget -= take;
                issued += take;
                expected.push(take);
                let config = TenantConfig::new(&format!("tenant{index}"))
                    .with_weight(tenant.weight)
                    .with_queue_depth(tenant.queue_depth as usize)
                    .with_deadline_ns(tenant.deadline_ns)
                    .with_on_full(tenant.on_full);
                host.add_tenant(
                    config,
                    IterSource::new(tenant.workload.stream(tenant.seed).take(take as usize)),
                );
            }
            if host.tenant_count() > 0 {
                multi_tenant = true;
                // Test-support corruption whose completion threshold was
                // already crossed by the session phases lands before the
                // contended run, so the attached auditor catches it mid-run.
                if let Some((after, kind)) = corruption {
                    if completed_before >= after {
                        ssd.debug_corrupt(kind);
                        corruption = None;
                    }
                }
                let report = host.run_with(&mut ssd, Some(&mut auditor));
                let mut sanity = Vec::new();
                check_report_sanity(&report, "multi-tenant report", &mut sanity);
                check_tenant_sanity(&report, &expected, plan, &mut sanity);
                absorb(&mut auditor, sanity);
                if !auditor.is_clean() {
                    return Err(failure(scenario, issued, &auditor));
                }
                for slice in &report.tenants {
                    tenant_requests_completed += slice.completed();
                    tenant_rejected += slice.rejected;
                    tenant_deferred += slice.deferred;
                }
                completed_before += tenant_requests_completed;
                // A threshold crossed *inside* the contended run injects
                // here; the final checkpoint below then reports it. (No
                // need to clear `corruption` — the run ends after this.)
                if let Some((after, kind)) = corruption {
                    if completed_before >= after {
                        ssd.debug_corrupt(kind);
                    }
                }
            }
        }
    }

    // Final whole-scenario checkpoint on the quiesced drive.
    auditor.checkpoint(&ssd);
    if !auditor.is_clean() {
        return Err(failure(scenario, issued, &auditor));
    }
    Ok(ScenarioOutcome {
        requests_completed: completed_before,
        checkpoints: auditor.checkpoints(),
        sessions_run,
        gc_invocations: ssd.counters.gc_invocations,
        erases: ssd.erase_stats().operations,
        crashed,
        faulted: scenario.fault.is_some(),
        retired_blocks: ssd.retired_blocks(),
        program_failures: ssd.counters.program_failures,
        media_errors: ssd.counters.media_errors,
        recovered_reads: ssd.counters.read_retry_histogram[1..].iter().sum(),
        writes_rejected_read_only: ssd.counters.writes_rejected,
        read_only: ssd.read_only(),
        multi_tenant,
        tenant_requests_completed,
        tenant_rejected,
        tenant_deferred,
    })
}

/// Multi-tenant accounting invariants: every tenant arrival is accounted
/// for (completed + rejected = issued), submissions all complete, the
/// host's configured bounds (queue depth, device slots) were respected,
/// and the per-tenant metrics are finite.
fn check_tenant_sanity(
    report: &RunReport,
    expected: &[u64],
    plan: &MultiTenantPlan,
    out: &mut Vec<Violation>,
) {
    if report.tenants.len() != expected.len() {
        out.push(Violation::new(
            Invariant::ReportSanity,
            format!(
                "multi-tenant report has {} slices for {} tenants",
                report.tenants.len(),
                expected.len()
            ),
        ));
        return;
    }
    for (index, (slice, &take)) in report.tenants.iter().zip(expected).enumerate() {
        if slice.completed() + slice.rejected != take {
            out.push(Violation::new(
                Invariant::InFlight,
                format!(
                    "tenant {index}: {} completed + {} rejected of {take} issued",
                    slice.completed(),
                    slice.rejected
                ),
            ));
        }
        if slice.submitted != slice.completed() {
            out.push(Violation::new(
                Invariant::InFlight,
                format!(
                    "tenant {index}: {} submitted but {} completed",
                    slice.submitted,
                    slice.completed()
                ),
            ));
        }
        if slice.latency.len() as u64 != slice.completed()
            || slice.queue_delay.len() as u64 != slice.completed()
        {
            out.push(Violation::new(
                Invariant::ReportSanity,
                format!(
                    "tenant {index}: {} latency / {} queue-delay samples for {} completions",
                    slice.latency.len(),
                    slice.queue_delay.len(),
                    slice.completed()
                ),
            ));
        }
        if let Some(tenant) = plan.tenants.get(index) {
            if slice.queue_depth_high_water > tenant.queue_depth as u64 {
                out.push(Violation::new(
                    Invariant::InFlight,
                    format!(
                        "tenant {index}: queue high-water {} exceeds depth {}",
                        slice.queue_depth_high_water, tenant.queue_depth
                    ),
                ));
            }
        }
        if slice.outstanding_high_water > plan.device_slots as u64 {
            out.push(Violation::new(
                Invariant::InFlight,
                format!(
                    "tenant {index}: outstanding high-water {} exceeds {} device slots",
                    slice.outstanding_high_water, plan.device_slots
                ),
            ));
        }
        for (name, value) in [
            ("mean_latency_us", slice.mean_latency_us()),
            ("mean_queue_delay_us", slice.mean_queue_delay_us()),
        ] {
            if !value.is_finite() {
                out.push(Violation::new(
                    Invariant::ReportSanity,
                    format!("tenant {index}: {name} is {value}"),
                ));
            }
        }
    }
}

/// The crash plan's snapshot/torn-write/restore cycle, run on the
/// powered-down drive. Any broken persistence contract — a torn copy that
/// restores, a pristine copy that doesn't — is reported as an
/// [`Invariant::Persistence`] violation. On success `ssd` is replaced by
/// the freshly restored drive, exactly as a power-on would rebuild it.
fn run_crash_recovery(ssd: &mut Ssd, crash: &CrashPlan, out: &mut Vec<Violation>) {
    let bytes = ssd.snapshot_bytes();
    let mut torn = bytes.clone();
    let at = (torn.len() as f64 * crash.tear_point) as usize;
    let fault = if crash.truncate {
        TornWrite::Truncate(at)
    } else {
        TornWrite::FlipBit(at * 8 + 3)
    };
    apply_torn_write(&mut torn, fault);
    if Ssd::restore_snapshot_bytes(&torn, ssd.config()).is_ok() {
        out.push(Violation::new(
            Invariant::Persistence,
            format!(
                "torn snapshot ({fault:?}, {} bytes) restored without error",
                torn.len()
            ),
        ));
    }
    match Ssd::restore_snapshot_bytes(&bytes, ssd.config()) {
        Ok(restored) => *ssd = restored,
        Err(e) => out.push(Violation::new(
            Invariant::Persistence,
            format!("pristine snapshot failed to restore: {e}"),
        )),
    }
}

/// A failure minimized by [`shrink_to_minimal_prefix`].
#[derive(Debug, Clone)]
pub struct ShrunkFailure {
    /// The smallest request-prefix length that still fails.
    pub minimal_requests: u64,
    /// The failure observed at that minimal prefix.
    pub failure: Box<ScenarioFailure>,
}

/// Shrinks a failing scenario to a minimal request prefix by binary search
/// (every probe is a full deterministic re-run). Returns `None` if the
/// scenario does not fail at the given options. Assumes prefix-monotone
/// failures — true for state corruption, which only ever accumulates; a
/// non-monotone failure still shrinks to *a* failing prefix, just not
/// necessarily the smallest.
pub fn shrink_to_minimal_prefix(
    scenario: &FuzzScenario,
    options: ScenarioOptions,
) -> Option<ShrunkFailure> {
    let total = options
        .request_limit
        .unwrap_or_else(|| scenario.total_requests());
    let probe = |limit: u64| {
        run_scenario_with(
            scenario,
            ScenarioOptions {
                request_limit: Some(limit),
                ..options
            },
        )
        .err()
    };
    let full_failure = probe(total)?;
    if let Some(zero_failure) = probe(0) {
        // Fails before any request is issued (preconditioning-time
        // corruption): the empty prefix is the minimal reproduction.
        return Some(ShrunkFailure {
            minimal_requests: 0,
            failure: zero_failure,
        });
    }
    // Invariant: `lo` passes, `hi` fails.
    let (mut lo, mut hi) = (0u64, total);
    let mut best = full_failure;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match probe(mid) {
            Some(f) => {
                best = f;
                hi = mid;
            }
            None => lo = mid,
        }
    }
    Some(ShrunkFailure {
        minimal_requests: hi,
        failure: best,
    })
}

/// Pushes externally collected violations into the auditor, respecting the
/// global cap.
fn absorb(auditor: &mut Auditor, violations: Vec<Violation>) {
    for v in violations {
        if auditor.violations.len() >= MAX_VIOLATIONS {
            break;
        }
        auditor.violations.push(v);
    }
}

fn failure(scenario: &FuzzScenario, issued: u64, auditor: &Auditor) -> Box<ScenarioFailure> {
    Box::new(ScenarioFailure {
        seed: scenario.seed,
        requests_issued: issued,
        violations: auditor.violations().to_vec(),
    })
}

/// Checks that every derived metric of a report is finite and in range —
/// the zero-duration guard contract (a snapshot at `t == 0` must yield
/// zeros, never NaN) — that the drive-wide recorders hold one sample per
/// completed request, and that every recorder's statistics are ordered.
fn check_report_sanity(report: &RunReport, context: &str, out: &mut Vec<Violation>) {
    let drive_wide = [
        ("read", &report.read_latency, report.reads_completed),
        ("write", &report.write_latency, report.writes_completed),
    ];
    for (kind, recorder, completed) in drive_wide {
        if recorder.len() as u64 != completed {
            out.push(Violation::new(
                Invariant::ReportSanity,
                format!(
                    "{context}: {} {kind}-latency samples for {completed} completions",
                    recorder.len()
                ),
            ));
        }
        check_recorder_sanity(recorder, &format!("{context}: {kind} latency"), out);
    }
    for (index, slice) in report.tenants.iter().enumerate() {
        check_recorder_sanity(
            &slice.latency,
            &format!("{context}: tenant {index} latency"),
            out,
        );
        check_recorder_sanity(
            &slice.queue_delay,
            &format!("{context}: tenant {index} queue delay"),
            out,
        );
    }
    let checks = [
        ("iops", report.iops()),
        ("mean_read_latency_us", report.mean_read_latency_us()),
        ("mean_write_latency_us", report.mean_write_latency_us()),
        ("write_amplification", report.write_amplification()),
        (
            "mean_channel_utilization",
            report.mean_channel_utilization(),
        ),
    ];
    for (name, value) in checks {
        if !value.is_finite() {
            out.push(Violation::new(
                Invariant::ReportSanity,
                format!("{context}: {name} is {value}"),
            ));
        }
    }
    for (channel, utilization) in report.channel_utilization().iter().enumerate() {
        if !utilization.is_finite() || *utilization < 0.0 {
            out.push(Violation::new(
                Invariant::ReportSanity,
                format!("{context}: channel {channel} utilization is {utilization}"),
            ));
        }
    }
}

/// Checks one recorder's statistics against each other: the percentile
/// ladder never decreases, its p100 is the maximum, and the mean is not
/// above the maximum.
fn check_recorder_sanity(recorder: &LatencyRecorder, context: &str, out: &mut Vec<Violation>) {
    const LADDER: [f64; 8] = [10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 99.9999, 100.0];
    let ladder = LADDER.map(|p| recorder.percentile(p));
    if ladder.windows(2).any(|pair| pair[0] > pair[1]) {
        out.push(Violation::new(
            Invariant::ReportSanity,
            format!("{context}: percentile ladder {ladder:?} decreases"),
        ));
    }
    if ladder[7] != recorder.max() {
        out.push(Violation::new(
            Invariant::ReportSanity,
            format!(
                "{context}: p100 {} is not the maximum {}",
                ladder[7],
                recorder.max()
            ),
        ));
    }
    if recorder.mean() > recorder.max() as f64 {
        out.push(Violation::new(
            Invariant::ReportSanity,
            format!(
                "{context}: mean {} exceeds the maximum {}",
                recorder.mean(),
                recorder.max()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_workloads::fuzz::scenario;

    #[test]
    fn a_scenario_runs_clean_and_reports_work() {
        let sc = scenario(3);
        let outcome = run_scenario(&sc).unwrap_or_else(|f| panic!("{f}"));
        // Reject-policy tenants may legitimately shed arrivals; everything
        // else must complete.
        assert_eq!(
            outcome.requests_completed + outcome.tenant_rejected,
            sc.total_requests()
        );
        assert_eq!(outcome.sessions_run, sc.sessions.len());
        assert!(outcome.checkpoints > 0, "checkpoints must fire");
        assert_eq!(outcome.multi_tenant, sc.tenants.is_some());
    }

    /// A seed with a multi-tenant plan runs the contention phase under the
    /// auditor/oracle, attributes every tenant request, and accounts for
    /// rejected arrivals exactly.
    #[test]
    fn multi_tenant_scenarios_run_under_the_auditor() {
        let sc = (0..64u64)
            .map(scenario)
            .find(|s| s.tenants.is_some())
            .expect("some seed draws a multi-tenant plan");
        let plan_total = sc.tenants.as_ref().map(MultiTenantPlan::total_requests);
        let outcome = run_scenario(&sc).unwrap_or_else(|f| panic!("{f}"));
        assert!(outcome.multi_tenant);
        assert!(outcome.tenant_requests_completed > 0);
        assert_eq!(
            Some(outcome.tenant_requests_completed + outcome.tenant_rejected),
            plan_total,
            "every tenant arrival is completed or rejected"
        );
        assert_eq!(
            outcome.requests_completed + outcome.tenant_rejected,
            sc.total_requests()
        );
    }

    #[test]
    fn prefix_limits_bound_the_run() {
        let sc = scenario(3);
        let outcome = run_scenario_with(
            &sc,
            ScenarioOptions {
                request_limit: Some(25),
                ..ScenarioOptions::default()
            },
        )
        .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(outcome.requests_completed, 25);
        assert_eq!(outcome.sessions_run, 1);
    }

    #[test]
    fn injected_corruption_fails_the_run_and_shrinks() {
        let sc = scenario(3);
        let total = sc.total_requests();
        assert!(total > 60);
        let options = ScenarioOptions {
            request_limit: None,
            corrupt_after: Some((60, CorruptionKind::InflateValidCount)),
        };
        let failure = run_scenario_with(&sc, options).expect_err("corruption must be caught");
        assert!(
            failure
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::ValidCount),
            "{failure}"
        );
        assert!(failure.to_string().contains("AERO_FUZZ_SEED"));

        let shrunk = shrink_to_minimal_prefix(&sc, options).expect("the full run fails");
        assert!(
            shrunk.minimal_requests >= 60,
            "corruption fires at request 60, so shorter prefixes pass \
             (got {})",
            shrunk.minimal_requests
        );
        assert!(
            shrunk.minimal_requests <= total,
            "a prefix cannot exceed the scenario"
        );
        assert!(shrunk
            .failure
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::ValidCount));
    }

    #[test]
    fn shrink_returns_none_for_a_clean_scenario() {
        let sc = scenario(5);
        assert!(shrink_to_minimal_prefix(&sc, ScenarioOptions::default()).is_none());
    }

    /// Crash-plan scenarios run the full power-cut → snapshot → torn-copy
    /// rejection → restore cycle and still audit clean, in both torn-write
    /// flavors (seed 1 flips a bit, seed 2 truncates).
    #[test]
    fn crash_scenarios_recover_and_audit_clean() {
        for seed in [1u64, 2] {
            let sc = scenario(seed);
            let crash = sc.crash.as_ref().expect("seeds 1 and 2 draw crash plans");
            assert!(crash.session < sc.sessions.len());
            let outcome = run_scenario(&sc).unwrap_or_else(|f| panic!("{f}"));
            assert!(outcome.crashed, "seed {seed} must exercise the crash phase");
            // The cut drops queued requests, so strictly fewer complete.
            assert!(outcome.requests_completed < sc.total_requests());
        }
        let plain = scenario(3);
        assert!(plain.crash.is_none(), "seed 3 is the no-crash control");
        let outcome = run_scenario(&plain).unwrap_or_else(|f| panic!("{f}"));
        assert!(!outcome.crashed);
    }

    /// Fault-plan scenarios run the whole chip → FTL → completion fault
    /// path under the auditor and oracle: some seed must actually retire a
    /// block (proving every erase failure rescued its live pages — the
    /// oracle's data-loss check covers exactly that), and every faulted
    /// seed must finish with zero violations.
    #[test]
    fn faulted_scenarios_retire_blocks_and_audit_clean() {
        let mut faulted_runs = 0usize;
        let mut retired_total = 0u64;
        for seed in 0..48u64 {
            let sc = scenario(seed);
            if sc.fault.is_none() {
                continue;
            }
            faulted_runs += 1;
            let outcome = run_scenario(&sc).unwrap_or_else(|f| panic!("{f}"));
            assert!(outcome.faulted);
            retired_total += outcome.retired_blocks;
            if faulted_runs >= 6 {
                break;
            }
        }
        assert!(faulted_runs >= 3, "too few faulted seeds in 0..48");
        assert!(
            retired_total > 0,
            "no faulted seed retired a single block — the erase-fail rates are toothless"
        );
    }

    /// The crash × fault product: a power cut on a drive with an active
    /// fault model (possibly mid-retirement) must still snapshot, reject
    /// its torn copy, restore, and agree with the oracle.
    #[test]
    fn crash_during_faulted_scenario_recovers_clean() {
        let sc = (0..256u64)
            .map(scenario)
            .find(|s| s.fault.is_some() && s.crash.is_some())
            .expect("some seed draws both a crash and a fault plan");
        let outcome = run_scenario(&sc).unwrap_or_else(|f| panic!("{f}"));
        assert!(outcome.crashed && outcome.faulted);
    }
}
