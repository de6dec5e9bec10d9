//! Deterministic scenario generation for the simulator fuzzer.
//!
//! A [`FuzzScenario`] is a complete, seeded description of one randomized
//! simulator run: the erase scheme, suspension flag, channel layout, wear
//! and fill preconditioning, the auditor's checkpoint cadence, and one or
//! more back-to-back [`SessionPlan`]s whose [`PhasePlan`]s mix read/write
//! ratios, request sizes, arrival burstiness, hot/cold skew, and footprints
//! (including footprints larger than the drive's logical space, which
//! exercises the FTL's out-of-range write path).
//!
//! Generation is **pure**: [`scenario`]`(seed)` derives everything from a
//! ChaCha stream seeded by `seed`, so the same seed always produces the
//! same scenario byte for byte, on every machine — a failing seed printed
//! by CI reproduces locally with no corpus files. The scenarios are
//! *descriptions* only; the driver that builds a drive and runs them under
//! the state auditor lives in `aero_ssd::scenario`.
//!
//! ```
//! use aero_workloads::fuzz::scenario;
//!
//! let a = scenario(42);
//! let b = scenario(42);
//! assert_eq!(a, b);
//! assert_eq!(format!("{a:?}"), format!("{b:?}"));
//! ```

use aero_core::SchemeKind;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::request::IoRequest;
use crate::source::WorkloadSource;
use crate::synth::{SyntheticStream, SyntheticWorkload};
use crate::tenant::{ArbiterKind, QueueFullPolicy};

/// Channel layouts the fuzzer rotates through (channels × chips per
/// channel): private buses, one fully shared bus, and mixed layouts, at
/// 2–4 dies so debug-build runs stay fast.
pub const LAYOUTS: [(u32, u32); 4] = [(2, 1), (1, 2), (2, 2), (4, 1)];

/// Preconditioning wear levels the fuzzer samples (0 = fresh drive; the
/// rest match the paper's evaluation points, with 4500 close to end of
/// life where erases start exhausting the loop budget).
pub const WEAR_LEVELS: [u32; 5] = [0, 0, 500, 2500, 4500];

/// One workload phase within a session: a synthetic workload configuration
/// plus how many of its requests to issue.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// The workload configuration driving this phase.
    pub workload: SyntheticWorkload,
    /// Number of requests the phase contributes.
    pub requests: u64,
    /// Seed of the phase's request stream.
    pub seed: u64,
}

/// One simulation session: an ordered sequence of phases replayed
/// back-to-back on a continuing timeline (a low-inter-arrival phase after
/// a calm one is a burst), plus an optional mid-run snapshot cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// The phases, in issue order.
    pub phases: Vec<PhasePlan>,
    /// When `Some`, the driver advances the run in windows of this many
    /// simulated nanoseconds and takes a [`snapshot`] per window instead of
    /// draining the session in one call.
    ///
    /// [`snapshot`]: https://docs.rs/aero-ssd (Simulation::snapshot)
    pub snapshot_every_ns: Option<u64>,
}

impl SessionPlan {
    /// Total requests across all phases.
    pub fn total_requests(&self) -> u64 {
        self.phases.iter().map(|p| p.requests).sum()
    }

    /// A lazy request stream over the session's phases. Each phase's
    /// synthetic clock starts at zero; the stream offsets it by the
    /// previous phase's final arrival time, so arrivals are non-decreasing
    /// across the whole session (the [`WorkloadSource`] contract holds by
    /// construction).
    pub fn stream(&self) -> SessionStream {
        SessionStream {
            phases: self.phases.clone().into_iter(),
            current: None,
            offset_ns: 0,
            last_arrival_ns: 0,
        }
    }
}

/// A power-loss fault the driver injects into one session: run the session
/// for a bounded number of events, cut power, snapshot the drive, verify a
/// torn copy of the snapshot is rejected, restore the good copy, and
/// continue the remaining sessions on the restored drive.
///
/// Like the rest of the scenario this is a pure *description*; the
/// execution (crash, snapshot, torn-write corruption, restore, audit)
/// lives in `aero_ssd::scenario`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPlan {
    /// Index of the session the power cut interrupts.
    pub session: usize,
    /// Number of simulation events to process before cutting power.
    pub events: u64,
    /// Where to damage the torn snapshot copy, as a fraction of its length
    /// (0.0 = first byte, 1.0 = last).
    pub tear_point: f64,
    /// `true`: truncate the copy at the tear point (lost tail);
    /// `false`: flip one bit there (damaged sector).
    pub truncate: bool,
}

/// A NAND fault-injection plan for one scenario: the per-million rates the
/// drive's seeded fault model runs at, and how many spare blocks per die it
/// may retire before degrading to read-only mode.
///
/// Like [`CrashPlan`] this is a pure description; `aero_ssd::scenario`
/// applies it to the drive configuration and verifies the fault path
/// (retirement, page rescue, media-error completions, read-only
/// transitions) under the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Program-status failure rate, per million page programs.
    pub program_fail_per_million: u32,
    /// Erase-status failure base rate, per million erases (scaled up by
    /// wear and shallow-erase depth in the fault model).
    pub erase_fail_per_million: u32,
    /// Grown-bad-block rate, per million page programs.
    pub grown_bad_per_million: u32,
    /// Uncorrectable-read error-spike rate, per million user reads.
    pub read_fault_per_million: u32,
    /// Spare blocks per die the drive can retire before going read-only.
    pub spare_blocks_per_die: u32,
    /// Minimum pre-fill percentage of the logical space (the driver takes
    /// the max of this and the scenario's own fill fraction). Erase
    /// failures only fire during erases, and erases only happen under GC
    /// pressure — a mostly-empty drive would make every erase-fault rate
    /// toothless.
    pub min_fill_percent: u32,
}

/// One tenant of a multi-tenant plan: its host-interface queue knobs plus
/// the synthetic workload feeding its submission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPlan {
    /// Weighted-share arbitration weight (≥ 1).
    pub weight: u32,
    /// Submission-queue depth limit.
    pub queue_depth: u32,
    /// What the queue does with arrivals once it is full.
    pub on_full: QueueFullPolicy,
    /// Deadline offset for earliest-deadline arbitration, in nanoseconds
    /// past each request's arrival.
    pub deadline_ns: u64,
    /// The workload feeding this tenant's queue.
    pub workload: SyntheticWorkload,
    /// Number of requests the tenant issues.
    pub requests: u64,
    /// Seed of the tenant's request stream.
    pub seed: u64,
}

/// A multi-tenant contention phase run after a scenario's sessions: several
/// tenants push their own workloads through a host interface onto the same
/// (already aged and exercised) drive, under one arbitration policy.
///
/// Like the session plans this is a pure description; `aero_ssd::scenario`
/// builds the `HostInterface` and runs it under the auditor/oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantPlan {
    /// The arbitration policy merging the tenant queues.
    pub arbiter: ArbiterKind,
    /// Total requests the device accepts in flight across all tenants.
    pub device_slots: u32,
    /// The tenants, in registration order.
    pub tenants: Vec<TenantPlan>,
}

impl MultiTenantPlan {
    /// Total requests across all tenants.
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.requests).sum()
    }
}

/// A complete seeded fuzz scenario: drive knobs plus back-to-back session
/// plans. Produced by [`scenario`]; executed by `aero_ssd::scenario`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzScenario {
    /// The seed the scenario was derived from (also used as the drive
    /// seed).
    pub seed: u64,
    /// Erase scheme under test.
    pub scheme: SchemeKind,
    /// Whether loop-granular erase suspension is enabled.
    pub erase_suspension: bool,
    /// Number of channels.
    pub channels: u32,
    /// Chips per channel.
    pub chips_per_channel: u32,
    /// Pre-aging level in P/E cycles (0 = fresh).
    pub precondition_pec: u32,
    /// Fraction of the logical space sequentially filled before the first
    /// session.
    pub fill_fraction: f64,
    /// Auditor checkpoint cadence, in processed simulation events.
    pub audit_every_events: u64,
    /// The sessions, run back-to-back on one drive.
    pub sessions: Vec<SessionPlan>,
    /// When `Some`, one session is interrupted by a power cut followed by a
    /// snapshot/torn-write/restore cycle.
    pub crash: Option<CrashPlan>,
    /// When `Some`, the drive runs under an active NAND fault model for the
    /// whole scenario.
    pub fault: Option<FaultPlan>,
    /// When `Some`, a multi-tenant contention phase runs after the sessions:
    /// several tenants push workloads through a host interface onto the
    /// same drive under the plan's arbitration policy.
    pub tenants: Option<MultiTenantPlan>,
}

impl FuzzScenario {
    /// Total requests across all sessions and the multi-tenant phase.
    pub fn total_requests(&self) -> u64 {
        let sessions: u64 = self.sessions.iter().map(SessionPlan::total_requests).sum();
        sessions
            + self
                .tenants
                .as_ref()
                .map_or(0, MultiTenantPlan::total_requests)
    }
}

/// Derives the complete scenario for a seed. Pure and deterministic: the
/// same seed yields the same scenario byte for byte.
pub fn scenario(seed: u64) -> FuzzScenario {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let scheme = SchemeKind::all()[rng.gen_range(0..SchemeKind::all().len())];
    let erase_suspension = rng.gen::<bool>();
    let (channels, chips_per_channel) = LAYOUTS[rng.gen_range(0..LAYOUTS.len())];
    let precondition_pec = WEAR_LEVELS[rng.gen_range(0..WEAR_LEVELS.len())];
    let fill_fraction = rng.gen_range(0.0..0.9);
    let audit_every_events = [64u64, 128, 256, 512][rng.gen_range(0..4usize)];

    let mut budget: u64 = rng.gen_range(300..=1100);
    let session_count = rng.gen_range(1..=3usize);
    let mut sessions = Vec::with_capacity(session_count);
    for _ in 0..session_count {
        if budget == 0 {
            break;
        }
        let phase_count = rng.gen_range(1..=3usize);
        let mut phases = Vec::with_capacity(phase_count);
        for _ in 0..phase_count {
            if budget == 0 {
                break;
            }
            let requests = rng.gen_range(40..=300u64).min(budget);
            budget -= requests;
            phases.push(PhasePlan {
                workload: phase_workload(&mut rng),
                requests,
                seed: rng.gen::<u64>(),
            });
        }
        let snapshot_every_ns = if rng.gen::<f64>() < 0.4 {
            Some(rng.gen_range(5_000_000..=80_000_000))
        } else {
            None
        };
        if !phases.is_empty() {
            sessions.push(SessionPlan {
                phases,
                snapshot_every_ns,
            });
        }
    }
    debug_assert!(!sessions.is_empty(), "the budget guarantees one session");

    // Drawn strictly after every other draw, so scenarios generated by
    // earlier versions of this function are unchanged for the same seed —
    // the regression seed list keeps meaning what it meant.
    let crash = if rng.gen::<f64>() < 0.35 {
        Some(CrashPlan {
            session: rng.gen_range(0..sessions.len()),
            events: rng.gen_range(20..400),
            tear_point: rng.gen_range(0.0..1.0),
            truncate: rng.gen::<bool>(),
        })
    } else {
        None
    };

    // Also drawn after every pre-existing draw (and after the crash draw),
    // for the same reason: earlier seeds keep their scenarios, and a
    // crash-during-retirement seed stays a crash-during-retirement seed.
    let fault = if rng.gen::<f64>() < 1.0 / 3.0 {
        Some(fault_plan(&mut rng))
    } else {
        None
    };

    // The multi-tenant draw comes last, after every pre-existing draw, so
    // the sessions/crash/fault of historical seeds stay byte-identical:
    // contention is purely additive to what a seed already meant.
    let tenants = if rng.gen::<f64>() < 0.35 {
        Some(multi_tenant_plan(&mut rng))
    } else {
        None
    };

    FuzzScenario {
        seed,
        scheme,
        erase_suspension,
        channels,
        chips_per_channel,
        precondition_pec,
        fill_fraction,
        audit_every_events,
        sessions,
        crash,
        fault,
        tenants,
    }
}

/// Draws one multi-tenant plan: 2–4 tenants with independent workloads and
/// queue knobs, merged under a random arbitration policy. Device slots stay
/// small relative to queue depths so arbitration decisions actually matter.
fn multi_tenant_plan(rng: &mut ChaCha12Rng) -> MultiTenantPlan {
    let arbiter = ArbiterKind::all()[rng.gen_range(0..ArbiterKind::all().len())];
    let device_slots = rng.gen_range(2..=16u32);
    let tenant_count = rng.gen_range(2..=4usize);
    let mut tenants = Vec::with_capacity(tenant_count);
    for _ in 0..tenant_count {
        let weight = rng.gen_range(1..=8);
        let queue_depth = rng.gen_range(2..=32);
        let on_full = if rng.gen::<f64>() < 0.25 {
            QueueFullPolicy::Reject
        } else {
            QueueFullPolicy::Backpressure
        };
        let deadline_ns = rng.gen_range(200_000..=20_000_000);
        let workload = phase_workload(rng);
        let requests = rng.gen_range(40..=200u64);
        let seed = rng.gen::<u64>();
        tenants.push(TenantPlan {
            weight,
            queue_depth,
            on_full,
            deadline_ns,
            workload,
            requests,
            seed,
        });
    }
    MultiTenantPlan {
        arbiter,
        device_slots,
        tenants,
    }
}

/// Draws one fault plan. Erase failures are the headline fault (they drive
/// retirement, page rescue, and spare exhaustion), so their rate range is
/// aggressive; the others stay low enough that scenarios still complete
/// their request budgets.
fn fault_plan(rng: &mut ChaCha12Rng) -> FaultPlan {
    FaultPlan {
        program_fail_per_million: rng.gen_range(1_000..50_000),
        erase_fail_per_million: rng.gen_range(50_000..400_000),
        grown_bad_per_million: rng.gen_range(0..20_000),
        read_fault_per_million: rng.gen_range(0..100_000),
        spare_blocks_per_die: rng.gen_range(1..=4),
        min_fill_percent: rng.gen_range(70..=88),
    }
}

/// Derives the scenario for a seed with a fault plan **forced on**: seeds
/// whose scenario already carries one are returned unchanged, and the rest
/// get a plan drawn from an independent RNG stream of the same seed (so
/// the base scenario — sessions, workloads, crash plan — stays byte-
/// identical to [`scenario`]'s). Used by the CI fault-injection smoke,
/// which wants *every* scenario exercising the fault machinery.
pub fn faulted_scenario(seed: u64) -> FuzzScenario {
    let mut sc = scenario(seed);
    if sc.fault.is_none() {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xFA17_0000_0000_FA17);
        sc.fault = Some(fault_plan(&mut rng));
    }
    sc
}

/// Draws one phase's workload knobs. Footprints deliberately include sizes
/// larger than a small test drive's logical space, so some logical pages
/// fall outside the mapping — the FTL's documented out-of-range write path
/// gets fuzzed too.
fn phase_workload(rng: &mut ChaCha12Rng) -> SyntheticWorkload {
    let burst = rng.gen::<f64>() < 0.3;
    let mean_inter_arrival_ns = if burst {
        rng.gen_range(4_000.0..30_000.0)
    } else {
        rng.gen_range(40_000.0..250_000.0)
    };
    let footprint_bytes = [2u64 << 20, 4 << 20, 8 << 20, 64 << 20][rng.gen_range(0..4usize)];
    SyntheticWorkload {
        read_ratio: rng.gen_range(0.0..=1.0),
        mean_request_bytes: rng.gen_range(4096.0..65536.0),
        mean_inter_arrival_ns,
        footprint_bytes,
        hot_access_fraction: rng.gen_range(0.5..0.95),
        hot_region_fraction: rng.gen_range(0.05..0.45),
    }
}

/// Lazy request stream over a [`SessionPlan`]'s phases. Arrivals are
/// non-decreasing across phase boundaries by construction (each phase's
/// clock is offset by the previous phase's final arrival), so the stream
/// satisfies the [`WorkloadSource`] contract directly.
#[derive(Debug)]
pub struct SessionStream {
    phases: std::vec::IntoIter<PhasePlan>,
    /// The active phase's stream and its remaining request count.
    current: Option<(SyntheticStream, u64)>,
    offset_ns: u64,
    last_arrival_ns: u64,
}

impl Iterator for SessionStream {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        loop {
            if let Some((stream, remaining)) = self.current.as_mut() {
                if *remaining > 0 {
                    let mut request = stream.next().expect("synthetic streams are unbounded");
                    *remaining -= 1;
                    let arrival = request
                        .arrival_ns
                        .saturating_add(self.offset_ns)
                        .max(self.last_arrival_ns);
                    request.arrival_ns = arrival;
                    self.last_arrival_ns = arrival;
                    return Some(request);
                }
                // Phase exhausted: the next phase continues the timeline.
                self.offset_ns = self.last_arrival_ns;
                self.current = None;
            }
            let phase = self.phases.next()?;
            self.current = Some((phase.workload.stream(phase.seed), phase.requests));
        }
    }
}

impl WorkloadSource for SessionStream {
    fn next_request(&mut self) -> Option<IoRequest> {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_scenario_byte_for_byte() {
        for seed in [0u64, 1, 7, 42, u64::MAX] {
            let a = scenario(seed);
            let b = scenario(seed);
            assert_eq!(a, b);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_ne!(scenario(1), scenario(2));
    }

    #[test]
    fn scenarios_are_well_formed() {
        for seed in 0..64u64 {
            let sc = scenario(seed);
            assert!(!sc.sessions.is_empty(), "seed {seed}: no sessions");
            assert!(sc.total_requests() >= 40, "seed {seed}: too few requests");
            // Sessions are budgeted at ≤ 1100; a multi-tenant plan adds at
            // most 4 × 200 requests on top.
            assert!(sc.total_requests() <= 1900, "seed {seed}: budget overrun");
            assert!(sc.audit_every_events > 0);
            assert!((0.0..0.9).contains(&sc.fill_fraction));
            for session in &sc.sessions {
                assert!(!session.phases.is_empty());
                for phase in &session.phases {
                    assert!(phase.requests > 0);
                    // Must not panic: every generated workload is valid.
                    phase.workload.validate();
                }
            }
            if let Some(crash) = &sc.crash {
                assert!(crash.session < sc.sessions.len(), "seed {seed}");
                assert!(crash.events > 0, "seed {seed}");
                assert!((0.0..1.0).contains(&crash.tear_point), "seed {seed}");
            }
            if let Some(fault) = &sc.fault {
                assert!(
                    (1_000..50_000).contains(&fault.program_fail_per_million),
                    "seed {seed}"
                );
                assert!(
                    (50_000..400_000).contains(&fault.erase_fail_per_million),
                    "seed {seed}"
                );
                assert!(fault.grown_bad_per_million < 20_000, "seed {seed}");
                assert!(fault.read_fault_per_million < 100_000, "seed {seed}");
                assert!((1..=4).contains(&fault.spare_blocks_per_die), "seed {seed}");
                assert!((70..=88).contains(&fault.min_fill_percent), "seed {seed}");
            }
            if let Some(plan) = &sc.tenants {
                assert!((2..=4).contains(&plan.tenants.len()), "seed {seed}");
                assert!((2..=16).contains(&plan.device_slots), "seed {seed}");
                for tenant in &plan.tenants {
                    assert!((1..=8).contains(&tenant.weight), "seed {seed}");
                    assert!((2..=32).contains(&tenant.queue_depth), "seed {seed}");
                    assert!(
                        (200_000..=20_000_000).contains(&tenant.deadline_ns),
                        "seed {seed}"
                    );
                    assert!((40..=200).contains(&tenant.requests), "seed {seed}");
                    tenant.workload.validate();
                }
            }
        }
    }

    /// Roughly a third of seeds must run under an active fault model, and
    /// the seed space must include the crash × fault product — a power cut
    /// on a drive that has been retiring blocks is the hardest recovery
    /// case the fuzzer covers.
    #[test]
    fn fault_plans_cover_the_seed_space() {
        let scenarios: Vec<FuzzScenario> = (0..96u64).map(scenario).collect();
        let faulted = scenarios.iter().filter(|s| s.fault.is_some()).count();
        assert!(
            (16..=56).contains(&faulted),
            "fault draw skewed: {faulted}/96"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.fault.is_some() && s.crash.is_some()),
            "no seed combines a crash with an active fault model"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.fault.is_some() && s.crash.is_none()),
            "no fault-only seed"
        );
    }

    /// Forcing faults changes nothing but the fault plan: the base
    /// scenario stays byte-identical, already-faulted seeds pass through
    /// untouched, and every seed ends up with a well-formed plan.
    #[test]
    fn forced_fault_scenarios_only_add_the_fault_plan() {
        for seed in 0..96u64 {
            let base = scenario(seed);
            let forced = faulted_scenario(seed);
            assert!(forced.fault.is_some(), "seed {seed} not faulted");
            assert_eq!(forced.sessions, base.sessions, "seed {seed}");
            assert_eq!(forced.crash, base.crash, "seed {seed}");
            assert_eq!(forced.scheme, base.scheme, "seed {seed}");
            assert_eq!(forced.tenants, base.tenants, "seed {seed}");
            if base.fault.is_some() {
                assert_eq!(forced.fault, base.fault, "seed {seed}");
            }
            let fault = forced.fault.unwrap();
            assert!((70..=88).contains(&fault.min_fill_percent), "seed {seed}");
            assert!((1..=4).contains(&fault.spare_blocks_per_die), "seed {seed}");
        }
    }

    /// Roughly a third of seeds must carry a multi-tenant contention
    /// phase, and across the seed space the plans must cover all three
    /// arbitration policies, both queue-full policies, and combine with
    /// faults (contended drives that are also retiring blocks).
    #[test]
    fn multi_tenant_plans_cover_the_seed_space() {
        let scenarios: Vec<FuzzScenario> = (0..128u64).map(scenario).collect();
        let contended: Vec<&MultiTenantPlan> = scenarios
            .iter()
            .filter_map(|s| s.tenants.as_ref())
            .collect();
        assert!(
            (25..=75).contains(&contended.len()),
            "tenant draw skewed: {}/128",
            contended.len()
        );
        let mut arbiters = HashSet::new();
        let mut policies = HashSet::new();
        for plan in &contended {
            arbiters.insert(plan.arbiter.label());
            for tenant in &plan.tenants {
                policies.insert(tenant.on_full == QueueFullPolicy::Reject);
            }
        }
        assert_eq!(arbiters.len(), 3, "arbiter coverage: {arbiters:?}");
        assert_eq!(policies.len(), 2, "queue-full policy coverage");
        assert!(
            scenarios
                .iter()
                .any(|s| s.tenants.is_some() && s.fault.is_some()),
            "no seed combines contention with an active fault model"
        );
    }

    /// The crash phase must actually occur across the seed space, in both
    /// torn-write flavors, without dominating it.
    #[test]
    fn crash_plans_cover_both_torn_write_flavors() {
        let crashes: Vec<CrashPlan> = (0..64u64).filter_map(|s| scenario(s).crash).collect();
        assert!(
            crashes.len() >= 10,
            "crash draws too rare: {}",
            crashes.len()
        );
        assert!(
            crashes.len() <= 40,
            "crash draws too common: {}",
            crashes.len()
        );
        assert!(crashes.iter().any(|c| c.truncate));
        assert!(crashes.iter().any(|c| !c.truncate));
    }

    #[test]
    fn sixty_four_seeds_cover_all_schemes_suspensions_and_layouts() {
        let mut schemes = HashSet::new();
        let mut suspensions = HashSet::new();
        let mut layouts = HashSet::new();
        for seed in 0..64u64 {
            let sc = scenario(seed);
            schemes.insert(sc.scheme.label());
            suspensions.insert(sc.erase_suspension);
            layouts.insert((sc.channels, sc.chips_per_channel));
        }
        assert_eq!(schemes.len(), 5, "all five schemes: {schemes:?}");
        assert_eq!(suspensions.len(), 2);
        assert!(layouts.len() >= 2, "layout coverage: {layouts:?}");
    }

    #[test]
    fn session_stream_is_ordered_and_counts_match() {
        let sc = scenario(11);
        for session in &sc.sessions {
            let mut last = 0;
            let mut count = 0u64;
            for request in session.stream() {
                assert!(request.arrival_ns >= last, "arrivals must not regress");
                last = request.arrival_ns;
                count += 1;
            }
            assert_eq!(count, session.total_requests());
        }
    }

    #[test]
    fn session_stream_is_deterministic() {
        let sc = scenario(23);
        let plan = &sc.sessions[0];
        let a: Vec<IoRequest> = plan.stream().collect();
        let b: Vec<IoRequest> = plan.stream().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn phase_boundaries_continue_the_timeline() {
        // Find a scenario with a multi-phase session and check the second
        // phase starts no earlier than the first ended.
        let sc = (0..64)
            .map(scenario)
            .find(|s| s.sessions.iter().any(|p| p.phases.len() >= 2))
            .expect("some seed has a multi-phase session");
        let plan = sc
            .sessions
            .iter()
            .find(|p| p.phases.len() >= 2)
            .expect("checked above");
        let first_len = plan.phases[0].requests as usize;
        let requests: Vec<IoRequest> = plan.stream().collect();
        let first_end = requests[first_len - 1].arrival_ns;
        assert!(requests[first_len].arrival_ns >= first_end);
    }
}
