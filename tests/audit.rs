//! Model-based differential testing of the SSD simulator: seeded fuzz
//! scenarios driven under the invariant auditor and shadow-FTL oracle.
//!
//! The main test replays ≥ 32 deterministic scenarios (spanning all five
//! erase schemes, suspension on/off, and multiple channel layouts) with
//! full state audits at every checkpoint, and fails on any invariant
//! violation or oracle divergence. To reproduce a failing seed locally:
//!
//! ```text
//! AERO_FUZZ_SEED=<seed> cargo test -q --test audit
//! ```
//!
//! which runs exactly that scenario, shrinks the failure to a minimal
//! request prefix, and prints the violations.

use std::collections::BTreeSet;

use aero_core::SchemeKind;
use aero_exec::par_try_map;
use aero_ssd::audit::{CorruptionKind, Invariant};
use aero_ssd::scenario::{
    run_scenario, run_scenario_with, shrink_to_minimal_prefix, ScenarioOptions,
};
use aero_ssd::{Ssd, SsdConfig};
use aero_workloads::fuzz::{scenario, FuzzScenario};

/// The fixed seed list: 36 scenarios ≥ the 32 the acceptance bar asks for,
/// plus seed 114 — the seed whose orphan-page GC exposed stale reverse-map
/// entries after erases, kept as a permanent regression anchor.
/// Deterministic, so coverage (asserted below) can never silently rot.
fn fuzz_seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = (1..=36).collect();
    seeds.push(114);
    seeds
}

/// Runs one scenario; on failure, shrinks it and formats a full diagnosis.
fn run_and_diagnose(sc: &FuzzScenario) -> Result<(), String> {
    run_scenario(sc).map(|_| ()).map_err(|failure| {
        let shrunk = shrink_to_minimal_prefix(sc, ScenarioOptions::default());
        let minimal = shrunk
            .map(|s| {
                format!(
                    "\nminimal failing prefix: {} of {} requests\n{}",
                    s.minimal_requests,
                    sc.total_requests(),
                    s.failure
                )
            })
            .unwrap_or_default();
        format!("{failure}{minimal}\nscenario: {sc:?}")
    })
}

/// ≥ 32 seeded scenarios, run in parallel, each under cadence checkpoints,
/// end-of-session audits, oracle comparison, and report sanity checks —
/// zero violations allowed. Honors `AERO_FUZZ_SEED` for single-seed
/// reproduction.
#[test]
fn fuzz_scenarios_audit_clean_across_schemes_layouts_and_suspension() {
    #[expect(
        clippy::disallowed_methods,
        reason = "AERO_FUZZ_SEED picks the seed to reproduce; it changes no simulated result"
    )]
    if let Ok(value) = std::env::var("AERO_FUZZ_SEED") {
        let seed: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("AERO_FUZZ_SEED must be an integer, got {value:?}"));
        let sc = scenario(seed);
        eprintln!("reproducing fuzz seed {seed}: {sc:?}");
        if let Err(diagnosis) = run_and_diagnose(&sc) {
            panic!("{diagnosis}");
        }
        eprintln!("seed {seed} is clean");
        return;
    }

    let scenarios: Vec<FuzzScenario> = fuzz_seeds().into_iter().map(scenario).collect();

    // The fixed seed list must span the configuration space the acceptance
    // bar names: all five schemes, both suspension settings, and at least
    // two channel layouts.
    let schemes: BTreeSet<&str> = scenarios.iter().map(|s| s.scheme.label()).collect();
    let suspensions: BTreeSet<bool> = scenarios.iter().map(|s| s.erase_suspension).collect();
    let layouts: BTreeSet<(u32, u32)> = scenarios
        .iter()
        .map(|s| (s.channels, s.chips_per_channel))
        .collect();
    assert_eq!(schemes.len(), 5, "scheme coverage: {schemes:?}");
    assert_eq!(suspensions.len(), 2, "suspension coverage");
    assert!(layouts.len() >= 2, "layout coverage: {layouts:?}");
    assert!(scenarios.len() >= 32);
    // Power-loss coverage: several seeds must carry a crash/restore phase,
    // and between them both torn-write flavors (truncation and bit flip).
    let crashes: Vec<_> = scenarios.iter().filter_map(|s| s.crash.as_ref()).collect();
    assert!(
        crashes.len() >= 4,
        "crash coverage: {} plans",
        crashes.len()
    );
    let flavors: BTreeSet<bool> = crashes.iter().map(|c| c.truncate).collect();
    assert_eq!(flavors.len(), 2, "both torn-write flavors must appear");

    let outcomes = par_try_map(scenarios, |sc| {
        run_scenario(&sc).map_err(|_| run_and_diagnose(&sc).expect_err("just failed"))
    });
    let outcomes = match outcomes {
        Ok(outcomes) => outcomes,
        Err(diagnosis) => panic!("{diagnosis}"),
    };
    // The sweep as a whole must have exercised the interesting machinery.
    let checkpoints: u64 = outcomes.iter().map(|o| o.checkpoints).sum();
    let gc: u64 = outcomes.iter().map(|o| o.gc_invocations).sum();
    let erases: u64 = outcomes.iter().map(|o| o.erases).sum();
    assert!(
        checkpoints > 100,
        "audit checkpoints across the sweep: {checkpoints}"
    );
    assert!(gc > 0, "some scenario must trigger garbage collection");
    assert!(erases > 0, "some scenario must erase blocks");
    let crashed = outcomes.iter().filter(|o| o.crashed).count();
    assert!(
        crashed >= 4,
        "crash/snapshot/restore phases actually run: {crashed}"
    );
}

/// Crash-recovery regression anchors, runnable standalone via
/// `AERO_FUZZ_SEED=1` (or `2`). Seed 1 tears the snapshot with a bit flip
/// and is the seed whose surviving in-flight slab entries first exposed the
/// power-cut accounting gap; seed 2 tears by truncation, covering the other
/// flavor. Both must recover into a drive that audits clean.
#[test]
fn crash_recovery_regression_seeds_run_clean() {
    for (seed, truncate) in [(1u64, false), (2u64, true)] {
        let sc = scenario(seed);
        let crash = sc
            .crash
            .as_ref()
            .unwrap_or_else(|| panic!("seed {seed} must carry a crash plan"));
        assert_eq!(
            crash.truncate, truncate,
            "seed {seed}: expected torn-write flavor changed — update the anchors"
        );
        let outcome = run_and_outcome(&sc);
        assert!(outcome.crashed, "seed {seed}: the crash phase must run");
        assert!(
            outcome.requests_completed < sc.total_requests(),
            "seed {seed}: the power cut must actually drop requests"
        );
    }
}

/// Runs a scenario expecting success, with the full shrink-and-diagnose
/// output on failure.
fn run_and_outcome(sc: &FuzzScenario) -> aero_ssd::scenario::ScenarioOutcome {
    match run_scenario(sc) {
        Ok(outcome) => outcome,
        Err(_) => panic!("{}", run_and_diagnose(sc).expect_err("just failed")),
    }
}

/// Same seed ⇒ same scenario, byte for byte, and the same driver outcome.
#[test]
fn scenarios_and_outcomes_are_deterministic_per_seed() {
    let a = scenario(9);
    let b = scenario(9);
    assert_eq!(a, b);
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "byte-for-byte");
    assert_ne!(scenario(9), scenario(10));

    let outcome_a = run_scenario(&a).unwrap_or_else(|f| panic!("{f}"));
    let outcome_b = run_scenario(&b).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(outcome_a, outcome_b);
}

/// Every deliberately injected FTL corruption is caught by `Ssd::audit`,
/// attributed to the right invariant class.
#[test]
fn injected_corruption_is_caught_by_the_auditor() {
    let cases = [
        (CorruptionKind::RemapLpn, Invariant::L2pMapping),
        (CorruptionKind::DropValidBit, Invariant::L2pMapping),
        (CorruptionKind::InflateValidCount, Invariant::ValidCount),
        (CorruptionKind::FreeListDuplicate, Invariant::FreeAccounting),
        (CorruptionKind::SkewPecSum, Invariant::WearAccounting),
    ];
    for (kind, expected) in cases {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
        ssd.fill_fraction(0.5);
        assert!(ssd.audit().is_clean(), "pre-corruption drive must be clean");
        ssd.debug_corrupt(kind);
        let audit = ssd.audit();
        assert!(
            audit.violations.iter().any(|v| v.invariant == expected),
            "{kind:?} must be reported as {expected:?}; got {audit}"
        );
    }
}

/// Corruption injected mid-run is caught by the attached auditor, and the
/// shrinker localizes the failure to a prefix at (or just past) the
/// injection point.
#[test]
fn mid_run_corruption_is_caught_and_shrunk() {
    let sc = scenario(4);
    let total = sc.total_requests();
    let inject_at = total / 2;
    let options = ScenarioOptions {
        request_limit: None,
        corrupt_after: Some((inject_at, CorruptionKind::DropValidBit)),
    };
    let failure = run_scenario_with(&sc, options).expect_err("corruption must fail the run");
    assert!(
        failure.violations.iter().any(|v| matches!(
            v.invariant,
            Invariant::L2pMapping | Invariant::ReverseMapping | Invariant::OracleValidity
        )),
        "{failure}"
    );
    let shrunk = shrink_to_minimal_prefix(&sc, options).expect("the full run fails");
    assert!(
        shrunk.minimal_requests >= inject_at,
        "prefixes shorter than the injection point must pass \
         (minimal {}, injected at {inject_at})",
        shrunk.minimal_requests
    );
    assert!(shrunk.minimal_requests <= total);
}

/// The `AERO_FUZZ_SEED` documentation contract: a failure's display names
/// the env var and the seed, so the console output is a copy-pasteable
/// reproduction recipe.
#[test]
fn failures_carry_a_reproduction_recipe() {
    let sc = scenario(6);
    let options = ScenarioOptions {
        request_limit: None,
        corrupt_after: Some((10, CorruptionKind::InflateValidCount)),
    };
    let failure = run_scenario_with(&sc, options).expect_err("corruption must fail the run");
    let text = failure.to_string();
    assert!(text.contains("AERO_FUZZ_SEED=6"), "{text}");
    assert!(text.contains("cargo test"), "{text}");
}
