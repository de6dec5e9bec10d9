//! Exact pin of the Figure 13 lifetime path.
//!
//! `paper_claims.rs` checks the lifetime study's shape with tolerances and
//! `determinism.rs` compares thread counts against each other; neither
//! notices a change that moves every number a little. This suite runs
//! `lifetime_study::run_scheme` for all five schemes on a small
//! configuration and compares every curve point, bit for bit, and every
//! lifetime against the committed fixture under `tests/fixtures/`.
//!
//! The fixture is regenerated with:
//!
//! ```text
//! AERO_BLESS_FIXTURES=1 cargo test -q --test lifetime_pin
//! ```
//!
//! Re-bless only on a deliberate change to the erase, wear or RBER model.

use std::fmt::Write as _;

use aero_characterize::lifetime_study::{run_scheme, LifetimeStudyConfig};
use aero_core::SchemeKind;

/// The pinned configuration: 6 blocks per scheme cycled to 2K PEC, with an
/// `M_RBER` sample every 250 cycles. The requirement is tightened from the
/// paper's 63 to 30 errors per KiB so that some schemes reach end of life
/// within the budget and others do not; both lifetime outcomes are pinned.
fn config() -> LifetimeStudyConfig {
    LifetimeStudyConfig {
        blocks_per_scheme: 6,
        max_pec: 2_000,
        sample_every: 250,
        requirement: 30.0,
        ..LifetimeStudyConfig::paper_default()
    }
}

/// One line per curve point (`<scheme> <pec> <m_rber bits> <m_rber>`) and
/// one per lifetime (`<scheme> lifetime <pec|none>`). The hex bits are what
/// is compared; the decimal value is there for a human reading a diff.
fn render() -> String {
    let config = config();
    let mut out = String::from(
        "# lifetime_study::run_scheme: 6 blocks, 2000 PEC, a sample every 250, requirement 30\n",
    );
    for kind in SchemeKind::all() {
        let lifetime = run_scheme(&config, kind);
        for &(pec, m_rber) in &lifetime.curve {
            writeln!(
                out,
                "{} {pec} {:016x} {m_rber:.6}",
                kind.label(),
                m_rber.to_bits()
            )
            .unwrap();
        }
        let pec = lifetime
            .lifetime_pec
            .map_or_else(|| "none".to_string(), |p| p.to_string());
        writeln!(out, "{} lifetime {pec}", kind.label()).unwrap();
    }
    out
}

#[test]
fn lifetime_curves_are_bit_identical_to_the_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/lifetime_curves.txt"
    );
    let generated = render();
    if std::env::var("AERO_BLESS_FIXTURES").is_ok() {
        std::fs::write(path, &generated).expect("bless the fixture");
    }
    let pinned = std::fs::read_to_string(path).expect(
        "missing tests/fixtures/lifetime_curves.txt — regenerate with \
         AERO_BLESS_FIXTURES=1 cargo test -q --test lifetime_pin",
    );
    for (i, (want, got)) in pinned.lines().zip(generated.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "lifetime curves drifted from the fixture at line {}",
            i + 1
        );
    }
    assert_eq!(
        generated.lines().count(),
        pinned.lines().count(),
        "lifetime curves have a different number of points than the fixture"
    );
}
