//! Scheme-registration smoke test.
//!
//! Constructs every erase scheme the paper evaluates through the
//! [`SchemeKind`] registry and drives one real block erase through
//! [`EraseController`] with each, so that adding, renaming, or rewiring a
//! scheme can never silently break the `SchemeKind` → scheme → controller
//! path that every study, bench, and `fig*` binary depends on.

use aero_core::controller::EraseController;
use aero_core::scheme::BlockId;
use aero_core::SchemeKind;
use aero_nand::{BlockAddr, Chip, ChipConfig, ChipFamily};

/// Every `SchemeKind` must build a scheme whose name matches its label and
/// which can erase a moderately worn block end-to-end on both a fresh and a
/// pre-aged chip.
#[test]
fn every_scheme_kind_erases_a_block_through_the_controller() {
    let family = ChipFamily::small_test();
    let block = BlockAddr::new(0, 0);

    for kind in SchemeKind::all() {
        let scheme = kind.build(&family);
        assert_eq!(
            scheme.name(),
            kind.label(),
            "scheme built for {kind:?} must report the paper's label"
        );

        // Same seed for every scheme: all five erase the identical block.
        let mut chip = Chip::new(ChipConfig::new(family.clone()).with_seed(11));
        chip.precondition_block(block, 1_500)
            .unwrap_or_else(|e| panic!("preconditioning failed for {kind:?}: {e:?}"));

        let mut controller = EraseController::new(scheme);
        let exec = controller
            .erase(&mut chip, block, BlockId(0))
            .unwrap_or_else(|e| panic!("{kind:?} failed to erase a 1.5K-PEC block: {e:?}"));

        assert!(
            exec.report.n_loops() >= 1,
            "{kind:?} must execute at least one erase loop"
        );
        assert!(
            exec.report.total_latency.as_micros_f64() > 0.0,
            "{kind:?} must accrue erase latency"
        );
        // Every scheme leaves the block programmable again (complete erasure,
        // or AERO's deliberate shallow erase covered by the ECC margin).
        chip.program_block_bulk(block, aero_nand::cell::DataPattern::Randomized)
            .unwrap_or_else(|e| panic!("block unusable after {kind:?} erase: {e:?}"));

        // The controller's statistics must have registered the operation.
        assert_eq!(
            controller.stats().operations,
            1,
            "{kind:?} controller stats must count the erase"
        );
    }
}

/// The registry itself must stay in sync with the paper's five schemes.
#[test]
fn scheme_registry_is_complete_and_distinct() {
    let all = SchemeKind::all();
    assert_eq!(all.len(), 5, "the paper evaluates exactly five schemes");
    let labels: std::collections::BTreeSet<_> = all.iter().map(|k| k.label()).collect();
    assert_eq!(labels.len(), 5, "scheme labels must be distinct");
    for expected in ["Baseline", "i-ISPE", "DPES", "AERO_CONS", "AERO"] {
        assert!(
            labels.contains(expected),
            "registry must contain the paper's {expected} scheme"
        );
    }
}
