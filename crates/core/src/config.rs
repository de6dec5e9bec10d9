//! Scheme selection and construction helpers.

use std::fmt;

use aero_nand::chip_family::ChipFamily;
use aero_nand::reliability::ecc::EccConfig;

use crate::aero::Aero;
use crate::baseline::BaselineIspe;
use crate::dpes::Dpes;
use crate::ept::Ept;
use crate::iispe::IntelligentIspe;
use crate::scheme::EraseScheme;

/// The five erase schemes the paper evaluates (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional ISPE.
    Baseline,
    /// Intelligent ISPE (skip the early loops).
    IIspe,
    /// Dynamic Program and Erase Scaling.
    Dpes,
    /// AERO without ECC-margin exploitation.
    AeroCons,
    /// Full AERO.
    Aero,
}

impl SchemeKind {
    /// All five schemes in the order the paper's figures list them.
    pub fn all() -> [SchemeKind; 5] {
        [
            SchemeKind::Baseline,
            SchemeKind::IIspe,
            SchemeKind::Dpes,
            SchemeKind::AeroCons,
            SchemeKind::Aero,
        ]
    }

    /// The scheme's display name as used in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::Baseline => "Baseline",
            SchemeKind::IIspe => "i-ISPE",
            SchemeKind::Dpes => "DPES",
            SchemeKind::AeroCons => "AERO_CONS",
            SchemeKind::Aero => "AERO",
        }
    }

    /// Builds a boxed scheme instance configured for the given chip family
    /// using the paper's published EPT (for the 3D TLC family) or a derived
    /// one (for other families).
    pub fn build(&self, family: &ChipFamily) -> Box<dyn EraseScheme> {
        self.build_with_requirement(family, &EccConfig::paper_default())
    }

    /// Builds a boxed scheme instance with an explicit ECC configuration
    /// (used by the Figure 17 sensitivity study, which weakens the RBER
    /// requirement).
    pub fn build_with_requirement(
        &self,
        family: &ChipFamily,
        ecc: &EccConfig,
    ) -> Box<dyn EraseScheme> {
        let default_pulse = family.timings.erase_pulse;
        let is_paper_tlc = family.name.contains("3D TLC");
        let ept = if is_paper_tlc && ecc.requirement_per_kib == 63 {
            Ept::paper_table1()
        } else {
            Ept::derive(family, ecc)
        };
        match self {
            SchemeKind::Baseline => Box::new(BaselineIspe::new(default_pulse)),
            SchemeKind::IIspe => Box::new(IntelligentIspe::new(default_pulse)),
            SchemeKind::Dpes => Box::new(Dpes::new(default_pulse, Default::default())),
            SchemeKind::AeroCons => Box::new(Aero::with_ept(family, ept, false)),
            SchemeKind::Aero => Box::new(Aero::with_ept(family, ept, true)),
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl EraseScheme for Box<dyn EraseScheme> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn begin(&mut self, ctx: &crate::scheme::BlockContext) {
        (**self).begin(ctx)
    }
    fn next_action(
        &mut self,
        ctx: &crate::scheme::BlockContext,
        history: &[aero_nand::erase::ispe::EraseLoopOutcome],
    ) -> crate::scheme::EraseAction {
        (**self).next_action(ctx, history)
    }
    fn finish(
        &mut self,
        ctx: &crate::scheme::BlockContext,
        history: &[aero_nand::erase::ispe::EraseLoopOutcome],
        complete: bool,
    ) {
        (**self).finish(ctx, history, complete)
    }
    fn program_latency_scale(&self, pec: u32) -> f64 {
        (**self).program_latency_scale(pec)
    }
    fn erase_voltage_scale(&self, pec: u32) -> f64 {
        (**self).erase_voltage_scale(pec)
    }
    fn shallow_flags(&self) -> Option<&crate::sef::ShallowEraseFlags> {
        (**self).shallow_flags()
    }
    fn export_state(&self) -> Vec<u8> {
        (**self).export_state()
    }
    fn import_state(&mut self, state: &[u8]) -> bool {
        (**self).import_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_five_schemes_in_paper_order() {
        let all = SchemeKind::all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].label(), "Baseline");
        assert_eq!(all[4].label(), "AERO");
    }

    #[test]
    fn build_produces_matching_names() {
        let family = ChipFamily::tlc_3d_48l();
        for kind in SchemeKind::all() {
            let scheme = kind.build(&family);
            assert_eq!(scheme.name(), kind.label());
        }
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(SchemeKind::Aero.to_string(), "AERO");
        assert_eq!(SchemeKind::AeroCons.to_string(), "AERO_CONS");
    }

    #[test]
    fn boxed_scheme_delegates() {
        let family = ChipFamily::tlc_3d_48l();
        let mut boxed = SchemeKind::Dpes.build(&family);
        assert!(boxed.program_latency_scale(500) > 1.0);
        assert!(boxed.erase_voltage_scale(500) < 1.0);
        let ctx = crate::scheme::BlockContext::new(crate::scheme::BlockId(0), 500);
        boxed.begin(&ctx);
        let action = boxed.next_action(&ctx, &[]);
        assert!(matches!(action, crate::scheme::EraseAction::Pulse { .. }));
    }

    #[test]
    fn other_families_use_derived_ept() {
        let family = ChipFamily::mlc_3d_48l();
        let scheme = SchemeKind::Aero.build(&family);
        assert_eq!(scheme.name(), "AERO");
    }

    /// The boxed delegation must forward the persistence hooks, not fall
    /// back to the stateless defaults: an AERO blob is non-empty and must
    /// import into a freshly built scheme of the same kind.
    #[test]
    fn boxed_scheme_delegates_state_persistence() {
        let family = ChipFamily::tlc_3d_48l();
        for kind in SchemeKind::all() {
            let source = kind.build(&family);
            let blob = source.export_state();
            let mut target = kind.build(&family);
            assert!(
                target.import_state(&blob),
                "{kind}: own blob must import cleanly"
            );
            match kind {
                SchemeKind::Aero | SchemeKind::AeroCons | SchemeKind::IIspe => {
                    assert!(!blob.is_empty(), "{kind} is stateful");
                }
                SchemeKind::Baseline | SchemeKind::Dpes => {
                    assert!(blob.is_empty(), "{kind} is stateless");
                }
            }
        }
    }
}
