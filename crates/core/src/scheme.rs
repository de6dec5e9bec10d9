//! The erase-scheme abstraction.
//!
//! An [`EraseScheme`] is the policy half of an erase operation: given what has
//! been observed so far (loop outcomes with their fail-bit counts), it decides
//! what the chip should do next — run another erase pulse (with what latency
//! and at which voltage index), or stop. The mechanism half — actually issuing
//! pulses and verify-reads against a [`aero_nand::Chip`] — lives in
//! [`controller`](crate::controller).
//!
//! Schemes are deliberately chip-agnostic: they see only the information real
//! SSD firmware could see (fail-bit counts via GET FEATURE, per-block
//! metadata the FTL keeps), never the model's ground-truth erase dose.

use aero_nand::erase::ispe::EraseLoopOutcome;
use aero_nand::timing::Micros;

/// FTL-level identifier of a block (dense index across the whole drive or
/// test population). Schemes key their per-block metadata (SEF bits, i-ISPE
/// loop counts) on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

/// Context the controller hands to a scheme for one erase operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockContext {
    /// FTL-level block identifier.
    pub block_id: BlockId,
    /// The block's program/erase-cycle count before this erase.
    pub pec: u32,
}

impl BlockContext {
    /// Creates a context.
    pub fn new(block_id: BlockId, pec: u32) -> Self {
        BlockContext { block_id, pec }
    }
}

/// What the scheme wants the chip to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EraseAction {
    /// Apply one erase pulse of the given latency, then verify-read.
    Pulse {
        /// Pulse latency (`tEP` for this loop).
        pulse: Micros,
        /// Voltage index to force for this loop (`None` keeps the chip's own
        /// ISPE ladder position). i-ISPE uses this to skip early loops; AERO
        /// uses it to keep remainder erasure at the first-loop voltage.
        voltage_index: Option<u32>,
    },
    /// Stop the erase operation in its current state.
    Finish {
        /// True if the scheme deliberately accepts an incompletely erased
        /// block (AERO's aggressive mode). False means the scheme believes
        /// the block is completely erased.
        accept_partial: bool,
    },
}

impl EraseAction {
    /// Convenience constructor for a pulse on the chip's current ladder
    /// position.
    pub fn pulse(pulse: Micros) -> Self {
        EraseAction::Pulse {
            pulse,
            voltage_index: None,
        }
    }

    /// Convenience constructor for a normal completion.
    pub fn finish() -> Self {
        EraseAction::Finish {
            accept_partial: false,
        }
    }
}

/// A block-erasure policy.
///
/// The controller calls [`EraseScheme::begin`] once per erase operation, then
/// repeatedly asks for the [`next_action`](EraseScheme::next_action) given the
/// loop outcomes observed so far, and finally reports the result through
/// [`EraseScheme::finish`] so the scheme can update its per-block metadata.
pub trait EraseScheme {
    /// Human-readable scheme name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Called when an erase operation on `ctx` starts.
    fn begin(&mut self, _ctx: &BlockContext) {}

    /// Decides the next action given the loop outcomes observed so far in
    /// this erase operation (empty before the first loop).
    fn next_action(&mut self, ctx: &BlockContext, history: &[EraseLoopOutcome]) -> EraseAction;

    /// Called when the erase operation ends, with the full loop history and
    /// whether the block ended completely erased.
    fn finish(&mut self, _ctx: &BlockContext, _history: &[EraseLoopOutcome], _complete: bool) {}

    /// Program-latency scale the scheme imposes at a given P/E-cycle count
    /// (1.0 for every scheme except DPES).
    fn program_latency_scale(&self, _pec: u32) -> f64 {
        1.0
    }

    /// Erase-voltage scale the scheme imposes at a given P/E-cycle count
    /// (1.0 for every scheme except DPES).
    fn erase_voltage_scale(&self, _pec: u32) -> f64 {
        1.0
    }

    /// The scheme's per-block shallow-erasure flags, if it keeps any
    /// (only the AERO variants do). Exposed so a state auditor can verify
    /// the bitmap's structural invariants without knowing the concrete
    /// scheme type behind a `Box<dyn EraseScheme>`.
    fn shallow_flags(&self) -> Option<&crate::sef::ShallowEraseFlags> {
        None
    }

    /// Serializes the scheme's mutable per-drive state (SEF bitmap, RNG
    /// position, learned per-block metadata, counters) as an opaque byte
    /// blob owned by the concrete scheme. Configuration-derived state is
    /// *not* included — a restored scheme is rebuilt from the same
    /// configuration first, then fed this blob. Stateless schemes return an
    /// empty vector (the default).
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state previously produced by
    /// [`export_state`](EraseScheme::export_state) on a scheme of the same
    /// kind and configuration. Returns `false` if the blob is malformed
    /// (wrong kind, truncated, out-of-range values); the scheme may be left
    /// partially updated in that case and must not be used further. The
    /// default (stateless) implementation accepts only the empty blob.
    fn import_state(&mut self, state: &[u8]) -> bool {
        state.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erase_action_constructors() {
        let p = EraseAction::pulse(Micros::from_millis_f64(1.0));
        assert!(matches!(
            p,
            EraseAction::Pulse {
                voltage_index: None,
                ..
            }
        ));
        assert_eq!(
            EraseAction::finish(),
            EraseAction::Finish {
                accept_partial: false
            }
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "this test checks that BlockId implements Hash"
    )]
    fn block_id_is_hashable_and_ordered() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(BlockId(3), "x");
        assert_eq!(m[&BlockId(3)], "x");
        assert!(BlockId(1) < BlockId(2));
    }

    #[test]
    fn scheme_trait_is_object_safe() {
        struct Always;
        impl EraseScheme for Always {
            fn name(&self) -> &'static str {
                "always"
            }
            fn next_action(&mut self, _: &BlockContext, _: &[EraseLoopOutcome]) -> EraseAction {
                EraseAction::finish()
            }
        }
        let mut s: Box<dyn EraseScheme> = Box::new(Always);
        let ctx = BlockContext::new(BlockId(0), 0);
        assert_eq!(s.next_action(&ctx, &[]), EraseAction::finish());
        assert_eq!(s.program_latency_scale(100), 1.0);
        assert_eq!(s.erase_voltage_scale(100), 1.0);
        // Stateless default persistence: exports nothing, accepts only
        // nothing.
        assert!(s.export_state().is_empty());
        assert!(s.import_state(&[]));
        assert!(!s.import_state(&[1]));
    }
}
