//! i-ISPE — the intelligent ISPE scheme of Lee et al. (IMW 2011).
//!
//! i-ISPE tracks, per block, the number of erase loops the most recent erase
//! operation needed (`N_ISPE`), and on the next erase jumps straight to the
//! erase voltage of that final loop, skipping the earlier (lower-voltage)
//! loops. When the block has become harder to erase in the meantime, the
//! skipped loops are missed and the erase *fails*, forcing a retry at an even
//! higher voltage than the conventional scheme would ever have used — the
//! effect that makes i-ISPE counter-productive on modern, high-variation 3D
//! NAND (§3.3 of the AERO paper).

use std::collections::BTreeMap;

use aero_nand::erase::ispe::EraseLoopOutcome;
use aero_nand::timing::Micros;

use crate::scheme::{BlockContext, BlockId, EraseAction, EraseScheme};
use crate::wire;

/// Leading tag byte of an i-ISPE state blob (see
/// [`EraseScheme::export_state`]).
const IISPE_STATE_TAG: u8 = 0x11;

/// The i-ISPE erase scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntelligentIspe {
    default_pulse: Micros,
    /// Last observed final-loop voltage index per block. A `BTreeMap` so
    /// any future iteration is in block order by construction (the
    /// workspace determinism contract, rule D1 in `clippy.toml`).
    last_final_loop: BTreeMap<BlockId, u32>,
    /// Voltage index the current erase operation started at.
    start_index: u32,
}

impl IntelligentIspe {
    /// Creates the scheme with the chip's default pulse latency.
    pub fn new(default_pulse: Micros) -> Self {
        IntelligentIspe {
            default_pulse,
            last_final_loop: BTreeMap::new(),
            start_index: 1,
        }
    }

    /// Creates the scheme with the paper's 3.5 ms default pulse.
    pub fn paper_default() -> Self {
        IntelligentIspe::new(Micros::from_millis_f64(3.5))
    }

    /// The voltage index the scheme would start at for a block.
    pub fn recorded_start_index(&self, block: BlockId) -> u32 {
        self.last_final_loop.get(&block).copied().unwrap_or(1)
    }
}

impl Default for IntelligentIspe {
    fn default() -> Self {
        IntelligentIspe::paper_default()
    }
}

impl EraseScheme for IntelligentIspe {
    fn name(&self) -> &'static str {
        "i-ISPE"
    }

    fn begin(&mut self, ctx: &BlockContext) {
        self.start_index = self.recorded_start_index(ctx.block_id);
    }

    fn next_action(&mut self, _ctx: &BlockContext, history: &[EraseLoopOutcome]) -> EraseAction {
        if let Some(last) = history.last() {
            if last.passed {
                return EraseAction::finish();
            }
        }
        // First loop jumps straight to the recorded final voltage; every
        // retry escalates one step beyond it.
        let voltage_index = self.start_index + history.len() as u32;
        EraseAction::Pulse {
            pulse: self.default_pulse,
            voltage_index: Some(voltage_index),
        }
    }

    fn finish(&mut self, ctx: &BlockContext, history: &[EraseLoopOutcome], complete: bool) {
        if complete {
            // Record the voltage index the final (successful) loop used.
            let final_index = self.start_index + (history.len() as u32).saturating_sub(1);
            self.last_final_loop
                .insert(ctx.block_id, final_index.max(1));
        }
    }

    /// i-ISPE's mutable state is the per-block final-loop record. Entries
    /// are encoded in block-id order — the `BTreeMap`'s native iteration
    /// order — so the blob is byte-stable. `start_index` is transient
    /// (set by `begin`).
    fn export_state(&self) -> Vec<u8> {
        let mut out = vec![IISPE_STATE_TAG];
        wire::put_u64(&mut out, self.last_final_loop.len() as u64);
        for (&block, &index) in &self.last_final_loop {
            wire::put_u64(&mut out, block.0 as u64);
            wire::put_u32(&mut out, index);
        }
        out
    }

    fn import_state(&mut self, state: &[u8]) -> bool {
        let mut r = wire::Reader::new(state);
        if r.u8() != Some(IISPE_STATE_TAG) {
            return false;
        }
        let Some(count) = r.u64() else { return false };
        // Each entry is 12 bytes; a count the blob cannot hold is corrupt
        // (checked before allocating).
        if count > r.remaining() as u64 / 12 {
            return false;
        }
        let mut map = BTreeMap::new();
        for _ in 0..count {
            let (block, index) = match (r.u64(), r.u32()) {
                (Some(b), Some(i)) => (b, i),
                _ => return false,
            };
            let Ok(block) = usize::try_from(block) else {
                return false;
            };
            // Recorded indices are always ≥ 1 (`finish` clamps them).
            if index == 0 {
                return false;
            }
            map.insert(BlockId(block), index);
        }
        if !r.is_empty() {
            return false;
        }
        self.last_final_loop = map;
        self.start_index = 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(passed: bool) -> EraseLoopOutcome {
        EraseLoopOutcome {
            loop_index: 1,
            pulse: Micros::from_millis_f64(3.5),
            latency: Micros::from_millis_f64(3.6),
            fail_bits: if passed { 10 } else { 20_000 },
            passed,
        }
    }

    #[test]
    fn fresh_block_starts_at_loop_one() {
        let mut s = IntelligentIspe::paper_default();
        let ctx = BlockContext::new(BlockId(7), 0);
        s.begin(&ctx);
        assert_eq!(
            s.next_action(&ctx, &[]),
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(3.5),
                voltage_index: Some(1),
            }
        );
    }

    #[test]
    fn records_final_loop_and_skips_to_it() {
        let mut s = IntelligentIspe::paper_default();
        let ctx = BlockContext::new(BlockId(3), 2_000);
        s.begin(&ctx);
        // Erase took three loops.
        let history = vec![outcome(false), outcome(false), outcome(true)];
        s.finish(&ctx, &history, true);
        assert_eq!(s.recorded_start_index(BlockId(3)), 3);
        // Next erase jumps straight to voltage index 3.
        s.begin(&ctx);
        assert_eq!(
            s.next_action(&ctx, &[]),
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(3.5),
                voltage_index: Some(3),
            }
        );
        // If that fails, the retry escalates beyond what the baseline would
        // have reached.
        assert_eq!(
            s.next_action(&ctx, &[outcome(false)]),
            EraseAction::Pulse {
                pulse: Micros::from_millis_f64(3.5),
                voltage_index: Some(4),
            }
        );
    }

    #[test]
    fn ratcheting_on_failure() {
        let mut s = IntelligentIspe::paper_default();
        let ctx = BlockContext::new(BlockId(1), 2_500);
        // First erase: recorded 2.
        s.begin(&ctx);
        s.finish(&ctx, &[outcome(false), outcome(true)], true);
        assert_eq!(s.recorded_start_index(BlockId(1)), 2);
        // Next erase starts at 2, fails once, completes at 3: recorded 3.
        s.begin(&ctx);
        s.finish(&ctx, &[outcome(false), outcome(true)], true);
        assert_eq!(s.recorded_start_index(BlockId(1)), 3);
    }

    #[test]
    fn incomplete_erase_does_not_update_record() {
        let mut s = IntelligentIspe::paper_default();
        let ctx = BlockContext::new(BlockId(9), 1_000);
        s.begin(&ctx);
        s.finish(&ctx, &[outcome(false)], false);
        assert_eq!(s.recorded_start_index(BlockId(9)), 1);
    }

    #[test]
    fn state_round_trips_and_rejects_corruption() {
        let mut s = IntelligentIspe::paper_default();
        for (block, loops) in [(3usize, 3usize), (9, 2), (1, 4)] {
            let ctx = BlockContext::new(BlockId(block), 1_000);
            s.begin(&ctx);
            let mut history = vec![outcome(false); loops - 1];
            history.push(outcome(true));
            s.finish(&ctx, &history, true);
        }
        let blob = s.export_state();
        // Byte-stable: entries encode in the map's block-id order.
        assert_eq!(blob, s.export_state());
        let mut restored = IntelligentIspe::paper_default();
        assert!(restored.import_state(&blob));
        assert_eq!(restored, s);
        for cut in 0..blob.len() {
            assert!(!restored.import_state(&blob[..cut]), "truncation at {cut}");
        }
        let mut zero_index = blob.clone();
        let last = zero_index.len() - 4;
        zero_index[last..].copy_from_slice(&0u32.to_le_bytes());
        assert!(!restored.import_state(&zero_index));
        assert!(restored.import_state(&blob));
        assert_eq!(restored, s);
    }

    #[test]
    fn per_block_records_are_independent() {
        let mut s = IntelligentIspe::paper_default();
        let a = BlockContext::new(BlockId(1), 0);
        let b = BlockContext::new(BlockId(2), 0);
        s.begin(&a);
        s.finish(&a, &[outcome(false), outcome(false), outcome(true)], true);
        s.begin(&b);
        s.finish(&b, &[outcome(true)], true);
        assert_eq!(s.recorded_start_index(BlockId(1)), 3);
        assert_eq!(s.recorded_start_index(BlockId(2)), 1);
    }
}
