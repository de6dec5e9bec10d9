//! SEF — Shallow-Erasure Flags.
//!
//! The SEF is a per-block bitmap the AERO FTL keeps (Figure 12): it records
//! whether the block should start its next erase with a shallow pulse. All
//! blocks start with the flag set (a fresh block is certain to benefit), and
//! the flag is cleared once shallow erasure stops paying off for the block —
//! i.e. when the remainder erasure can no longer shrink the first loop below
//! the default pulse latency. Clearing the flag avoids the extra verify-read
//! step of a pointless shallow pulse.
//!
//! The in-memory representation is a packed bitmap, so the storage overhead
//! matches the paper's accounting: one bit per block (≈ 12.5 KB for a 1 TB
//! SSD).

use crate::scheme::BlockId;

/// Packed per-block shallow-erasure flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShallowEraseFlags {
    words: Vec<u64>,
    len: usize,
}

impl ShallowEraseFlags {
    /// Creates flags for `blocks` blocks, all initially enabled.
    pub fn new(blocks: usize) -> Self {
        ShallowEraseFlags {
            words: vec![u64::MAX; blocks.div_ceil(64)],
            len: blocks,
        }
    }

    /// Number of blocks tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no blocks are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether shallow erasure is enabled for the block. Blocks beyond the
    /// tracked range report `true` (the conservative default for fresh
    /// blocks).
    pub fn is_enabled(&self, block: BlockId) -> bool {
        if block.0 >= self.len {
            return true;
        }
        (self.words[block.0 / 64] >> (block.0 % 64)) & 1 == 1
    }

    /// Enables or disables shallow erasure for a block.
    ///
    /// # Panics
    ///
    /// Panics if the block index is out of range.
    pub fn set(&mut self, block: BlockId, enabled: bool) {
        assert!(
            block.0 < self.len,
            "block {block:?} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (block.0 % 64);
        if enabled {
            self.words[block.0 / 64] |= mask;
        } else {
            self.words[block.0 / 64] &= !mask;
        }
    }

    /// Grows the bitmap to track at least `blocks` blocks; new blocks start
    /// enabled. Shrinking is not supported (smaller values are ignored).
    pub fn grow_to(&mut self, blocks: usize) {
        if blocks <= self.len {
            return;
        }
        // Newly exposed bits of the last partial word are already 1 (words are
        // initialized to all-ones and cleared individually).
        self.words.resize(blocks.div_ceil(64), u64::MAX);
        self.len = blocks;
    }

    /// Number of blocks with shallow erasure enabled.
    pub fn enabled_count(&self) -> usize {
        let mut count = 0usize;
        for (i, word) in self.words.iter().enumerate() {
            let valid_bits = if (i + 1) * 64 <= self.len {
                64
            } else {
                self.len - i * 64
            };
            let mask = if valid_bits == 64 {
                u64::MAX
            } else {
                (1u64 << valid_bits) - 1
            };
            count += (word & mask).count_ones() as usize;
        }
        count
    }

    /// Storage overhead in bytes (one bit per block, rounded up to whole
    /// 64-bit words).
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The packed bitmap words, for exact serialization.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from its packed words and tracked length, the
    /// exact inverse of [`words`](ShallowEraseFlags::words) +
    /// [`len`](ShallowEraseFlags::len). Returns `None` if the word count
    /// does not match the length.
    pub fn from_raw(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        Some(ShallowEraseFlags { words, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_blocks_start_enabled() {
        let sef = ShallowEraseFlags::new(100);
        assert_eq!(sef.len(), 100);
        assert!(!sef.is_empty());
        assert_eq!(sef.enabled_count(), 100);
        assert!(sef.is_enabled(BlockId(0)));
        assert!(sef.is_enabled(BlockId(99)));
    }

    #[test]
    fn set_and_clear() {
        let mut sef = ShallowEraseFlags::new(130);
        sef.set(BlockId(5), false);
        sef.set(BlockId(64), false);
        sef.set(BlockId(129), false);
        assert!(!sef.is_enabled(BlockId(5)));
        assert!(!sef.is_enabled(BlockId(64)));
        assert!(!sef.is_enabled(BlockId(129)));
        assert_eq!(sef.enabled_count(), 127);
        sef.set(BlockId(5), true);
        assert!(sef.is_enabled(BlockId(5)));
        assert_eq!(sef.enabled_count(), 128);
    }

    #[test]
    fn out_of_range_reads_default_true() {
        let sef = ShallowEraseFlags::new(10);
        assert!(sef.is_enabled(BlockId(1_000)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut sef = ShallowEraseFlags::new(10);
        sef.set(BlockId(10), false);
    }

    #[test]
    fn storage_overhead_is_one_bit_per_block() {
        // 1 TB SSD with ~10 MB blocks -> ~100K blocks -> ~12.5 KB.
        let blocks = 100_000;
        let sef = ShallowEraseFlags::new(blocks);
        assert!(sef.storage_bytes() <= blocks / 8 + 8);
    }

    #[test]
    fn empty_bitmap() {
        let sef = ShallowEraseFlags::new(0);
        assert!(sef.is_empty());
        assert_eq!(sef.enabled_count(), 0);
        assert_eq!(sef.storage_bytes(), 0);
    }

    #[test]
    fn raw_round_trip_is_exact() {
        let mut sef = ShallowEraseFlags::new(130);
        sef.set(BlockId(5), false);
        sef.set(BlockId(129), false);
        let rebuilt =
            ShallowEraseFlags::from_raw(sef.words().to_vec(), sef.len()).expect("matching length");
        assert_eq!(rebuilt, sef);
        // A word count that disagrees with the length is rejected
        // (130 blocks pack into exactly 3 words).
        assert!(ShallowEraseFlags::from_raw(vec![u64::MAX; 2], 130).is_none());
        assert!(ShallowEraseFlags::from_raw(vec![u64::MAX; 4], 130).is_none());
    }
}
