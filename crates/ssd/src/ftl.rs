//! Page-level FTL data structures: logical-to-physical mapping, per-block
//! validity tracking, free-block management, and greedy garbage-collection
//! victim selection.
//!
//! The mapping granularity is the NAND page (16 KiB in the paper's
//! configuration). The write path is log-structured: every die has one open
//! "frontier" block that user and GC writes fill sequentially; when it fills
//! up a new free block is opened. Greedy GC picks the block with the fewest
//! valid pages.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use std::collections::BTreeMap;

/// A physical page address in drive-global coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppa {
    /// Die index within the drive.
    pub die: u32,
    /// Block index within the die (dense, across planes).
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// Lifecycle state of a physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockState {
    /// Erased and available for allocation.
    #[default]
    Free,
    /// Currently being filled by the write frontier.
    Open,
    /// Fully written.
    Full,
    /// Selected as a GC victim; its valid pages are being migrated.
    Collecting,
    /// Erase in flight.
    Erasing,
    /// Permanently retired after a failed erase (or a grown-bad
    /// declaration): holds no data, never returns to the free list, and is
    /// replaced from the drive's spare budget. Terminal.
    Retired,
}

/// Per-block FTL bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Lifecycle state.
    pub state: BlockState,
    /// Number of pages written since the last erase.
    pub written_pages: u32,
    /// Validity bitmap, one bit per page.
    valid: Vec<u64>,
    /// Number of valid pages.
    pub valid_pages: u32,
}

impl BlockInfo {
    /// Creates bookkeeping for a block with `pages` pages.
    pub fn new(pages: u32) -> Self {
        BlockInfo {
            state: BlockState::Free,
            written_pages: 0,
            valid: vec![0; (pages as usize).div_ceil(64)],
            valid_pages: 0,
        }
    }

    /// Marks a page as holding valid data.
    pub fn mark_valid(&mut self, page: u32) {
        let word = &mut self.valid[page as usize / 64];
        let mask = 1u64 << (page % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.valid_pages += 1;
        }
    }

    /// Marks a page as invalid (its logical page was overwritten or trimmed).
    pub fn mark_invalid(&mut self, page: u32) {
        let word = &mut self.valid[page as usize / 64];
        let mask = 1u64 << (page % 64);
        if *word & mask != 0 {
            *word &= !mask;
            self.valid_pages -= 1;
        }
    }

    /// True if the page currently holds valid data.
    pub fn is_valid(&self, page: u32) -> bool {
        self.valid[page as usize / 64] >> (page % 64) & 1 == 1
    }

    /// Iterator over the indices of currently valid pages.
    pub fn valid_page_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.valid.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| (w * 64 + b) as u32)
        })
    }

    /// Resets the block after an erase.
    pub fn reset_after_erase(&mut self) {
        self.state = BlockState::Free;
        self.written_pages = 0;
        self.valid.iter_mut().for_each(|w| *w = 0);
        self.valid_pages = 0;
    }

    /// The packed validity-bitmap words, for exact serialization.
    pub fn valid_words(&self) -> &[u64] {
        &self.valid
    }

    /// Rebuilds block bookkeeping from its serialized parts. Returns `None`
    /// if the parts are internally inconsistent: wrong word count for
    /// `pages`, a written-page count beyond the block, a valid bit at or
    /// beyond the written region, or a `valid_pages` count that disagrees
    /// with the bitmap's popcount.
    pub fn from_parts(
        state: BlockState,
        written_pages: u32,
        valid: Vec<u64>,
        valid_pages: u32,
        pages: u32,
    ) -> Option<Self> {
        if valid.len() != (pages as usize).div_ceil(64) || written_pages > pages {
            return None;
        }
        let mut popcount = 0u32;
        for (w, &word) in valid.iter().enumerate() {
            popcount = popcount.checked_add(word.count_ones())?;
            // No valid bit may sit at or beyond the written region.
            let first_unwritten = written_pages as usize;
            let word_base = w * 64;
            if word_base + 64 > first_unwritten {
                let keep = first_unwritten.saturating_sub(word_base);
                let mask = if keep == 0 {
                    0
                } else {
                    u64::MAX >> (64 - keep)
                };
                if word & !mask != 0 {
                    return None;
                }
            }
        }
        if popcount != valid_pages {
            return None;
        }
        Some(BlockInfo {
            state,
            written_pages,
            valid,
            valid_pages,
        })
    }
}

/// FTL state of one die: block bookkeeping, free list, and the open frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DieFtl {
    blocks: Vec<BlockInfo>,
    free_blocks: Vec<u32>,
    frontier: Option<u32>,
    pages_per_block: u32,
}

impl DieFtl {
    /// Creates the FTL state for a die with `blocks` blocks of
    /// `pages_per_block` pages.
    pub fn new(blocks: u32, pages_per_block: u32) -> Self {
        DieFtl {
            blocks: (0..blocks)
                .map(|_| BlockInfo::new(pages_per_block))
                .collect(),
            free_blocks: (0..blocks).rev().collect(),
            frontier: None,
            pages_per_block,
        }
    }

    /// Number of blocks on the die.
    pub fn block_count(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Number of free (erased, unallocated) blocks.
    pub fn free_block_count(&self) -> u32 {
        self.free_blocks.len() as u32
    }

    /// The free list itself: block indices available for allocation, in
    /// pop order (last entry is allocated next). Exposed for the state
    /// auditor, which cross-checks list membership against block states.
    pub fn free_block_ids(&self) -> &[u32] {
        &self.free_blocks
    }

    /// The currently open frontier block, if any.
    pub fn frontier(&self) -> Option<u32> {
        self.frontier
    }

    /// Number of pages per block on this die.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Test-support corruption hook: pushes a block onto the free list
    /// without touching its state, violating the free-list/state-machine
    /// invariant on purpose so tests can prove the auditor catches it.
    #[doc(hidden)]
    pub fn debug_corrupt_free_list(&mut self, block: u32) {
        self.free_blocks.push(block);
    }

    /// Shared access to a block's bookkeeping.
    pub fn block(&self, block: u32) -> &BlockInfo {
        &self.blocks[block as usize]
    }

    /// Mutable access to a block's bookkeeping.
    pub fn block_mut(&mut self, block: u32) -> &mut BlockInfo {
        &mut self.blocks[block as usize]
    }

    /// Allocates the next page slot on the die's write frontier, opening a new
    /// free block if necessary. Returns `None` when the die has no frontier
    /// and no free block (write stall — GC must free space first).
    pub fn allocate_page(&mut self) -> Option<(u32, u32, bool)> {
        if self.frontier.is_none() {
            let block = self.free_blocks.pop()?;
            self.blocks[block as usize].state = BlockState::Open;
            self.frontier = Some(block);
        }
        #[expect(
            clippy::expect_used,
            reason = "the branch above populated the frontier or returned None"
        )]
        let block = self.frontier.expect("frontier just ensured");
        let info = &mut self.blocks[block as usize];
        let page = info.written_pages;
        info.written_pages += 1;
        info.mark_valid(page);
        let opened_new_block = page == 0;
        if info.written_pages == self.pages_per_block {
            info.state = BlockState::Full;
            self.frontier = None;
        }
        Some((block, page, opened_new_block))
    }

    /// Greedy GC victim: the full block with the fewest valid pages.
    /// The frontier and blocks already being collected or erased are not
    /// eligible, and neither is a **fully valid** block — collecting one
    /// reclaims zero pages while costing a whole block of migrations (and
    /// its final migration can outrun the free space the erase has not yet
    /// produced). Returns `None` if no block is eligible.
    pub fn pick_gc_victim(&self) -> Option<u32> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.state == BlockState::Full && b.valid_pages < self.pages_per_block)
            .min_by_key(|(_, b)| b.valid_pages)
            .map(|(i, _)| i as u32)
    }

    /// Marks a block as selected for collection.
    pub fn start_collecting(&mut self, block: u32) {
        self.blocks[block as usize].state = BlockState::Collecting;
    }

    /// Returns a block selected for collection to ordinary service.
    /// Used when a rescue migration runs out of page slots mid-collection:
    /// nothing has been erased yet, so the victim still holds its live
    /// data and simply becomes a `Full` block again, readable as before.
    pub fn abort_collecting(&mut self, block: u32) {
        debug_assert_eq!(self.blocks[block as usize].state, BlockState::Collecting);
        self.blocks[block as usize].state = BlockState::Full;
    }

    /// Number of page slots the die can still program without reclaiming
    /// space: the unwritten tail of the open frontier plus every page of
    /// every free block.
    pub fn free_page_slots(&self) -> u64 {
        let frontier = self
            .frontier
            .map(|b| (self.pages_per_block - self.blocks[b as usize].written_pages) as u64)
            .unwrap_or(0);
        frontier + self.free_block_count() as u64 * self.pages_per_block as u64
    }

    /// Marks a block as erasing.
    pub fn start_erasing(&mut self, block: u32) {
        self.blocks[block as usize].state = BlockState::Erasing;
    }

    /// Completes an erase: the block returns to the free list.
    pub fn finish_erase(&mut self, block: u32) {
        self.blocks[block as usize].reset_after_erase();
        self.free_blocks.push(block);
    }

    /// Retires a block after a failed erase: its bookkeeping is cleared
    /// like an erase would, but the state becomes the terminal
    /// [`BlockState::Retired`] and the block never rejoins the free list.
    /// Every live page must already have been migrated off (the erase path
    /// guarantees this — migrations drain before an erase dispatches).
    pub fn retire_block(&mut self, block: u32) {
        let info = &mut self.blocks[block as usize];
        info.reset_after_erase();
        info.state = BlockState::Retired;
    }

    /// Number of retired blocks on the die.
    pub fn retired_block_count(&self) -> u32 {
        self.blocks
            .iter()
            .filter(|b| b.state == BlockState::Retired)
            .count() as u32
    }

    /// Total number of valid pages on the die.
    pub fn valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.valid_pages as u64).sum()
    }

    /// Rebuilds a die's FTL state from serialized parts, preserving the
    /// exact free-list order (pop order matters for determinism). Returns
    /// `None` on structural inconsistency: a free-list or frontier index out
    /// of range, duplicate free-list entries, a free-list entry whose block
    /// is not `Free`, a `Free` block missing from the list, or a frontier
    /// whose block is not `Open`. Deeper cross-structure invariants are the
    /// auditor's job.
    pub fn from_parts(
        blocks: Vec<BlockInfo>,
        free_blocks: Vec<u32>,
        frontier: Option<u32>,
        pages_per_block: u32,
    ) -> Option<Self> {
        let count = blocks.len();
        let mut on_free_list = vec![false; count];
        for &b in &free_blocks {
            let slot = on_free_list.get_mut(b as usize)?;
            if *slot || blocks[b as usize].state != BlockState::Free {
                return None;
            }
            *slot = true;
        }
        for (i, info) in blocks.iter().enumerate() {
            if (info.state == BlockState::Free) != on_free_list[i] {
                return None;
            }
        }
        if let Some(f) = frontier {
            if blocks.get(f as usize)?.state != BlockState::Open {
                return None;
            }
        }
        Some(DieFtl {
            blocks,
            free_blocks,
            frontier,
            pages_per_block,
        })
    }
}

/// Width of the die field of a packed L2P entry.
const DIE_BITS: u32 = 6;
/// Width of the block field of a packed L2P entry.
const BLOCK_BITS: u32 = 12;
/// Width of the page field of a packed L2P entry.
const PAGE_BITS: u32 = 13;
const BLOCK_SHIFT: u32 = PAGE_BITS;
const DIE_SHIFT: u32 = PAGE_BITS + BLOCK_BITS;
/// Table entry of an unmapped logical page. The three fields span 31 bits,
/// so no packed address ever has the top bit set.
const UNMAPPED: u32 = u32::MAX;

/// True if every field of `ppa` fits its bit field of a packed entry.
#[inline]
fn packable(ppa: Ppa) -> bool {
    (ppa.die >> DIE_BITS) | (ppa.block >> BLOCK_BITS) | (ppa.page >> PAGE_BITS) == 0
}

/// Packs an address that [`packable`] accepted into its table entry.
#[inline]
fn pack(ppa: Ppa) -> u32 {
    ppa.die << DIE_SHIFT | ppa.block << BLOCK_SHIFT | ppa.page
}

/// Decodes a table entry back into an address (`None` if unmapped).
#[inline]
fn unpack(entry: u32) -> Option<Ppa> {
    (entry != UNMAPPED).then_some(Ppa {
        die: entry >> DIE_SHIFT,
        block: entry >> BLOCK_SHIFT & ((1 << BLOCK_BITS) - 1),
        page: entry & ((1 << PAGE_BITS) - 1),
    })
}

/// The first field of `ppa` too wide for a packed entry, for messages.
fn unpackable_field(ppa: Ppa) -> &'static str {
    if ppa.die >> DIE_BITS != 0 {
        "die"
    } else if ppa.block >> BLOCK_BITS != 0 {
        "block"
    } else {
        "page"
    }
}

/// Drive-wide logical-to-physical page mapping.
///
/// Logical pages inside the drive's advertised space live in a flat table
/// (O(1) hot path) of 4-byte entries: each [`Ppa`] is packed into fixed
/// die/block/page bit fields, which caps a drive at
/// [`PageMapping::MAX_DIES`] dies of [`PageMapping::MAX_BLOCKS_PER_DIE`]
/// blocks of [`PageMapping::MAX_PAGES_PER_BLOCK`] pages ([`crate::Ssd::new`]
/// rejects a larger geometry). Logical pages **beyond** the table — host
/// bugs, synthetic traces whose footprint exceeds the drive — are tracked
/// in a sorted overlay map, so an out-of-range overwrite finds and
/// invalidates its previous copy exactly like an in-range one. (An earlier
/// design dropped out-of-range updates on the floor, which made every
/// orphan physical copy immortal: they accumulated across overwrites,
/// garbage collection could never reclaim their blocks, and a full drive
/// silently lost GC migrations — a bug the state auditor surfaced.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMapping {
    /// Packed in-range entries (`UNMAPPED` = no mapping).
    table: Vec<u32>,
    /// Mappings for logical pages at or beyond `table.len()`.
    orphans: BTreeMap<u64, Ppa>,
}

impl PageMapping {
    /// Most dies a table entry can address (die indices run below it).
    pub const MAX_DIES: u32 = 1 << DIE_BITS;
    /// Most blocks per die a table entry can address.
    pub const MAX_BLOCKS_PER_DIE: u32 = 1 << BLOCK_BITS;
    /// Most pages per block a table entry can address.
    pub const MAX_PAGES_PER_BLOCK: u32 = 1 << PAGE_BITS;

    /// Creates an unmapped table for `logical_pages` logical pages.
    pub fn new(logical_pages: u64) -> Self {
        PageMapping {
            table: vec![UNMAPPED; logical_pages as usize],
            orphans: BTreeMap::new(),
        }
    }

    /// Number of logical pages in the drive's advertised space (the flat
    /// table; out-of-range orphans are not counted).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Current physical location of a logical page, if mapped — in-range
    /// pages from the flat table, out-of-range pages from the orphan
    /// overlay.
    #[inline]
    pub fn lookup(&self, lpn: u64) -> Option<Ppa> {
        match self.table.get(lpn as usize) {
            Some(&entry) => unpack(entry),
            None => self.orphans.get(&lpn).copied(),
        }
    }

    /// Installs a new mapping, returning the previous location (which the
    /// caller must invalidate). Works for out-of-range logical pages too,
    /// via the orphan overlay.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if an in-range page is mapped to a `ppa`
    /// with an index at or beyond its `MAX_*` count.
    #[inline]
    pub fn update(&mut self, lpn: u64, ppa: Ppa) -> Option<Ppa> {
        match self.table.get_mut(lpn as usize) {
            Some(entry) => {
                assert!(
                    packable(ppa),
                    "{ppa:?} does not fit a packed L2P entry: {} out of range",
                    unpackable_field(ppa)
                );
                unpack(std::mem::replace(entry, pack(ppa)))
            }
            None => self.orphans.insert(lpn, ppa),
        }
    }

    /// Iterator over the out-of-range mappings, in ascending lpn order.
    pub fn orphan_entries(&self) -> impl Iterator<Item = (u64, Ppa)> + '_ {
        self.orphans.iter().map(|(&lpn, &ppa)| (lpn, ppa))
    }

    /// Number of out-of-range logical pages currently mapped.
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// Rebuilds a mapping from its serialized parts. Returns `None` if any
    /// orphan key falls inside the flat table's range (it would shadow the
    /// table entry and corrupt lookups), or if a table entry has an index
    /// at or beyond its `MAX_*` count.
    pub fn from_parts(table: Vec<Option<Ppa>>, orphans: BTreeMap<u64, Ppa>) -> Option<Self> {
        if orphans.keys().any(|&lpn| (lpn as usize) < table.len()) {
            return None;
        }
        let table = table
            .into_iter()
            .map(|entry| match entry {
                None => Some(UNMAPPED),
                Some(ppa) => packable(ppa).then(|| pack(ppa)),
            })
            .collect::<Option<Vec<u32>>>()?;
        Some(PageMapping { table, orphans })
    }

    /// Fraction of the advertised logical space currently mapped (orphans
    /// are outside that space and not counted).
    pub fn mapped_fraction(&self) -> f64 {
        if self.table.is_empty() {
            return 0.0;
        }
        self.table.iter().filter(|&&e| e != UNMAPPED).count() as f64 / self.table.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_validity_tracking() {
        let mut b = BlockInfo::new(128);
        b.mark_valid(0);
        b.mark_valid(70);
        b.mark_valid(70); // idempotent
        assert_eq!(b.valid_pages, 2);
        assert!(b.is_valid(70));
        assert!(!b.is_valid(1));
        assert_eq!(b.valid_page_indices().collect::<Vec<_>>(), vec![0, 70]);
        b.mark_invalid(0);
        b.mark_invalid(0); // idempotent
        assert_eq!(b.valid_pages, 1);
        b.reset_after_erase();
        assert_eq!(b.valid_pages, 0);
        assert_eq!(b.state, BlockState::Free);
    }

    #[test]
    fn allocation_fills_blocks_sequentially() {
        let mut die = DieFtl::new(3, 4);
        let mut allocations = Vec::new();
        for _ in 0..12 {
            allocations.push(die.allocate_page().unwrap());
        }
        // All 12 pages allocated across 3 blocks, each filled in order.
        assert!(die.allocate_page().is_none(), "die is now full");
        assert_eq!(die.free_block_count(), 0);
        let pages_in_first_block: Vec<u32> = allocations
            .iter()
            .filter(|(b, _, _)| *b == allocations[0].0)
            .map(|(_, p, _)| *p)
            .collect();
        assert_eq!(pages_in_first_block, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gc_victim_is_block_with_fewest_valid_pages() {
        let mut die = DieFtl::new(3, 4);
        // Fill two blocks.
        let mut placements = Vec::new();
        for _ in 0..8 {
            placements.push(die.allocate_page().unwrap());
        }
        let first_block = placements[0].0;
        let second_block = placements[4].0;
        // Invalidate three pages of the first block, one of the second.
        for p in 0..3 {
            die.block_mut(first_block).mark_invalid(p);
        }
        die.block_mut(second_block).mark_invalid(0);
        assert_eq!(die.pick_gc_victim(), Some(first_block));
        // Erasing it returns it to the free list.
        die.start_collecting(first_block);
        die.start_erasing(first_block);
        die.finish_erase(first_block);
        assert_eq!(die.free_block_count(), 2);
        assert_eq!(die.block(first_block).state, BlockState::Free);
    }

    #[test]
    fn frontier_block_not_eligible_for_gc() {
        let mut die = DieFtl::new(2, 4);
        // Open the frontier with a single write; the other block stays free.
        die.allocate_page().unwrap();
        assert_eq!(die.pick_gc_victim(), None);
    }

    #[test]
    fn mapping_update_returns_previous_location() {
        let mut map = PageMapping::new(10);
        assert!(!map.is_empty());
        assert_eq!(map.lookup(3), None);
        let ppa1 = Ppa {
            die: 0,
            block: 1,
            page: 2,
        };
        let ppa2 = Ppa {
            die: 1,
            block: 0,
            page: 0,
        };
        assert_eq!(map.update(3, ppa1), None);
        assert_eq!(map.update(3, ppa2), Some(ppa1));
        assert_eq!(map.lookup(3), Some(ppa2));
        assert!((map.mapped_fraction() - 0.1).abs() < 1e-12);
        // Out-of-range logical pages are tracked in the orphan overlay:
        // overwrites return the previous copy for invalidation, exactly
        // like in-range pages.
        assert_eq!(map.lookup(100), None);
        assert_eq!(map.update(100, ppa1), None);
        assert_eq!(map.lookup(100), Some(ppa1));
        assert_eq!(map.update(100, ppa2), Some(ppa1));
        assert_eq!(map.orphan_count(), 1);
        assert_eq!(map.orphan_entries().collect::<Vec<_>>(), vec![(100, ppa2)]);
        // Orphans do not count toward the advertised space's utilization.
        assert!((map.mapped_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn block_info_from_parts_round_trips_and_validates() {
        let mut b = BlockInfo::new(128);
        for p in 0..10 {
            b.mark_valid(p);
        }
        b.written_pages = 10;
        b.state = BlockState::Full;
        b.mark_invalid(3);
        let rebuilt = BlockInfo::from_parts(
            b.state,
            b.written_pages,
            b.valid_words().to_vec(),
            b.valid_pages,
            128,
        )
        .expect("consistent parts");
        assert_eq!(rebuilt, b);
        // Wrong word count.
        assert!(BlockInfo::from_parts(b.state, 10, vec![0; 1], 9, 128).is_none());
        // Popcount mismatch.
        assert!(BlockInfo::from_parts(b.state, 10, b.valid_words().to_vec(), 8, 128).is_none());
        // Valid bit beyond the written region.
        let mut words = b.valid_words().to_vec();
        words[0] |= 1 << 20;
        assert!(BlockInfo::from_parts(b.state, 10, words, 10, 128).is_none());
        // Written count beyond the block.
        assert!(BlockInfo::from_parts(b.state, 129, b.valid_words().to_vec(), 9, 128).is_none());
    }

    #[test]
    fn die_ftl_from_parts_preserves_free_list_order() {
        let mut die = DieFtl::new(4, 4);
        for _ in 0..5 {
            die.allocate_page().unwrap();
        }
        let blocks: Vec<BlockInfo> = (0..die.block_count())
            .map(|b| die.block(b).clone())
            .collect();
        let rebuilt = DieFtl::from_parts(
            blocks.clone(),
            die.free_block_ids().to_vec(),
            die.frontier(),
            die.pages_per_block(),
        )
        .expect("consistent parts");
        assert_eq!(rebuilt, die);
        // Out-of-range free entry.
        assert!(DieFtl::from_parts(blocks.clone(), vec![9], None, 4).is_none());
        // Duplicate free entry.
        let free = die.free_block_ids().to_vec();
        let mut dup = free.clone();
        dup.push(free[0]);
        assert!(DieFtl::from_parts(blocks.clone(), dup, die.frontier(), 4).is_none());
        // A Free block missing from the list.
        assert!(DieFtl::from_parts(blocks.clone(), vec![], die.frontier(), 4).is_none());
        // Frontier pointing at a non-Open block.
        assert!(
            DieFtl::from_parts(blocks.clone(), free.clone(), free.first().copied(), 4).is_none()
        );
    }

    #[test]
    fn page_mapping_from_parts_rejects_shadowing_orphans() {
        let ppa = Ppa {
            die: 0,
            block: 1,
            page: 2,
        };
        let mut map = PageMapping::new(10);
        map.update(3, ppa);
        map.update(100, ppa);
        let table: Vec<Option<Ppa>> = (0..10).map(|lpn| map.lookup(lpn)).collect();
        let orphans: BTreeMap<u64, Ppa> = map.orphan_entries().collect();
        let rebuilt = PageMapping::from_parts(table.clone(), orphans).expect("consistent");
        assert_eq!(rebuilt, map);
        // An orphan key inside the table range is rejected.
        let shadowing: BTreeMap<u64, Ppa> = [(5u64, ppa)].into_iter().collect();
        assert!(PageMapping::from_parts(table, shadowing).is_none());
    }

    fn ppa(die: u32, block: u32, page: u32) -> Ppa {
        Ppa { die, block, page }
    }

    /// Packed table entries round-trip the paper drive's largest address
    /// and every corner of the bit layout.
    #[test]
    fn packed_entries_round_trip_the_layout_corners() {
        let config = crate::config::SsdConfig::paper_default(aero_core::SchemeKind::Baseline);
        let geometry = config.family.geometry;
        let largest = ppa(
            config.dies() as u32 - 1,
            geometry.total_blocks() as u32 - 1,
            geometry.pages_per_block - 1,
        );
        assert_eq!(largest, ppa(15, 1_987, 2_111));
        let (die, block, page) = (
            PageMapping::MAX_DIES - 1,
            PageMapping::MAX_BLOCKS_PER_DIE - 1,
            PageMapping::MAX_PAGES_PER_BLOCK - 1,
        );
        let corners = [
            largest,
            ppa(0, 0, 0),
            ppa(die, 0, 0),
            ppa(0, block, 0),
            ppa(0, 0, page),
            ppa(die, block, page),
        ];
        let mut map = PageMapping::new(corners.len() as u64);
        for (lpn, &corner) in corners.iter().enumerate() {
            assert_eq!(map.update(lpn as u64, corner), None);
            assert_eq!(map.lookup(lpn as u64), Some(corner));
        }
        // Overwrites hand back the exact previous address.
        for (lpn, &corner) in corners.iter().enumerate() {
            assert_eq!(map.update(lpn as u64, largest), Some(corner));
        }
    }

    /// An address a packed entry cannot hold is refused loudly by `update`
    /// (naming the field) and as corrupt by `from_parts`; the orphan
    /// overlay keeps full-width addresses.
    #[test]
    fn unpackable_addresses_are_refused() {
        let too_wide = [
            ("die", ppa(PageMapping::MAX_DIES, 2, 3)),
            ("block", ppa(1, PageMapping::MAX_BLOCKS_PER_DIE, 3)),
            ("page", ppa(1, 2, PageMapping::MAX_PAGES_PER_BLOCK)),
        ];
        for (field, wide) in too_wide {
            let panic = std::panic::catch_unwind(|| PageMapping::new(4).update(1, wide))
                .expect_err("an unpackable address must panic");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.contains(&format!("{field} out of range")),
                "{message}"
            );
            assert!(PageMapping::from_parts(vec![None, Some(wide)], BTreeMap::new()).is_none());
            let mut map = PageMapping::new(4);
            assert_eq!(map.update(4, wide), None);
            assert_eq!(map.lookup(4), Some(wide));
        }
    }

    /// A fully valid block is never a GC victim: collecting it reclaims
    /// nothing.
    #[test]
    fn fully_valid_blocks_are_not_gc_victims() {
        let mut die = DieFtl::new(2, 4);
        let (first_block, _, _) = die.allocate_page().unwrap();
        for _ in 0..7 {
            die.allocate_page().unwrap();
        }
        // Both blocks Full, every page valid: no eligible victim.
        assert_eq!(die.pick_gc_victim(), None);
        // One invalidated page makes that block eligible.
        die.block_mut(first_block).mark_invalid(0);
        assert_eq!(die.pick_gc_victim(), Some(first_block));
    }

    /// Retirement is terminal: the block's bookkeeping is cleared but it
    /// never rejoins the free list, is never a GC victim, and is never
    /// allocated again.
    #[test]
    fn retired_blocks_leave_the_rotation() {
        let mut die = DieFtl::new(2, 4);
        // Fill the first block and invalidate everything on it.
        let (victim, _, _) = die.allocate_page().unwrap();
        for _ in 0..3 {
            die.allocate_page().unwrap();
        }
        for p in 0..4 {
            die.block_mut(victim).mark_invalid(p);
        }
        die.start_collecting(victim);
        die.start_erasing(victim);
        die.retire_block(victim);
        assert_eq!(die.block(victim).state, BlockState::Retired);
        assert_eq!(die.block(victim).written_pages, 0);
        assert_eq!(die.block(victim).valid_pages, 0);
        assert_eq!(die.retired_block_count(), 1);
        assert_eq!(die.free_block_count(), 1, "one block was never touched");
        assert!(!die.free_block_ids().contains(&victim));
        assert_eq!(die.pick_gc_victim(), None);
        // Allocation uses the remaining free block, never the retired one.
        for _ in 0..4 {
            let (block, _, _) = die.allocate_page().unwrap();
            assert_ne!(block, victim);
        }
        assert!(die.allocate_page().is_none(), "capacity shrank by a block");
        // Round-trip through from_parts: a Retired block off the free list
        // is legal.
        let blocks: Vec<BlockInfo> = (0..die.block_count())
            .map(|b| die.block(b).clone())
            .collect();
        let rebuilt = DieFtl::from_parts(
            blocks,
            die.free_block_ids().to_vec(),
            die.frontier(),
            die.pages_per_block(),
        )
        .expect("retired blocks serialize consistently");
        assert_eq!(rebuilt, die);
    }
}
