//! Physical organization of a NAND flash chip: planes, blocks, pages,
//! wordlines, and the address newtypes used throughout the crate.

use std::fmt;

/// Identifier of a plane within a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaneId(pub u32);

impl fmt::Display for PlaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Address of a block within a chip: the plane it belongs to and its index
/// within that plane.
///
/// # Examples
///
/// ```
/// use aero_nand::geometry::BlockAddr;
///
/// let addr = BlockAddr::new(2, 17);
/// assert_eq!(addr.plane.0, 2);
/// assert_eq!(addr.block, 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr {
    /// Plane containing the block.
    pub plane: PlaneId,
    /// Block index within the plane.
    pub block: u32,
}

impl BlockAddr {
    /// Creates a block address from a plane index and a block index.
    pub const fn new(plane: u32, block: u32) -> Self {
        BlockAddr {
            plane: PlaneId(plane),
            block,
        }
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.B{}", self.plane, self.block)
    }
}

/// Address of a page: a block address plus the page index within the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr {
    /// The containing block.
    pub block: BlockAddr,
    /// Page index within the block.
    pub page: u32,
}

impl PageAddr {
    /// Creates a page address.
    pub const fn new(block: BlockAddr, page: u32) -> Self {
        PageAddr { block, page }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.p{}", self.block, self.page)
    }
}

/// Geometry of one NAND flash chip (die).
///
/// The defaults follow Table 2 of the paper: 4 planes per chip, 497 blocks per
/// plane, 2112 pages per block, 16 KiB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipGeometry {
    /// Number of planes on the chip.
    pub planes: u32,
    /// Number of blocks in each plane.
    pub blocks_per_plane: u32,
    /// Number of pages in each block.
    pub pages_per_block: u32,
    /// Page size in bytes (user data, excluding the out-of-band area).
    pub page_size_bytes: u32,
    /// Number of wordlines per block. With TLC, `pages_per_block` is
    /// `3 * wordlines_per_block` (three logical pages per wordline).
    pub wordlines_per_block: u32,
}

impl ChipGeometry {
    /// Geometry used by the paper's simulated SSD (Table 2).
    pub fn paper_default() -> Self {
        ChipGeometry {
            planes: 4,
            blocks_per_plane: 497,
            pages_per_block: 2112,
            page_size_bytes: 16 * 1024,
            wordlines_per_block: 704,
        }
    }

    /// A reduced geometry convenient for fast unit tests and examples.
    pub fn small() -> Self {
        ChipGeometry {
            planes: 2,
            blocks_per_plane: 8,
            pages_per_block: 64,
            page_size_bytes: 16 * 1024,
            wordlines_per_block: 22,
        }
    }

    /// Total number of blocks on the chip.
    pub fn total_blocks(&self) -> u64 {
        self.planes as u64 * self.blocks_per_plane as u64
    }

    /// Capacity of a block in bytes.
    pub fn block_size_bytes(&self) -> u64 {
        self.pages_per_block as u64 * self.page_size_bytes as u64
    }

    /// Capacity of the chip in bytes.
    pub fn chip_size_bytes(&self) -> u64 {
        self.total_blocks() * self.block_size_bytes()
    }

    /// Checks that a block address is inside this geometry.
    pub fn validate_block(&self, addr: BlockAddr) -> Result<(), crate::NandError> {
        if addr.plane.0 >= self.planes || addr.block >= self.blocks_per_plane {
            return Err(crate::NandError::BlockOutOfRange {
                addr,
                planes: self.planes,
                blocks_per_plane: self.blocks_per_plane,
            });
        }
        Ok(())
    }

    /// Checks that a page address is inside this geometry.
    pub fn validate_page(&self, addr: PageAddr) -> Result<(), crate::NandError> {
        self.validate_block(addr.block)?;
        if addr.page >= self.pages_per_block {
            return Err(crate::NandError::PageOutOfRange {
                addr,
                pages_per_block: self.pages_per_block,
            });
        }
        Ok(())
    }

    /// Flattens a block address into a dense index in `0..total_blocks()`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range; call [`ChipGeometry::validate_block`]
    /// first for untrusted input.
    pub fn block_index(&self, addr: BlockAddr) -> usize {
        assert!(
            addr.plane.0 < self.planes && addr.block < self.blocks_per_plane,
            "block address {addr} out of range"
        );
        (addr.plane.0 as usize) * self.blocks_per_plane as usize + addr.block as usize
    }

    /// Inverse of [`ChipGeometry::block_index`].
    pub fn block_addr(&self, index: usize) -> BlockAddr {
        let plane = (index / self.blocks_per_plane as usize) as u32;
        let block = (index % self.blocks_per_plane as usize) as u32;
        BlockAddr::new(plane, block)
    }

    /// Iterates over all block addresses on the chip in plane-major order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let blocks_per_plane = self.blocks_per_plane;
        (0..self.planes).flat_map(move |p| (0..blocks_per_plane).map(move |b| BlockAddr::new(p, b)))
    }
}

impl Default for ChipGeometry {
    fn default() -> Self {
        ChipGeometry::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_capacity() {
        let g = ChipGeometry::paper_default();
        assert_eq!(g.total_blocks(), 4 * 497);
        assert_eq!(g.pages_per_block, 2112);
        // A block is roughly 33 MiB of user data (paper says ~10 MB per
        // logical block including TLC packing differences; our geometry keeps
        // Table 2's page count and size).
        assert_eq!(g.block_size_bytes(), 2112 * 16 * 1024);
        assert!(g.chip_size_bytes() > 60 * 1024 * 1024 * 1024_u64);
    }

    #[test]
    fn block_index_roundtrip() {
        let g = ChipGeometry::small();
        for (i, addr) in g.iter_blocks().enumerate() {
            assert_eq!(g.block_index(addr), i);
            assert_eq!(g.block_addr(i), addr);
        }
        assert_eq!(g.iter_blocks().count() as u64, g.total_blocks());
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let g = ChipGeometry::small();
        assert!(g.validate_block(BlockAddr::new(0, 0)).is_ok());
        assert!(g.validate_block(BlockAddr::new(2, 0)).is_err());
        assert!(g.validate_block(BlockAddr::new(0, 8)).is_err());
        assert!(g
            .validate_page(PageAddr::new(BlockAddr::new(0, 0), 63))
            .is_ok());
        assert!(g
            .validate_page(PageAddr::new(BlockAddr::new(0, 0), 64))
            .is_err());
    }

    #[test]
    fn display_formats() {
        let p = PageAddr::new(BlockAddr::new(1, 2), 3);
        assert_eq!(p.to_string(), "P1.B2.p3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_index_panics_out_of_range() {
        let g = ChipGeometry::small();
        let _ = g.block_index(BlockAddr::new(5, 0));
    }
}
