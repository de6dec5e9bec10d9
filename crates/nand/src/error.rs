//! Error types for NAND device operations.

use std::fmt;

use crate::geometry::{BlockAddr, PageAddr};
use crate::timing::Micros;

/// Errors produced by the NAND device model.
///
/// Every fallible public function in this crate returns [`NandError`] in its
/// `Result`. The variants carry enough context (addresses, limits) to be
/// actionable for callers such as an FTL or a characterization harness.
#[derive(Debug, Clone, PartialEq)]
pub enum NandError {
    /// A block address referred to a plane or block index outside the chip
    /// geometry.
    BlockOutOfRange {
        /// The offending address.
        addr: BlockAddr,
        /// Number of planes on the chip.
        planes: u32,
        /// Number of blocks per plane.
        blocks_per_plane: u32,
    },
    /// A page address referred to a page index outside the block.
    PageOutOfRange {
        /// The offending address.
        addr: PageAddr,
        /// Number of pages per block.
        pages_per_block: u32,
    },
    /// A program command targeted a page that has not been erased since it was
    /// last programmed (NAND flash forbids in-place overwrite).
    PageNotErased {
        /// The page that was already programmed.
        addr: PageAddr,
    },
    /// Pages inside a block must be programmed in order; an out-of-order
    /// program was attempted.
    OutOfOrderProgram {
        /// The page that was requested.
        addr: PageAddr,
        /// The next page index the block expects to be programmed.
        expected_page: u32,
    },
    /// A read targeted a page that has never been programmed since the last
    /// erase, so it holds no valid data.
    PageNotProgrammed {
        /// The unprogrammed page.
        addr: PageAddr,
    },
    /// An erase-pulse latency outside the range supported by the chip was
    /// requested through SET FEATURE.
    InvalidErasePulseLatency {
        /// The requested latency.
        requested: Micros,
        /// Minimum supported latency.
        min: Micros,
        /// Maximum supported latency.
        max: Micros,
    },
    /// The block has worn out: it exceeded the maximum number of erase loops
    /// the ISPE scheme allows without reaching the pass condition.
    EraseFailure {
        /// The block that could not be erased.
        addr: BlockAddr,
        /// Number of erase loops attempted before giving up.
        loops_attempted: u32,
    },
    /// An erase suspension was requested while no erase was in flight, or a
    /// resume was requested while nothing was suspended.
    InvalidSuspendState {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BlockOutOfRange {
                addr,
                planes,
                blocks_per_plane,
            } => write!(
                f,
                "block address {addr} out of range ({planes} planes x {blocks_per_plane} blocks)"
            ),
            NandError::PageOutOfRange {
                addr,
                pages_per_block,
            } => write!(
                f,
                "page address {addr} out of range ({pages_per_block} pages per block)"
            ),
            NandError::PageNotErased { addr } => {
                write!(f, "page {addr} was programmed without an intervening erase")
            }
            NandError::OutOfOrderProgram {
                addr,
                expected_page,
            } => write!(
                f,
                "out-of-order program of page {addr}; next expected page index is {expected_page}"
            ),
            NandError::PageNotProgrammed { addr } => {
                write!(f, "read of unprogrammed page {addr}")
            }
            NandError::InvalidErasePulseLatency {
                requested,
                min,
                max,
            } => write!(
                f,
                "erase-pulse latency {requested} outside supported range [{min}, {max}]"
            ),
            NandError::EraseFailure {
                addr,
                loops_attempted,
            } => write!(
                f,
                "block {addr} could not be erased after {loops_attempted} erase loops"
            ),
            NandError::InvalidSuspendState { reason } => {
                write!(f, "invalid suspend/resume request: {reason}")
            }
        }
    }
}

impl std::error::Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors: Vec<NandError> = vec![
            NandError::BlockOutOfRange {
                addr: BlockAddr::new(1, 2),
                planes: 4,
                blocks_per_plane: 100,
            },
            NandError::PageOutOfRange {
                addr: PageAddr::new(BlockAddr::new(0, 0), 3000),
                pages_per_block: 2112,
            },
            NandError::PageNotErased {
                addr: PageAddr::new(BlockAddr::new(0, 0), 1),
            },
            NandError::OutOfOrderProgram {
                addr: PageAddr::new(BlockAddr::new(0, 0), 5),
                expected_page: 2,
            },
            NandError::PageNotProgrammed {
                addr: PageAddr::new(BlockAddr::new(0, 0), 1),
            },
            NandError::InvalidErasePulseLatency {
                requested: Micros::from_millis_f64(9.0),
                min: Micros::from_millis_f64(0.5),
                max: Micros::from_millis_f64(3.5),
            },
            NandError::EraseFailure {
                addr: BlockAddr::new(0, 3),
                loops_attempted: 9,
            },
            NandError::InvalidSuspendState {
                reason: "no erase in flight".to_string(),
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with("out"));
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NandError>();
    }
}
