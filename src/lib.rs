//! # aero — umbrella crate for the AERO reproduction
//!
//! Re-exports the six member crates of this workspace under one roof so that
//! downstream users (and this repository's own integration tests and
//! examples) can depend on a single crate:
//!
//! | Re-export | Crate | Owns |
//! |-----------|-------|------|
//! | [`nand`] | `aero-nand` | statistical NAND chip model (ISPE, fail bits, wear, RBER/ECC) |
//! | [`core`] | `aero-core` | the five erase schemes, EPT/SEF, erase controller |
//! | [`ssd`] | `aero-ssd` | multi-die SSD simulator (FTL, scheduling, latency) |
//! | [`workloads`] | `aero-workloads` | synthetic + trace workloads (paper Table 3) |
//! | [`characterize`] | `aero-characterize` | §5 characterization studies on a synthetic chip population |
//! | [`mod@bench`] | `aero-bench` | `fig*`/`table*` experiment harness |
//! | [`exec`] | `aero-exec` | deterministic parallel sweep execution (`AERO_THREADS`) |
//!
//! See the repository `README.md` for the full crate map and how to
//! reproduce each paper figure.

#![warn(missing_docs)]

pub use aero_bench as bench;
pub use aero_characterize as characterize;
pub use aero_core as core;
pub use aero_exec as exec;
pub use aero_nand as nand;
pub use aero_ssd as ssd;
pub use aero_workloads as workloads;
