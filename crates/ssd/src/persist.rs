//! Durable drive state: versioned snapshots and crash-safe restore.
//!
//! A snapshot captures **everything that shapes future behavior** of an
//! [`Ssd`]: the logical-to-physical mapping (including the out-of-range
//! orphan overlay), every die's FTL bookkeeping (block states, validity
//! bitmaps, the free list in exact pop order, the open frontier), the
//! reverse map, queued GC migrations and the in-flight erase job, the
//! per-block NAND state (wear, erase state with residual dose, program
//! pointers), the chip noise RNG mid-stream, the erase scheme's private
//! state (SEF bitmap, i-ISPE records, prediction RNG), the drive-wide
//! erase statistics, and the scheduler counters. Restoring a snapshot
//! into the same configuration therefore continues **byte-identically**:
//! a run split across a save/restore produces the same [`crate::RunReport`]
//! as an uninterrupted one.
//!
//! The format is little-endian binary written with [`aero_core::wire`] (the
//! codec the erase schemes' state blobs use), length-prefixed throughout,
//! with a magic header and a whole-file checksum so torn writes —
//! truncations, single bit flips — are rejected with a typed
//! [`PersistError`] instead of producing a silently corrupt drive. After
//! decoding, the restore path additionally runs the full drive audit
//! ([`Ssd::audit`]) and refuses any snapshot whose decoded state is
//! internally inconsistent.
//!
//! # Binary format (version 2)
//!
//! | Section       | Contents (all integers little-endian)                       |
//! |---------------|-------------------------------------------------------------|
//! | magic         | 8 bytes, `b"AEROSNAP"`                                      |
//! | version       | `u32` format version ([`FORMAT_VERSION`])                   |
//! | fingerprint   | `u64` FNV-1a of the drive configuration                     |
//! | mapping       | table length + tagged PPA per LPN; orphan count + entries   |
//! | counters      | write die, GC/suspension/user-page/request-id counters      |
//! | health        | fault counters, retry histogram, read-only state            |
//! | erase stats   | full [`aero_core::EraseStats`] (latencies in nanoseconds)   |
//! | scheme        | length-prefixed opaque scheme blob (`export_state`)         |
//! | dies          | per die: block overlays, RNG (33 words), DPES scales, FTL   |
//! |               | blocks + free list + frontier, reverse map, GC queue, erase |
//! |               | job (incl. failed flag), die scheduler clocks (PEC sum,     |
//! |               | program scale), fault RNG (33 words), grown-bad set         |
//! | checksum      | `u64` FNV-1a over every preceding byte                      |
//!
//! Version 1 snapshots (pre-fault-model) are rejected with
//! [`PersistError::UnsupportedVersion`]: they carry no fault RNG, no
//! retired-block states, and no health counters, so reinterpreting one
//! would silently resurrect a drive with its fault state zeroed.

use std::fmt;
use std::io;

use aero_core::fingerprint::{fnv1a_64, Fingerprint};
use aero_core::scheme::EraseScheme;
use aero_core::wire::{put_f64, put_u32, put_u64, Reader};
use aero_core::EraseStats;
use aero_nand::cell::DataPattern;
use aero_nand::chip::BlockOverlay;
use aero_nand::erase::characteristics::BlockEraseState;
use aero_nand::timing::Micros;
use aero_nand::wear::WearState;

use crate::config::SsdConfig;
use crate::ftl::{BlockInfo, BlockState, DieFtl, PageMapping, Ppa};
use crate::ssd::{DriveCounters, EraseJob, GcMove, Ssd};

/// Current snapshot format version. Bumped whenever the binary layout
/// changes; older files are rejected with
/// [`PersistError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// Leading magic bytes of every snapshot file (`b"AEROSNAP"`).
pub const MAGIC: [u8; 8] = *b"AEROSNAP";

/// Fixed-size prefix: magic + version + config fingerprint.
pub const HEADER_BYTES: usize = 8 + 4 + 8;

/// Trailing whole-file FNV-1a checksum.
pub const CHECKSUM_BYTES: usize = 8;

/// Why a snapshot could not be written or restored.
///
/// Every failure mode of [`Ssd::restore_snapshot`] is typed: restore never
/// panics on hostile input and never returns a drive that fails
/// [`Ssd::audit`].
#[derive(Debug)]
pub enum PersistError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The input does not start with the snapshot magic bytes.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// The only version this build can read.
        supported: u32,
    },
    /// The snapshot was taken under a different drive configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration passed to restore.
        expected: u64,
        /// Fingerprint stamped in the file.
        found: u64,
    },
    /// The whole-file checksum does not match (torn write, bit rot).
    ChecksumMismatch,
    /// The input ended before the encoded state did.
    Truncated,
    /// A decoded field failed structural validation; the payload names the
    /// section.
    Corrupt(&'static str),
    /// The snapshot decoded cleanly but the resulting drive failed the
    /// state audit; the payload is the first violation.
    AuditFailed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            PersistError::BadMagic => f.write_str("not a drive snapshot (bad magic)"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            PersistError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            PersistError::ChecksumMismatch => {
                f.write_str("snapshot checksum mismatch (torn write or bit rot)")
            }
            PersistError::Truncated => f.write_str("snapshot ends mid-record (truncated)"),
            PersistError::Corrupt(section) => {
                write!(f, "snapshot is structurally corrupt: {section}")
            }
            PersistError::AuditFailed(violation) => {
                write!(f, "restored drive failed the state audit: {violation}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A torn-write fault to apply to a snapshot copy, modeling the two ways a
/// power cut corrupts an in-progress file write: the tail never makes it to
/// media, or a sector is damaged in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornWrite {
    /// Keep only the first `n` bytes.
    Truncate(usize),
    /// Flip one bit, indexed over the whole file (wraps modulo its length).
    FlipBit(usize),
}

/// Applies a [`TornWrite`] fault to snapshot bytes in place. Restoring the
/// damaged copy must fail with a typed [`PersistError`]; the fuzzer and the
/// torn-write corpus tests drive this helper over many fault points.
pub fn apply_torn_write(bytes: &mut Vec<u8>, torn: TornWrite) {
    match torn {
        TornWrite::Truncate(n) => bytes.truncate(n.min(bytes.len())),
        TornWrite::FlipBit(bit) => {
            if !bytes.is_empty() {
                let bit = bit % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}

/// The 64-bit fingerprint restore checks a snapshot against: FNV-1a over
/// the configuration's debug representation. Any configuration change —
/// geometry, scheme, seed, timing knob — yields a different fingerprint,
/// deliberately invalidating snapshots whose decoded state it would
/// reinterpret.
pub fn config_fingerprint(config: &SsdConfig) -> u64 {
    let mut f = Fingerprint::new();
    f.write_str(&format!("{config:?}"));
    f.finish()
}

/// `Some(v)` or bail with [`PersistError::Truncated`].
macro_rules! need {
    ($e:expr) => {
        $e.ok_or(PersistError::Truncated)?
    };
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

fn put_ppa(out: &mut Vec<u8>, ppa: Ppa) {
    put_u32(out, ppa.die);
    put_u32(out, ppa.block);
    put_u32(out, ppa.page);
}

struct Limits {
    dies: u32,
    blocks: u32,
    pages_per_block: u32,
}

fn read_ppa(r: &mut Reader<'_>, limits: &Limits) -> Result<Ppa, PersistError> {
    let ppa = Ppa {
        die: need!(r.u32()),
        block: need!(r.u32()),
        page: need!(r.u32()),
    };
    if ppa.die >= limits.dies || ppa.block >= limits.blocks || ppa.page >= limits.pages_per_block {
        return Err(PersistError::Corrupt("physical page address out of range"));
    }
    Ok(ppa)
}

fn put_block_overlay(out: &mut Vec<u8>, overlay: &BlockOverlay) {
    put_u32(out, overlay.wear.pec);
    put_f64(out, overlay.wear.erase_stress);
    put_f64(out, overlay.wear.program_stress);
    match overlay.erase_state {
        BlockEraseState::Erased => out.push(0),
        BlockEraseState::PartiallyErased { residual_units } => {
            out.push(1);
            put_f64(out, residual_units);
        }
        BlockEraseState::Programmed => out.push(2),
    }
    put_u32(out, overlay.next_page);
    put_u32(out, overlay.programmed_pages);
    out.push(match overlay.pattern {
        DataPattern::Randomized => 0,
        DataPattern::AllErasedState => 1,
        DataPattern::AllProgrammedState => 2,
    });
    match overlay.last_n_ispe {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            put_u32(out, n);
        }
    }
}

fn read_block_overlay(r: &mut Reader<'_>) -> Result<BlockOverlay, PersistError> {
    let wear = WearState {
        pec: need!(r.u32()),
        erase_stress: need!(r.f64()),
        program_stress: need!(r.f64()),
    };
    let erase_state = match need!(r.u8()) {
        0 => BlockEraseState::Erased,
        1 => BlockEraseState::PartiallyErased {
            residual_units: need!(r.f64()),
        },
        2 => BlockEraseState::Programmed,
        _ => return Err(PersistError::Corrupt("block erase-state tag")),
    };
    let next_page = need!(r.u32());
    let programmed_pages = need!(r.u32());
    let pattern = match need!(r.u8()) {
        0 => DataPattern::Randomized,
        1 => DataPattern::AllErasedState,
        2 => DataPattern::AllProgrammedState,
        _ => return Err(PersistError::Corrupt("data-pattern tag")),
    };
    let last_n_ispe = match need!(r.u8()) {
        0 => None,
        1 => Some(need!(r.u32())),
        _ => return Err(PersistError::Corrupt("last-N_ISPE tag")),
    };
    Ok(BlockOverlay {
        wear,
        erase_state,
        next_page,
        programmed_pages,
        pattern,
        last_n_ispe,
    })
}

/// Reads a `0`/`1` flag byte; any other value is corrupt.
fn read_flag(r: &mut Reader<'_>, what: &'static str) -> Result<bool, PersistError> {
    match need!(r.u8()) {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(PersistError::Corrupt(what)),
    }
}

fn block_state_tag(state: BlockState) -> u8 {
    match state {
        BlockState::Free => 0,
        BlockState::Open => 1,
        BlockState::Full => 2,
        BlockState::Collecting => 3,
        BlockState::Erasing => 4,
        BlockState::Retired => 5,
    }
}

fn block_state_from_tag(tag: u8) -> Option<BlockState> {
    Some(match tag {
        0 => BlockState::Free,
        1 => BlockState::Open,
        2 => BlockState::Full,
        3 => BlockState::Collecting,
        4 => BlockState::Erasing,
        5 => BlockState::Retired,
        _ => return None,
    })
}

fn finite_nonneg(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

impl Ssd {
    /// Serializes the drive's full state into the versioned snapshot format
    /// (see the [module docs](crate::persist) for the layout).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let geometry = self.config.family.geometry;
        let blocks = geometry.total_blocks() as u32;
        let pages_per_block = geometry.pages_per_block;
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, config_fingerprint(&self.config));

        // Mapping: flat table then orphan overlay.
        put_u64(&mut out, self.mapping.len() as u64);
        for lpn in 0..self.mapping.len() as u64 {
            match self.mapping.lookup(lpn) {
                None => out.push(0),
                Some(ppa) => {
                    out.push(1);
                    put_ppa(&mut out, ppa);
                }
            }
        }
        put_u64(&mut out, self.mapping.orphan_count() as u64);
        for (lpn, ppa) in self.mapping.orphan_entries() {
            put_u64(&mut out, lpn);
            put_ppa(&mut out, ppa);
        }

        // Drive-wide scheduler counters.
        let counters = &self.counters;
        put_u64(&mut out, self.next_write_die as u64);
        put_u64(&mut out, counters.gc_invocations);
        put_u64(&mut out, counters.gc_page_moves);
        put_u64(&mut out, counters.erase_suspensions);
        put_u64(&mut out, counters.user_pages_written);
        put_u64(&mut out, self.next_request_id);

        // Drive-health state: lifetime fault counters, the retry
        // histogram, and the read-only degradation latch.
        put_u64(&mut out, counters.program_failures);
        put_u64(&mut out, counters.erase_failures);
        put_u64(&mut out, counters.media_errors);
        put_u64(&mut out, counters.writes_rejected);
        for bucket in counters.read_retry_histogram {
            put_u64(&mut out, bucket);
        }
        out.push(self.read_only as u8);
        put_u64(&mut out, self.read_only_user_pages_written);

        // Drive-wide erase statistics (run-local reports diff against
        // these, so an exact round-trip is required for byte-identical
        // continuation).
        let stats = self.controller.stats();
        put_u64(&mut out, stats.operations);
        put_u64(&mut out, stats.loops);
        put_u64(&mut out, stats.total_latency.as_nanos());
        put_f64(&mut out, stats.total_stress);
        put_u64(&mut out, stats.partial_erases);
        put_u64(&mut out, stats.complete_erases);
        for bucket in stats.loop_histogram {
            put_u64(&mut out, bucket);
        }
        put_u64(&mut out, stats.max_latency.as_nanos());

        // Erase-scheme private state (opaque, scheme-versioned blob).
        let scheme_blob = self.controller.scheme().export_state();
        put_u64(&mut out, scheme_blob.len() as u64);
        out.extend_from_slice(&scheme_blob);

        // Per-die state.
        put_u64(&mut out, self.dies.len() as u64);
        for die in &self.dies {
            debug_assert_eq!(
                die.chip.active_erase_count(),
                0,
                "chip-level erases are synchronous and never span a snapshot"
            );
            put_u64(&mut out, blocks as u64);
            for idx in 0..blocks as usize {
                let overlay = die
                    .chip
                    .export_block_overlay(idx)
                    .expect("block index within geometry");
                put_block_overlay(&mut out, &overlay);
            }
            for word in die.chip.export_rng() {
                put_u32(&mut out, word);
            }
            put_f64(&mut out, die.chip.program_latency_scale());
            put_f64(&mut out, die.chip.erase_voltage_scale());

            // FTL bookkeeping.
            for b in 0..blocks {
                let info = die.ftl.block(b);
                out.push(block_state_tag(info.state));
                put_u32(&mut out, info.written_pages);
                for &word in info.valid_words() {
                    put_u64(&mut out, word);
                }
                put_u32(&mut out, info.valid_pages);
            }
            put_u64(&mut out, die.ftl.free_block_ids().len() as u64);
            for &b in die.ftl.free_block_ids() {
                put_u32(&mut out, b);
            }
            match die.ftl.frontier() {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    put_u32(&mut out, b);
                }
            }

            // Reverse map.
            put_u64(&mut out, die.p2l.len() as u64);
            for &lpn in &die.p2l {
                put_u64(&mut out, lpn);
            }

            // Queued GC migrations and the in-flight erase job.
            put_u64(&mut out, die.gc_moves.len() as u64);
            for mv in &die.gc_moves {
                put_u32(&mut out, mv.victim_block);
                put_u32(&mut out, mv.page);
            }
            match &die.erase_job {
                None => out.push(0),
                Some(job) => {
                    out.push(1);
                    put_u32(&mut out, job.block);
                    put_u64(&mut out, job.loop_latencies.len() as u64);
                    for &l in &job.loop_latencies {
                        put_u64(&mut out, l);
                    }
                    put_u64(&mut out, job.next_loop as u64);
                    out.push(job.started as u8);
                    out.push(job.suspended as u8);
                    out.push(job.failed as u8);
                }
            }
            out.push(die.gc_in_progress as u8);

            // Die scheduler clocks (the per-run bus clocks are reset by
            // every session open; the durable pieces are the PEC sum and
            // the cached program scale).
            put_u64(&mut out, die.pec_sum);
            put_f64(&mut out, die.program_scale);

            // Fault-injection state: the per-die fault RNG mid-stream (so
            // a restored drive fails the same way an uninterrupted one
            // would) and the grown-bad set awaiting retirement.
            for word in die.fault.export_rng() {
                put_u32(&mut out, word);
            }
            put_u64(&mut out, die.grown_bad.len() as u64);
            for &b in &die.grown_bad {
                put_u32(&mut out, b);
            }
        }
        let _ = pages_per_block; // geometry-derived sizes are implicit
        let checksum = fnv1a_64(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Writes a full drive snapshot to `writer`.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors from the writer.
    pub fn save_snapshot<W: io::Write>(&self, writer: &mut W) -> Result<(), PersistError> {
        writer.write_all(&self.snapshot_bytes())?;
        Ok(())
    }

    /// Reads a snapshot from `reader` and reconstructs the drive under
    /// `config`, which must be the exact configuration the snapshot was
    /// taken with.
    ///
    /// # Errors
    ///
    /// Every failure is a typed [`PersistError`]; hostile input — torn
    /// writes, bit flips, huge length claims — never panics, never aborts
    /// on allocation, and never yields a drive that fails [`Ssd::audit`].
    pub fn restore_snapshot<R: io::Read>(
        reader: &mut R,
        config: &SsdConfig,
    ) -> Result<Ssd, PersistError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::restore_snapshot_bytes(&bytes, config)
    }

    /// [`Ssd::restore_snapshot`] over an in-memory snapshot.
    ///
    /// # Errors
    ///
    /// See [`Ssd::restore_snapshot`].
    pub fn restore_snapshot_bytes(bytes: &[u8], config: &SsdConfig) -> Result<Ssd, PersistError> {
        if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
            return Err(PersistError::Truncated);
        }
        let body_end = bytes.len() - CHECKSUM_BYTES;
        let mut r = Reader::new(&bytes[..body_end]);
        if *need!(r.take(MAGIC.len())) != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = need!(r.u32());
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let stored_checksum = need!(Reader::new(&bytes[body_end..]).u64());
        if fnv1a_64(&bytes[..body_end]) != stored_checksum {
            return Err(PersistError::ChecksumMismatch);
        }
        let found = need!(r.u64());
        let expected = config_fingerprint(config);
        if found != expected {
            return Err(PersistError::ConfigMismatch { expected, found });
        }

        let geometry = config.family.geometry;
        let limits = Limits {
            dies: config.dies() as u32,
            blocks: geometry.total_blocks() as u32,
            pages_per_block: geometry.pages_per_block,
        };
        let valid_words_per_block = (limits.pages_per_block as usize).div_ceil(64);

        // Mapping.
        let table_len = need!(r.u64());
        if table_len != config.logical_pages() {
            return Err(PersistError::Corrupt("mapping table length"));
        }
        // Each entry costs at least one tag byte, so a length claim beyond
        // the remaining bytes is corrupt — checked before allocating.
        if table_len > r.remaining() as u64 {
            return Err(PersistError::Truncated);
        }
        let mut table = Vec::with_capacity(table_len as usize);
        for _ in 0..table_len {
            table.push(match need!(r.u8()) {
                0 => None,
                1 => Some(read_ppa(&mut r, &limits)?),
                _ => return Err(PersistError::Corrupt("mapping entry tag")),
            });
        }
        let orphan_count = need!(r.u64());
        if orphan_count > r.remaining() as u64 / 20 {
            return Err(PersistError::Truncated);
        }
        let mut orphans = std::collections::BTreeMap::new();
        for _ in 0..orphan_count {
            let lpn = need!(r.u64());
            let ppa = read_ppa(&mut r, &limits)?;
            orphans.insert(lpn, ppa);
        }
        let mapping = PageMapping::from_parts(table, orphans).ok_or(PersistError::Corrupt(
            "orphan mapping shadows the flat table",
        ))?;

        // Drive-wide counters.
        let next_write_die = need!(r.u64());
        if next_write_die >= limits.dies as u64 {
            return Err(PersistError::Corrupt("round-robin write die index"));
        }
        let mut counters = DriveCounters {
            gc_invocations: need!(r.u64()),
            gc_page_moves: need!(r.u64()),
            erase_suspensions: need!(r.u64()),
            user_pages_written: need!(r.u64()),
            ..DriveCounters::default()
        };
        let next_request_id = need!(r.u64());

        // Drive-health state.
        counters.program_failures = need!(r.u64());
        counters.erase_failures = need!(r.u64());
        counters.media_errors = need!(r.u64());
        counters.writes_rejected = need!(r.u64());
        for bucket in &mut counters.read_retry_histogram {
            *bucket = need!(r.u64());
        }
        let read_only = read_flag(&mut r, "read-only flag")?;
        let read_only_user_pages_written = need!(r.u64());
        if read_only && read_only_user_pages_written != counters.user_pages_written {
            return Err(PersistError::Corrupt("read-only write freeze"));
        }

        // Erase statistics.
        let stats = EraseStats {
            operations: need!(r.u64()),
            loops: need!(r.u64()),
            total_latency: Micros::from_nanos(need!(r.u64())),
            total_stress: need!(r.f64()),
            partial_erases: need!(r.u64()),
            complete_erases: need!(r.u64()),
            loop_histogram: {
                let mut h = [0u64; 9];
                for bucket in &mut h {
                    *bucket = need!(r.u64());
                }
                h
            },
            max_latency: Micros::from_nanos(need!(r.u64())),
        };
        if !finite_nonneg(stats.total_stress) {
            return Err(PersistError::Corrupt("erase-stress total"));
        }

        // Scheme blob.
        let scheme_len = need!(r.u64());
        if scheme_len > r.remaining() as u64 {
            return Err(PersistError::Truncated);
        }
        let scheme_blob = need!(r.take(scheme_len as usize)).to_vec();

        // Dies: rebuild each chip from the configuration (re-deriving the
        // seed-dependent process variation), then overlay the mutable state.
        let die_count = need!(r.u64());
        if die_count != limits.dies as u64 {
            return Err(PersistError::Corrupt("die count"));
        }
        let mut ssd = Ssd::new(config.clone());
        if !ssd.controller.scheme_mut().import_state(&scheme_blob) {
            return Err(PersistError::Corrupt("erase-scheme state blob"));
        }
        ssd.controller.restore_stats(stats);
        ssd.mapping = mapping;
        ssd.next_write_die = next_write_die as usize;
        ssd.counters = counters;
        ssd.next_request_id = next_request_id;
        ssd.read_only = read_only;
        ssd.read_only_user_pages_written = read_only_user_pages_written;

        for die_idx in 0..limits.dies as usize {
            let block_count = need!(r.u64());
            if block_count != limits.blocks as u64 {
                return Err(PersistError::Corrupt("per-die block count"));
            }
            let die = &mut ssd.dies[die_idx];
            for idx in 0..limits.blocks as usize {
                let overlay = read_block_overlay(&mut r)?;
                if !die.chip.import_block_overlay(idx, &overlay) {
                    return Err(PersistError::Corrupt("chip block overlay"));
                }
            }
            let mut rng_words = [0u32; 33];
            for word in &mut rng_words {
                *word = need!(r.u32());
            }
            if !die.chip.import_rng(&rng_words) {
                return Err(PersistError::Corrupt("chip RNG state"));
            }
            let program_latency_scale = need!(r.f64());
            let erase_voltage_scale = need!(r.f64());
            if !program_latency_scale.is_finite() || program_latency_scale < 1.0 {
                return Err(PersistError::Corrupt("program-latency scale"));
            }
            if !erase_voltage_scale.is_finite()
                || erase_voltage_scale <= 0.0
                || erase_voltage_scale > 1.0
            {
                return Err(PersistError::Corrupt("erase-voltage scale"));
            }
            die.chip.set_program_latency_scale(program_latency_scale);
            die.chip.set_erase_voltage_scale(erase_voltage_scale);

            // FTL.
            let mut blocks = Vec::with_capacity(limits.blocks as usize);
            for _ in 0..limits.blocks {
                let state = block_state_from_tag(need!(r.u8()))
                    .ok_or(PersistError::Corrupt("FTL block-state tag"))?;
                let written_pages = need!(r.u32());
                let mut words = Vec::with_capacity(valid_words_per_block);
                for _ in 0..valid_words_per_block {
                    words.push(need!(r.u64()));
                }
                let valid_pages = need!(r.u32());
                let info = BlockInfo::from_parts(
                    state,
                    written_pages,
                    words,
                    valid_pages,
                    limits.pages_per_block,
                )
                .ok_or(PersistError::Corrupt("FTL block bookkeeping"))?;
                blocks.push(info);
            }
            let free_count = need!(r.u64());
            if free_count > limits.blocks as u64 {
                return Err(PersistError::Corrupt("free-list length"));
            }
            let mut free_blocks = Vec::with_capacity(free_count as usize);
            for _ in 0..free_count {
                free_blocks.push(need!(r.u32()));
            }
            let frontier = match need!(r.u8()) {
                0 => None,
                1 => Some(need!(r.u32())),
                _ => return Err(PersistError::Corrupt("frontier tag")),
            };
            die.ftl = DieFtl::from_parts(blocks, free_blocks, frontier, limits.pages_per_block)
                .ok_or(PersistError::Corrupt("die FTL free-list/frontier"))?;

            // Reverse map.
            let p2l_len = need!(r.u64());
            if p2l_len != limits.blocks as u64 * limits.pages_per_block as u64 {
                return Err(PersistError::Corrupt("reverse-map length"));
            }
            if p2l_len > r.remaining() as u64 / 8 {
                return Err(PersistError::Truncated);
            }
            let mut p2l = Vec::with_capacity(p2l_len as usize);
            for _ in 0..p2l_len {
                p2l.push(need!(r.u64()));
            }
            die.p2l = p2l;

            // GC queue and erase job.
            let gc_count = need!(r.u64());
            if gc_count > r.remaining() as u64 / 8 {
                return Err(PersistError::Truncated);
            }
            let mut gc_moves = std::collections::VecDeque::with_capacity(gc_count as usize);
            for _ in 0..gc_count {
                let victim_block = need!(r.u32());
                let page = need!(r.u32());
                if victim_block >= limits.blocks || page >= limits.pages_per_block {
                    return Err(PersistError::Corrupt("GC migration out of range"));
                }
                gc_moves.push_back(GcMove { victim_block, page });
            }
            die.gc_moves = gc_moves;
            die.erase_job = match need!(r.u8()) {
                0 => None,
                1 => {
                    let block = need!(r.u32());
                    if block >= limits.blocks {
                        return Err(PersistError::Corrupt("erase-job block"));
                    }
                    let loop_count = need!(r.u64());
                    if loop_count > r.remaining() as u64 / 8 {
                        return Err(PersistError::Truncated);
                    }
                    let mut loop_latencies = Vec::with_capacity(loop_count as usize);
                    for _ in 0..loop_count {
                        loop_latencies.push(need!(r.u64()));
                    }
                    let next_loop = need!(r.u64());
                    if next_loop > loop_count {
                        return Err(PersistError::Corrupt("erase-job loop cursor"));
                    }
                    let started = read_flag(&mut r, "erase-job started flag")?;
                    let suspended = read_flag(&mut r, "erase-job suspended flag")?;
                    let failed = read_flag(&mut r, "erase-job failed flag")?;
                    Some(EraseJob {
                        block,
                        loop_latencies,
                        next_loop: next_loop as usize,
                        started,
                        suspended,
                        failed,
                    })
                }
                _ => return Err(PersistError::Corrupt("erase-job tag")),
            };
            die.gc_in_progress = read_flag(&mut r, "GC-in-progress flag")?;
            die.pec_sum = need!(r.u64());
            let program_scale = need!(r.f64());
            if !program_scale.is_finite() || program_scale < 1.0 {
                return Err(PersistError::Corrupt("die program scale"));
            }
            die.program_scale = program_scale;

            // Fault-injection state.
            let mut fault_rng = [0u32; 33];
            for word in &mut fault_rng {
                *word = need!(r.u32());
            }
            if !die.fault.import_rng(&fault_rng) {
                return Err(PersistError::Corrupt("fault RNG state"));
            }
            let grown_count = need!(r.u64());
            if grown_count > limits.blocks as u64 {
                return Err(PersistError::Corrupt("grown-bad set length"));
            }
            let mut grown_bad = std::collections::BTreeSet::new();
            for _ in 0..grown_count {
                let b = need!(r.u32());
                if b >= limits.blocks || !grown_bad.insert(b) {
                    return Err(PersistError::Corrupt("grown-bad set entry"));
                }
            }
            die.grown_bad = grown_bad;
        }
        if !r.is_empty() {
            return Err(PersistError::Corrupt("trailing bytes after the last die"));
        }

        // Final gate: a snapshot that decodes but describes an inconsistent
        // drive is rejected, never returned.
        let report = ssd.audit();
        if let Some(violation) = report.violations.first() {
            return Err(PersistError::AuditFailed(violation.to_string()));
        }
        Ok(ssd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_core::SchemeKind;
    use aero_workloads::request::Trace;
    use aero_workloads::SyntheticWorkload;

    fn exercised_drive(scheme: SchemeKind) -> Ssd {
        let config = SsdConfig::small_test(scheme).with_seed(21);
        let mut ssd = Ssd::new(config);
        ssd.precondition_wear(500);
        ssd.fill_fraction(0.6);
        let trace: Trace = SyntheticWorkload {
            read_ratio: 0.3,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        }
        .generate(1_200, 5);
        let _ = ssd.run_trace(&trace);
        ssd
    }

    #[test]
    fn snapshot_round_trips_for_every_scheme() {
        for kind in SchemeKind::all() {
            let ssd = exercised_drive(kind);
            let bytes = ssd.snapshot_bytes();
            let restored = Ssd::restore_snapshot_bytes(&bytes, ssd.config())
                .unwrap_or_else(|e| panic!("{kind}: restore failed: {e}"));
            // A snapshot of the restored drive is byte-identical.
            assert_eq!(restored.snapshot_bytes(), bytes, "{kind}");
            assert!(restored.audit().is_clean(), "{kind}");
        }
    }

    #[test]
    fn save_snapshot_streams_the_same_bytes() {
        let ssd = exercised_drive(SchemeKind::Aero);
        let mut streamed = Vec::new();
        ssd.save_snapshot(&mut streamed).unwrap();
        assert_eq!(streamed, ssd.snapshot_bytes());
        let restored =
            Ssd::restore_snapshot(&mut streamed.as_slice(), ssd.config()).expect("restore");
        assert_eq!(restored.snapshot_bytes(), streamed);
    }

    #[test]
    fn header_failures_are_typed() {
        let ssd = exercised_drive(SchemeKind::Baseline);
        let bytes = ssd.snapshot_bytes();
        let config = ssd.config().clone();

        assert!(matches!(
            Ssd::restore_snapshot_bytes(&[], &config),
            Err(PersistError::Truncated)
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            Ssd::restore_snapshot_bytes(&bad_magic, &config),
            Err(PersistError::BadMagic)
        ));
        // A future format version is refused with the version pair. The
        // checksum is recomputed so the version field is what fails.
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_end = future.len() - CHECKSUM_BYTES;
        let sum = fnv1a_64(&future[..body_end]);
        future[body_end..].copy_from_slice(&sum.to_le_bytes());
        match Ssd::restore_snapshot_bytes(&future, &config) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("expected UnsupportedVersion, got a restored drive"),
        }
        // A different configuration is refused by fingerprint.
        let other_config = config.clone().with_seed(config.seed ^ 1);
        assert!(matches!(
            Ssd::restore_snapshot_bytes(&bytes, &other_config),
            Err(PersistError::ConfigMismatch { .. })
        ));
    }

    /// The restore-time latent-gap regression: a freshly restored drive
    /// with SSD-internal work still pending (an in-flight erase job or
    /// queued GC migrations — exactly the state a power cut strands) must
    /// audit clean with **no session ever attached**, and the pending work
    /// itself must round-trip so the next session can finish it.
    #[test]
    fn restored_drive_with_pending_internal_work_audits_without_a_session() {
        use aero_workloads::TraceSource;
        let config = SsdConfig::small_test(SchemeKind::Baseline).with_seed(5);
        let trace: Trace = SyntheticWorkload {
            read_ratio: 0.1,
            mean_request_bytes: 24.0 * 1024.0,
            mean_inter_arrival_ns: 30_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.2,
        }
        .generate(900, 9);
        let mut ssd = Ssd::new(config.clone());
        ssd.precondition_wear(2500);
        ssd.fill_fraction(0.75);
        // Step until a die actually has internal work pending, then cut the
        // power right there — deterministic, unlike probing fixed event
        // counts whose post-crash state may have already drained.
        let mut sim = ssd.session(TraceSource::new(&trace));
        let mut events = 0u64;
        let mut cut = false;
        while sim.step() {
            events += 1;
            let pending = sim
                .drive()
                .dies
                .iter()
                .any(|d| d.erase_job.is_some() || !d.gc_moves.is_empty());
            if pending {
                sim.power_cut();
                cut = true;
                break;
            }
        }
        drop(sim);
        assert!(
            cut,
            "the write-heavy trace never left internal work pending — retune the workload"
        );
        let bytes = ssd.snapshot_bytes();
        let restored = Ssd::restore_snapshot_bytes(&bytes, &config)
            .unwrap_or_else(|e| panic!("restore at {events} events failed: {e}"));
        // No session has ever been attached to `restored`.
        let report = restored.audit();
        assert!(report.is_clean(), "crash at {events} events: {report}");
        assert!(
            restored
                .dies
                .iter()
                .any(|d| d.erase_job.is_some() || !d.gc_moves.is_empty()),
            "the pending internal work must survive the round-trip"
        );
        assert_eq!(restored.snapshot_bytes(), bytes);
    }

    /// `PersistError` is a real `std::error::Error`: it can ride in a
    /// `Box<dyn Error>`, and the I/O variant exposes its cause through
    /// `source()`. Pinned so the trait impl cannot be dropped silently.
    #[test]
    fn persist_error_implements_std_error() {
        use std::error::Error as _;
        let io_err = PersistError::Io(io::Error::other("disk on fire"));
        assert!(io_err.source().is_some(), "Io keeps its cause");
        assert!(PersistError::BadMagic.source().is_none());
        let boxed: Box<dyn std::error::Error> = Box::new(PersistError::ChecksumMismatch);
        assert!(boxed.to_string().contains("checksum"));
    }

    /// Version-1 snapshots predate the fault model (no fault RNG, no
    /// retired states, no health counters) and must be refused, not
    /// reinterpreted with fault state silently zeroed.
    #[test]
    fn version_1_snapshots_are_rejected() {
        let ssd = exercised_drive(SchemeKind::Aero);
        let mut v1 = ssd.snapshot_bytes();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let body_end = v1.len() - CHECKSUM_BYTES;
        let sum = fnv1a_64(&v1[..body_end]);
        v1[body_end..].copy_from_slice(&sum.to_le_bytes());
        match Ssd::restore_snapshot_bytes(&v1, ssd.config()) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            Err(other) => panic!("expected UnsupportedVersion for v1, got {other:?}"),
            Ok(_) => panic!("expected UnsupportedVersion for v1, got a restored drive"),
        }
    }

    /// Fault state round-trips: a drive that retired blocks under an
    /// active fault model restores byte-identically — health counters,
    /// fault RNG position, and retired-block states included.
    #[test]
    fn faulted_drive_round_trips_with_health_state() {
        use aero_nand::FaultConfig;
        let config = SsdConfig::small_test(SchemeKind::Aero)
            .with_seed(77)
            .with_faults(FaultConfig {
                program_fail_per_million: 20_000,
                erase_fail_per_million: 300_000,
                grown_bad_per_million: 10_000,
                read_fault_per_million: 50_000,
            })
            .with_spare_blocks(8);
        let mut ssd = Ssd::new(config.clone());
        ssd.fill_fraction(0.6);
        let trace: Trace = SyntheticWorkload {
            read_ratio: 0.3,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 4 << 20,
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.3,
        }
        .generate(2_000, 11);
        let report = ssd.run_trace(&trace);
        assert!(
            report.health.erase_failures > 0,
            "the fault rates must retire at least one block for this test to bite"
        );
        let bytes = ssd.snapshot_bytes();
        let restored = Ssd::restore_snapshot_bytes(&bytes, &config).expect("restore");
        assert_eq!(restored.snapshot_bytes(), bytes);
        assert_eq!(restored.retired_blocks(), ssd.retired_blocks());
        assert_eq!(restored.spare_headroom(), ssd.spare_headroom());
        assert!(restored.audit().is_clean(), "{}", restored.audit());
    }

    #[test]
    fn torn_write_helper_truncates_and_flips() {
        let mut bytes = vec![0u8; 16];
        apply_torn_write(&mut bytes, TornWrite::FlipBit(9));
        assert_eq!(bytes[1], 0b10);
        apply_torn_write(&mut bytes, TornWrite::FlipBit(9 + 16 * 8));
        assert_eq!(bytes[1], 0);
        apply_torn_write(&mut bytes, TornWrite::Truncate(4));
        assert_eq!(bytes.len(), 4);
        apply_torn_write(&mut bytes, TornWrite::Truncate(100));
        assert_eq!(bytes.len(), 4);
    }

    #[test]
    fn fingerprint_tracks_every_config_knob() {
        let base = SsdConfig::small_test(SchemeKind::Aero);
        let fp = config_fingerprint(&base);
        assert_ne!(
            fp,
            config_fingerprint(&base.clone().with_seed(99)),
            "seed must be part of the fingerprint"
        );
        assert_ne!(
            fp,
            config_fingerprint(&SsdConfig::small_test(SchemeKind::Baseline)),
            "scheme must be part of the fingerprint"
        );
        assert_ne!(
            fp,
            config_fingerprint(&base.clone().with_channel_layout(1, 2)),
            "layout must be part of the fingerprint"
        );
        assert_eq!(fp, config_fingerprint(&base.clone()), "deterministic");
    }
}
