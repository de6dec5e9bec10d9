//! Isolated layer drivers. Some layers run only inside
//! `Simulation::step`, where outside spans cannot separate them; the traced
//! pass times each of them here on fixed seeded inputs, through its public
//! API, and reports host nanoseconds per operation (median over batches).

use aero_core::{BlockId, EraseController, SchemeKind};
use aero_nand::{
    recover_read, BlockAddr, Chip, ChipConfig, ChipFamily, ChipGeometry, DataPattern, EccConfig,
    PageAddr, RetentionSpec,
};
use aero_ssd::ftl::{DieFtl, PageMapping, Ppa};
use aero_ssd::LatencyRecorder;
use aero_workloads::SyntheticWorkload;

use crate::clock::{now_ns, status_kib};
use crate::common::{median, mix};

/// Metric name → value, in the order measured.
pub type Rows = Vec<(String, f64)>;

/// Scheme names as the metric names spell them.
pub fn scheme_slug(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Baseline => "baseline",
        SchemeKind::IIspe => "iispe",
        SchemeKind::Dpes => "dpes",
        SchemeKind::AeroCons => "aero_cons",
        SchemeKind::Aero => "aero",
    }
}

/// A chip of the paper family with `blocks` blocks of `pages` pages.
fn chip(blocks: u32, pages: u32, seed: u64) -> Chip {
    let mut family = ChipFamily::tlc_3d_48l();
    family.geometry = ChipGeometry {
        planes: 1,
        blocks_per_plane: blocks,
        pages_per_block: pages,
        page_size_bytes: 16 * 1024,
        wordlines_per_block: 86,
    };
    Chip::new(ChipConfig::new(family).with_seed(seed))
}

/// Times `batch` `rounds` times; each call does `ops` operations. Returns
/// the median nanoseconds per operation.
fn per_op(rounds: usize, ops: u64, mut batch: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|round| {
            let start = now_ns();
            batch(round);
            (now_ns() - start) as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// `EraseController::erase` for every scheme at 0.5K, 2.5K and 4.5K PEC:
/// 48 blocks pre-aged to the wear level, each programmed and erased four
/// times; the median single erase.
fn erase(seed: u64, rows: &mut Rows) {
    const BLOCKS: u32 = 48;
    for kind in SchemeKind::all() {
        for pec in [500u32, 2_500, 4_500] {
            let mut chip = chip(BLOCKS, 64, mix(seed, pec as u64));
            let mut controller = EraseController::new(kind.build(chip.family()));
            let blocks: Vec<BlockAddr> = chip.geometry().iter_blocks().collect();
            for &b in &blocks {
                chip.precondition_block(b, pec).expect("block is in range");
            }
            let mut samples = Vec::with_capacity(blocks.len() * 4);
            for _ in 0..4 {
                for (i, &b) in blocks.iter().enumerate() {
                    chip.program_block_bulk(b, DataPattern::Randomized)
                        .expect("erased block is programmable");
                    let start = now_ns();
                    let erased = controller.erase(&mut chip, b, BlockId(i));
                    samples.push((now_ns() - start) as f64);
                    std::hint::black_box(erased).expect("a pre-aged block still erases");
                }
            }
            rows.push((
                format!("iso.erase.{}.pec{pec}.ns", scheme_slug(kind)),
                median(&samples),
            ));
        }
    }
}

/// `Chip::program_page`, `Chip::read_page` and `recover_read`.
fn nand(seed: u64, rows: &mut Rows) {
    const BLOCKS: u32 = 32;
    const PAGES: u32 = 256;
    let mut chip = chip(BLOCKS, PAGES, mix(seed, 11));
    let blocks: Vec<BlockAddr> = chip.geometry().iter_blocks().collect();
    rows.push((
        "iso.nand.program_page.ns".into(),
        per_op(blocks.len(), PAGES as u64, |i| {
            for page in 0..PAGES {
                let report =
                    chip.program_page(PageAddr::new(blocks[i], page), DataPattern::Randomized);
                std::hint::black_box(report).expect("in-order program of an erased block");
            }
        }),
    ));
    let retention = RetentionSpec::one_year_30c();
    rows.push((
        "iso.nand.read_page.ns".into(),
        per_op(blocks.len(), PAGES as u64, |i| {
            for page in 0..PAGES {
                let report = chip.read_page(PageAddr::new(blocks[i], page), retention);
                std::hint::black_box(report).expect("programmed page reads");
            }
        }),
    ));
    // Spiked reads from just under the ECC capability to well past it, so
    // the ladder runs every depth from a clean decode to a media error.
    let ecc = EccConfig::paper_default();
    let capability = ecc.capability_per_kib as f64;
    const READS: u64 = 4_096;
    rows.push((
        "iso.nand.recover_read.ns".into(),
        per_op(32, READS, |round| {
            for i in 0..READS {
                let u = (mix(seed ^ round as u64, i) >> 11) as f64 / (1u64 << 53) as f64;
                let errors = capability * (0.8 + 1.6 * u);
                std::hint::black_box(recover_read(&ecc, std::hint::black_box(errors), 60_000));
            }
        }),
    ));
}

/// `DieFtl::allocate_page` + `PageMapping::update` + `mark_invalid` for
/// user writes at the paper drive's per-die shape (128 blocks of 256
/// pages, 70% of it live), with greedy collections between batches; then
/// `pick_gc_victim` on the steady-state die.
fn ftl(seed: u64, rows: &mut Rows) {
    const BLOCKS: u32 = 128;
    const PAGES: u32 = 256;
    const BATCH: u64 = PAGES as u64;
    let logical = (BLOCKS * PAGES) as u64 * 7 / 10;
    let mut ftl = DieFtl::new(BLOCKS, PAGES);
    let mut mapping = PageMapping::new(logical);
    let mut p2l = vec![u64::MAX; (BLOCKS * PAGES) as usize];
    let write = |ftl: &mut DieFtl, mapping: &mut PageMapping, p2l: &mut [u64], lpn: u64| {
        let (block, page, _) = ftl.allocate_page().expect("collection keeps free blocks");
        let ppa = Ppa {
            die: 0,
            block,
            page,
        };
        p2l[(block * PAGES + page) as usize] = lpn;
        if let Some(old) = mapping.update(lpn, ppa) {
            ftl.block_mut(old.block).mark_invalid(old.page);
            p2l[(old.block * PAGES + old.page) as usize] = u64::MAX;
        }
    };
    for lpn in 0..logical {
        write(&mut ftl, &mut mapping, &mut p2l, lpn);
    }
    let mut next = 0u64;
    let mut samples = Vec::with_capacity(512);
    for _ in 0..512 {
        // Greedy collection, untimed: migrate the victim's live pages and
        // return it to the free list.
        while ftl.free_block_count() < 3 {
            let victim = ftl.pick_gc_victim().expect("a full block with dead pages");
            ftl.start_collecting(victim);
            let live: Vec<u32> = ftl.block(victim).valid_page_indices().collect();
            for page in live {
                let lpn = p2l[(victim * PAGES + page) as usize];
                write(&mut ftl, &mut mapping, &mut p2l, lpn);
            }
            ftl.start_erasing(victim);
            ftl.finish_erase(victim);
        }
        let start = now_ns();
        for _ in 0..BATCH {
            next += 1;
            // 80% of writes to the hottest 20% of the logical space.
            let r = mix(seed, next);
            let lpn = if r % 10 < 8 {
                (r >> 8) % (logical / 5)
            } else {
                (r >> 8) % logical
            };
            write(&mut ftl, &mut mapping, &mut p2l, lpn);
        }
        samples.push((now_ns() - start) as f64 / BATCH as f64);
    }
    let ns = median(&samples);
    rows.push(("iso.ftl.write.ns".into(), ns));
    rows.push((
        "iso.ftl.gc_victim.ns".into(),
        per_op(64, 256, |_| {
            for _ in 0..256 {
                std::hint::black_box(std::hint::black_box(&ftl).pick_gc_victim());
            }
        }),
    ));
}

/// `LatencyRecorder::record`, `percentile` (incremental, one query per
/// 200K new samples, as a telemetry poll sees it) and `merge`, plus the
/// resident bytes one recorded sample costs once its sorted copy exists.
fn latency(seed: u64, rows: &mut Rows) {
    const SAMPLES: u64 = 1 << 21;
    const WINDOW: u64 = 1 << 17;
    let value = |i: u64| 20_000 + (mix(seed, i) >> 40);
    let rss_before = status_kib("VmRSS");
    let mut recorder = LatencyRecorder::new();
    let mut record_ns = Vec::new();
    let mut query_ns = Vec::new();
    for window in 0..SAMPLES / WINDOW {
        let start = now_ns();
        for i in window * WINDOW..(window + 1) * WINDOW {
            recorder.record(value(i));
        }
        let mid = now_ns();
        std::hint::black_box(recorder.percentile(99.9));
        let end = now_ns();
        record_ns.push((mid - start) as f64 / WINDOW as f64);
        query_ns.push((end - mid) as f64);
    }
    let rss_after = status_kib("VmRSS");
    rows.push(("iso.latency.record.ns".into(), median(&record_ns)));
    rows.push(("iso.latency.percentile.ns".into(), median(&query_ns)));
    let bytes = match (rss_before, rss_after) {
        (Some(before), Some(after)) => {
            after.saturating_sub(before) as f64 * 1024.0 / SAMPLES as f64
        }
        _ => 0.0,
    };
    rows.push(("iso.latency.bytes_per_sample".into(), bytes));
    let mut other = LatencyRecorder::new();
    for i in 0..WINDOW {
        other.record(value(SAMPLES + i));
    }
    rows.push((
        "iso.latency.merge.ns".into(),
        per_op(16, WINDOW, |_| {
            let mut into = LatencyRecorder::new();
            into.merge(std::hint::black_box(&other));
            std::hint::black_box(&into);
        }),
    ));
    drop(recorder);
}

/// `SyntheticStream::next` for `stream_paper`'s request mix.
fn synth(seed: u64, rows: &mut Rows) {
    const REQUESTS: u64 = 1 << 16;
    let workload = SyntheticWorkload {
        read_ratio: 0.5,
        mean_request_bytes: 16.0 * 1024.0,
        mean_inter_arrival_ns: 50_000.0,
        footprint_bytes: 4 << 30,
        hot_access_fraction: 0.8,
        hot_region_fraction: 0.2,
    };
    let mut stream = workload.stream(mix(seed, 12));
    rows.push((
        "iso.synth.ns".into(),
        per_op(32, REQUESTS, |_| {
            for _ in 0..REQUESTS {
                std::hint::black_box(stream.next());
            }
        }),
    ));
}

/// Runs every isolated driver.
pub fn run(seed: u64) -> Rows {
    let mut rows = Rows::new();
    erase(seed, &mut rows);
    nand(seed, &mut rows);
    ftl(seed, &mut rows);
    latency(seed, &mut rows);
    synth(seed, &mut rows);
    rows
}
