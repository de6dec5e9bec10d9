//! `lifetime_fig13`: the Figure 13 study as the `fig13` binary runs it —
//! five schemes, 12 blocks each, cycled to 9K PEC with an `M_RBER` sample
//! every 500 cycles — on [`STUDIES`] seeded chip populations per batch.
//! Twelve blocks are few, so the erase loops a batch needs, and with them
//! its host time, depend on the seed's per-block process variation; four
//! populations narrow that, and the work counters print the loop count.
//!
//! Erase-loop physics, fail-bit sampling, scheme decisions and the RBER
//! model do nearly all the work; no FTL, event loop or latency recorder
//! runs, so this workload bypasses the session entirely.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use aero_characterize::lifetime_study::{self, LifetimeStudyConfig, SchemeLifetime};
use aero_core::{BlockId, EraseController, EraseScheme, SchemeKind};
use aero_nand::{Chip, ChipConfig, ChipGeometry, DataPattern, EccConfig, RetentionSpec};

use crate::clock::now_ns;
use crate::common::{mix, Batch, Counters};
use crate::trace::Tracer;

/// Studies (chip populations) per batch.
pub const STUDIES: u64 = 4;

/// The configuration of study `k` for a benchmark seed.
pub fn config(seed: u64, k: u64) -> LifetimeStudyConfig {
    LifetimeStudyConfig {
        blocks_per_scheme: 12,
        max_pec: 9_000,
        sample_every: 500,
        seed: mix(seed, 40 + k),
        ..LifetimeStudyConfig::paper_default()
    }
}

/// Digest of the studies' output: every curve point and every lifetime.
fn digest(schemes: &[SchemeLifetime]) -> u64 {
    let mut h = DefaultHasher::new();
    for s in schemes {
        s.scheme.label().hash(&mut h);
        for &(pec, m) in &s.curve {
            pec.hash(&mut h);
            m.to_bits().hash(&mut h);
        }
        s.lifetime_pec.hash(&mut h);
    }
    h.finish()
}

/// The studies exactly as `fig13` runs them, through `lifetime_study::run`:
/// what the untraced batches time, and the reference the re-implementation
/// below must reproduce. Each study is timed on its own (a part), with
/// `before_study` run untimed before it. `lifetime_study::run` reports no
/// erase count, so `ops` is 0 and set-up is not split out; the caller
/// fills in the erase count of a [`batch`] whose digest matched.
pub fn canonical(seed: u64, mut before_study: impl FnMut()) -> Batch {
    let mut schemes: Vec<SchemeLifetime> = Vec::new();
    let mut parts_ns = Vec::new();
    for k in 0..STUDIES {
        before_study();
        let start = now_ns();
        schemes.extend(lifetime_study::run(&config(seed, k)).schemes);
        parts_ns.push(now_ns() - start);
    }
    let wall_ns = parts_ns.iter().sum();
    Batch {
        replay_ns: wall_ns,
        wall_ns,
        digest: digest(&schemes),
        parts_ns,
        ..Batch::default()
    }
}

/// `run_scheme`'s set-up: a chip holding exactly the cycled block set, and
/// the scheme's controller.
fn build(
    config: &LifetimeStudyConfig,
    kind: SchemeKind,
) -> (Chip, EraseController<Box<dyn EraseScheme>>) {
    let mut family = config.family.clone();
    family.geometry = ChipGeometry {
        planes: 1,
        blocks_per_plane: config.blocks_per_scheme,
        pages_per_block: 64,
        page_size_bytes: 16 * 1024,
        wordlines_per_block: 22,
    };
    let chip = Chip::new(ChipConfig::new(family.clone()).with_seed(config.seed));
    let ecc =
        EccConfig::paper_default().with_requirement((config.requirement.round() as u32).min(72));
    (
        chip,
        EraseController::new(kind.build_with_requirement(&family, &ecc)),
    )
}

/// One scheme's cycling, with host time split by layer.
pub struct SchemeOut {
    /// The scheme's Figure 13 curve.
    pub lifetime: SchemeLifetime,
    /// Chip + controller construction.
    pub setup_ns: u64,
    /// Everything after set-up.
    pub cycle_ns: u64,
    /// `EraseController::erase` calls.
    pub erases: u64,
    /// Erase loops the controller recorded.
    pub loops: u64,
    /// `Chip::program_block_bulk` calls.
    pub programs: u64,
    /// `Chip::m_rber` calls.
    pub rber_samples: u64,
    /// Host time inside `erase` (traced only).
    pub erase_ns: u64,
    /// Host time inside `program_block_bulk` (traced only).
    pub program_ns: u64,
    /// Host time inside `m_rber` (traced only).
    pub rber_ns: u64,
    /// This scheme's spans (traced only).
    pub lane: Option<Tracer>,
}

/// `lifetime_study::run_scheme`, re-implemented step for step so set-up
/// and each `erase`, `program_block_bulk` and `m_rber` call can be timed.
/// Its output must equal `run_scheme`'s.
pub fn run_scheme(config: &LifetimeStudyConfig, kind: SchemeKind, lane: Option<u32>) -> SchemeOut {
    let traced = lane.is_some();
    let mut tracer = lane.map(Tracer::new);
    if let Some(t) = tracer.as_mut() {
        t.enter("exec.job");
        t.enter("setup.new");
    }
    let start = now_ns();
    let (mut chip, mut controller) = build(config, kind);
    let retention = RetentionSpec::one_year_30c();
    let blocks: Vec<_> = chip.geometry().iter_blocks().collect();
    let cycle_start = now_ns();
    if let Some(t) = tracer.as_mut() {
        t.exit();
    }

    let mut out = SchemeOut {
        lifetime: SchemeLifetime {
            scheme: kind,
            curve: Vec::new(),
            lifetime_pec: None,
        },
        setup_ns: cycle_start - start,
        cycle_ns: 0,
        erases: 0,
        loops: 0,
        programs: 0,
        rber_samples: 0,
        erase_ns: 0,
        program_ns: 0,
        rber_ns: 0,
        lane: None,
    };
    let mut curve: BTreeMap<u32, f64> = BTreeMap::new();
    let mut sample = |chip: &Chip, pec: u32, out: &mut SchemeOut, tracer: &mut Option<Tracer>| {
        let t0 = if traced { now_ns() } else { 0 };
        let sum: f64 = blocks
            .iter()
            .map(|&b| chip.m_rber(b, retention).expect("block address is valid"))
            .sum();
        out.rber_samples += blocks.len() as u64;
        if let Some(t) = tracer.as_mut() {
            let ns = now_ns() - t0;
            out.rber_ns += ns;
            t.aggregate("nand.rber", ns, blocks.len() as u64);
        }
        let avg = sum / blocks.len() as f64;
        curve.insert(pec, avg);
        if out.lifetime.lifetime_pec.is_none() && avg > config.requirement {
            out.lifetime.lifetime_pec = Some(pec);
        }
    };
    sample(&chip, 0, &mut out, &mut tracer);
    // Blocks that exhaust the chip's loop budget without erasing are worn
    // out; they stop being cycled but keep contributing their last RBER.
    let mut alive = vec![true; blocks.len()];
    let mut pec = 0u32;
    while pec < config.max_pec {
        let next_sample = (pec + config.sample_every).min(config.max_pec);
        let (mut erase_ns, mut program_ns, mut erases, mut programs) = (0u64, 0u64, 0u64, 0u64);
        while pec < next_sample {
            for (i, &block) in blocks.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                let t0 = if traced { now_ns() } else { 0 };
                let erased = controller.erase(&mut chip, block, BlockId(i));
                erases += 1;
                match erased {
                    Ok(_) => {
                        let t1 = if traced { now_ns() } else { 0 };
                        chip.program_block_bulk(block, DataPattern::Randomized)
                            .expect("freshly erased block is programmable");
                        programs += 1;
                        if traced {
                            let t2 = now_ns();
                            erase_ns += t1 - t0;
                            program_ns += t2 - t1;
                        }
                    }
                    Err(_) => {
                        if traced {
                            erase_ns += now_ns() - t0;
                        }
                        alive[i] = false;
                    }
                }
            }
            pec += 1;
        }
        out.erases += erases;
        out.programs += programs;
        out.erase_ns += erase_ns;
        out.program_ns += program_ns;
        if let Some(t) = tracer.as_mut() {
            t.aggregate("erase.op", erase_ns, erases);
            t.aggregate("nand.program", program_ns, programs);
        }
        sample(&chip, pec, &mut out, &mut tracer);
    }
    out.cycle_ns = now_ns() - cycle_start;
    out.loops = controller.stats().loops;
    out.lifetime.curve = curve.into_iter().collect();
    if let Some(t) = tracer.as_mut() {
        t.exit();
    }
    out.lane = tracer;
    out
}

/// The study's results with per-scheme detail.
pub struct LifetimeOut {
    /// Batch totals.
    pub batch: Batch,
    /// Per scheme, in `SchemeKind::all` order.
    pub schemes: Vec<SchemeOut>,
}

/// Runs every (study, scheme) pair through [`run_scheme`] as one flat job
/// list on the `par_map` pool, as `lifetime_study::run` does per study.
pub fn batch(seed: u64, traced: bool) -> LifetimeOut {
    let configs: Vec<LifetimeStudyConfig> = (0..STUDIES).map(|k| config(seed, k)).collect();
    let jobs: Vec<(usize, SchemeKind)> = (0..configs.len())
        .flat_map(|k| SchemeKind::all().into_iter().map(move |kind| (k, kind)))
        .collect();
    let start = now_ns();
    let schemes = aero_exec::par_map(jobs.into_iter().enumerate().collect(), |(i, (k, kind))| {
        run_scheme(&configs[k], kind, traced.then_some(i as u32 + 1))
    });
    let wall_ns = now_ns() - start;
    let lifetimes: Vec<SchemeLifetime> = schemes.iter().map(|s| s.lifetime.clone()).collect();
    let mut counters = Counters::new();
    for s in &schemes {
        *counters.entry("erases").or_insert(0) += s.erases;
        *counters.entry("erase_loops").or_insert(0) += s.loops;
        *counters.entry("programs").or_insert(0) += s.programs;
        *counters.entry("rber_samples").or_insert(0) += s.rber_samples;
    }
    for s in &lifetimes {
        assert_eq!(
            s.curve.len() as u32,
            1 + configs[0].max_pec.div_ceil(configs[0].sample_every),
            "one M_RBER sample per interval"
        );
    }
    LifetimeOut {
        batch: Batch {
            ops: counters["erases"],
            setup_ns: schemes.iter().map(|s| s.setup_ns).sum(),
            replay_ns: schemes.iter().map(|s| s.cycle_ns).sum(),
            wall_ns,
            digest: digest(&lifetimes),
            counters,
            ..Batch::default()
        },
        schemes,
    }
}

/// Set-up alone — chip and controller construction for every (study,
/// scheme) job of a batch — as the mean of 256 repetitions: one set-up
/// takes tens of microseconds, and a probe of ~10 ms is long enough for a
/// steady sample.
pub fn setup_only(seed: u64) -> u64 {
    const REPEATS: u64 = 256;
    let configs: Vec<LifetimeStudyConfig> = (0..STUDIES).map(|k| config(seed, k)).collect();
    let start = now_ns();
    for _ in 0..REPEATS {
        for config in &configs {
            for kind in SchemeKind::all() {
                std::hint::black_box(build(config, kind));
            }
        }
    }
    (now_ns() - start) / REPEATS
}
