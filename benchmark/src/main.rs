//! The repository's benchmark driver: runs one named workload through the
//! public API of the simulation crates and prints its metrics.
//!
//! ```text
//! aero-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload's batch for `--seconds` of host time
//! and prints the end-to-end metrics (the fastest repeat); `--trace 1`
//! runs the traced pass and prints the per-layer metrics. Every batch's
//! simulated output is hashed into a digest that must match the canonical
//! harness path and every other batch of the run; a panic or mismatch marks
//! the run incorrect and fails all its operations. The last line of
//! standard output is one JSON object; see `README.md` for every metric.

#![forbid(unsafe_code)]

mod clock;
mod common;
mod drive;
mod iso;
mod lifetime;
mod stream;
mod tenants;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use aero_core::SchemeKind;

use crate::clock::{now_ns, status_kib};
use crate::common::{median, tail, Batch, Counters};
use crate::trace::{reduce, Tracer};

/// Worker threads of the timed batches: pinned, never read from the
/// machine. One: on a 2-vCPU VM two workers contend for one core's
/// execution resources, and the run-to-run spread of `wall_s` on the
/// `par_map` workloads measured 0.20–0.23 (IQR ÷ median over five seeds)
/// at two threads against 0.02–0.10 at one.
const THREADS: usize = 1;

/// Worker threads of the traced run's parallel batch, which measures the
/// `exec` layer (`par_map`) itself.
const PARALLEL_THREADS: usize = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["stream_paper", "lifetime_fig13", "tenants_faulted"];

/// `(name, unit)` of every end-to-end metric.
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose self time the traced pass reports as a share of its budget.
const LAYERS: [&str; 8] = [
    "setup", "synth", "session", "latency", "host", "erase", "nand", "exec",
];

/// `(name, unit)` of every per-layer metric.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("trace.wall_s", "s");
    add("trace.overhead_frac", "frac");
    add("trace.other_frac", "frac");
    for layer in LAYERS {
        add(&format!("{layer}.self_frac"), "frac");
    }
    add("synth.requests", "count");
    add("synth.ns_per_req", "ns/req");
    add("setup.new_ms", "ms/setup");
    add("setup.precondition_ms", "ms/setup");
    add("setup.fill_ms", "ms/setup");
    add("setup.pages_filled", "count");
    add("session.events", "count");
    add("session.events_per_req", "events/req");
    add("session.ns_per_event", "ns/event");
    add("session.ns_per_event_tail", "ns/event");
    add("ftl.user_pages", "count");
    add("ftl.gc_pages", "count");
    add("ftl.gc_invocations", "count");
    add("ftl.waf", "ratio");
    add("channel.transfers", "count");
    add("channel.waited_transfers", "count");
    add("channel.busy_frac", "sim_frac");
    add("erase.ops", "count");
    add("erase.loops_per_op", "loops/op");
    add("erase.suspensions", "count");
    add("erase.sim_us_per_op", "sim_us/op");
    for kind in SchemeKind::all() {
        let s = iso::scheme_slug(kind);
        add(&format!("erase.{s}.ns_per_op"), "ns/op");
        add(&format!("erase.{s}.loops_per_op"), "loops/op");
    }
    add("nand.program_us_per_block", "us/block");
    add("nand.rber_us_per_sample", "us/sample");
    add("nand.rber_samples", "count");
    add("latency.polls", "count");
    add("latency.poll_us", "us/poll");
    add("latency.report_ms", "ms/report");
    add("latency.samples_held", "count");
    add("host.submitted", "count");
    add("host.deferred", "count");
    add("host.queue_high_water", "count");
    add("host.ns_per_req", "ns/req");
    add("fault.program_failures", "count");
    add("fault.erase_failures", "count");
    add("fault.retired_blocks", "count");
    add("fault.recovered_reads", "count");
    add("fault.media_errors", "count");
    add("fault.overhead_frac", "frac");
    add("exec.threads", "count");
    add("exec.speedup", "ratio");
    add("exec.parallel_eff", "frac");
    add("exec.job_ms_p50", "ms/job");
    add("exec.job_ms_tail", "ms/job");
    for kind in SchemeKind::all() {
        for pec in [500, 2_500, 4_500] {
            add(
                &format!("iso.erase.{}.pec{pec}.ns", iso::scheme_slug(kind)),
                "ns/op",
            );
        }
    }
    for name in [
        "iso.nand.program_page.ns",
        "iso.nand.read_page.ns",
        "iso.nand.recover_read.ns",
        "iso.ftl.write.ns",
        "iso.ftl.gc_victim.ns",
        "iso.latency.record.ns",
        "iso.latency.percentile.ns",
        "iso.latency.merge.ns",
        "iso.synth.ns",
    ] {
        add(name, "ns/op");
    }
    add("iso.latency.bytes_per_sample", "B/sample");
    m
}

/// Operations attempted so far in this process, for the failure report.
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);

/// A run's verdict and metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    metrics: BTreeMap<String, f64>,
}

/// Checks a batch against the run's reference digest and counters.
struct Checker {
    digest: Option<u64>,
    counters: Option<Counters>,
    ok: bool,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            digest: None,
            counters: None,
            ok: true,
        }
    }

    /// Records a batch: the first digest (and first counters) seen are the
    /// reference every later batch must equal.
    fn check(&mut self, what: &str, batch: &Batch) {
        ATTEMPTED.fetch_add(batch.ops, Ordering::SeqCst);
        let reference = *self.digest.get_or_insert(batch.digest);
        if batch.digest != reference {
            eprintln!(
                "aero-benchmark: {what}: digest {:#018x} != reference {reference:#018x}",
                batch.digest
            );
            self.ok = false;
        }
        if batch.counters.is_empty() {
            return;
        }
        match &self.counters {
            None => self.counters = Some(batch.counters.clone()),
            Some(c) if *c != batch.counters => {
                eprintln!("aero-benchmark: {what}: work counters differ from the first batch");
                self.ok = false;
            }
            Some(_) => {}
        }
    }

    /// Requires an invariant, logging it when broken.
    fn require(&mut self, holds: bool, what: &str) {
        if !holds {
            eprintln!("aero-benchmark: check failed: {what}");
            self.ok = false;
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Prints the digest and the exact work counters, each also per operation,
/// plus the write amplification (user + GC page programs over user page
/// programs) where the batch programs pages.
fn print_counters(workload: &str, batch: &Batch) {
    println!(
        "{workload}: digest={:#018x} ops={}",
        batch.digest, batch.ops
    );
    for (name, value) in &batch.counters {
        println!(
            "  {name:<24} {value:>14}  ({:.4} per op)",
            ratio(*value, batch.ops)
        );
    }
    let c = &batch.counters;
    if let (Some(&user), Some(&gc)) = (c.get("user_pages"), c.get("gc_pages")) {
        println!("  {:<24} {:>14.6}", "waf", ratio(user + gc, user));
    }
}

/// Set-up-only probes run before each timed batch, or before each timed
/// part of one. A batch holds a single drive set-up (or microseconds of
/// chip building), too few samples on their own; probes spread through the
/// run meet the same host conditions as the batches.
const PROBES_PER_PART: usize = 3;

/// Runs [`PROBES_PER_PART`] set-up-only probes, adding their host seconds
/// to `samples`.
fn probe_setup(workload: &str, seed: u64, samples: &mut Vec<f64>) {
    for _ in 0..PROBES_PER_PART {
        let ns = match workload {
            "stream_paper" => stream::setup_only(seed).total_ns(),
            "tenants_faulted" => tenants::setup_only(seed).total_ns(),
            _ => lifetime::setup_only(seed),
        };
        samples.push(ns as f64 / 1e9);
    }
}

/// The fastest of a run's repeats: what the host-time end-to-end metrics
/// report. Interference from other work on the host only ever adds time,
/// and on the shared 2-vCPU VM the benchmark was tuned on it comes in
/// phases of tens of seconds that run ~1.6× slower. A run's median then
/// depends on how much of it fell into a slow phase: over five seeds the
/// median's spread (IQR ÷ median) was 0.29 on `tenants_faulted`'s `wall_s`
/// and 0.35 on its `setup_s`, against 0.11 and 0.04 for the minimum.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs batches until `seconds` of host time have passed (at least three).
/// The first batch is the reference every later one must reproduce. For
/// `lifetime_fig13` the timed batches are the harness's own
/// `lifetime_study::run`, which reports no erase count, so an untimed pass
/// of the benchmark's step-for-step copy comes first: it counts the erases
/// and is the reference.
fn untraced(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let deadline = now_ns() + seconds * 1_000_000_000;
    let mut check = Checker::new();
    let mut batches: Vec<Batch> = Vec::new();
    let mut setup_samples: Vec<f64> = Vec::new();
    let counted = (workload == "lifetime_fig13").then(|| {
        let copy = lifetime::batch(seed, false).batch;
        check.check("counted copy", &copy);
        copy
    });
    while batches.len() < 3 || now_ns() < deadline {
        let batch = match (workload, &counted) {
            (_, Some(counted)) => Batch {
                ops: counted.ops,
                ..lifetime::canonical(seed, || probe_setup(workload, seed, &mut setup_samples))
            },
            ("stream_paper", None) => {
                probe_setup(workload, seed, &mut setup_samples);
                stream::batch(seed, stream::Pass::Plain, None).batch
            }
            _ => {
                probe_setup(workload, seed, &mut setup_samples);
                tenants::batch(seed, true, None).batch
            }
        };
        check.check("timed batch", &batch);
        batches.push(batch);
    }
    print_counters(workload, counted.as_ref().unwrap_or(&batches[0]));
    // Replay time per operation: its minimum gives the best `ops_per_s`.
    let replay: Vec<f64> = batches
        .iter()
        .map(|b| b.replay_ns as f64 / 1e9 / b.ops as f64)
        .collect();
    let walls: Vec<f64> = batches.iter().map(|b| b.wall_ns as f64 / 1e9).collect();
    println!(
        "{workload}: {} timed batches, wall_s min {:.3} median {:.3} max {:.3}; \
         {} set-up probes, setup_s min {:.6} median {:.6}",
        batches.len(),
        fastest(&walls),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        setup_samples.len(),
        fastest(&setup_samples),
        median(&setup_samples)
    );
    // A batch timed in parts takes each part's fastest run: a ~1 s study
    // meets a fast moment of the host more often than the ~4 s batch does.
    // Its set-up (microseconds) is not split out.
    let parts = batches[0].parts_ns.len();
    let (wall_s, ops_per_s) = if parts == 0 {
        (fastest(&walls), 1.0 / fastest(&replay))
    } else {
        let wall: f64 = (0..parts)
            .map(|p| {
                let runs: Vec<f64> = batches.iter().map(|b| b.parts_ns[p] as f64 / 1e9).collect();
                fastest(&runs)
            })
            .sum();
        (wall, batches[0].ops as f64 / wall)
    };
    let mut metrics = BTreeMap::new();
    metrics.insert("ops_per_s".to_string(), ops_per_s);
    metrics.insert("wall_s".to_string(), wall_s);
    metrics.insert("setup_s".to_string(), fastest(&setup_samples));
    metrics.insert(
        "peak_rss_mb".to_string(),
        status_kib("VmHWM").unwrap_or(0) as f64 / 1024.0,
    );
    Outcome {
        correct: check.ok,
        attempted: ATTEMPTED.load(Ordering::SeqCst),
        metrics,
    }
}

/// Per-layer metrics shared by the drive workloads: device work from the
/// counters, set-up steps, latency recorder occupancy.
fn device_metrics(m: &mut BTreeMap<String, f64>, c: &Counters, setup: drive::SetupTimes) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let requests = get("requests");
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("setup.new_ms", setup.new_ns as f64 / 1e6);
    put("setup.precondition_ms", setup.precondition_ns as f64 / 1e6);
    put("setup.fill_ms", setup.fill_ns as f64 / 1e6);
    put("setup.pages_filled", get("pages_filled") as f64);
    put("session.events", get("events") as f64);
    put("session.events_per_req", ratio(get("events"), requests));
    put("ftl.user_pages", get("user_pages") as f64);
    put("ftl.gc_pages", get("gc_pages") as f64);
    put("ftl.gc_invocations", get("gc_invocations") as f64);
    put(
        "ftl.waf",
        ratio(get("user_pages") + get("gc_pages"), get("user_pages")),
    );
    put("channel.transfers", get("transfers") as f64);
    put("channel.waited_transfers", get("waited_transfers") as f64);
    put(
        "channel.busy_frac",
        get("channel_busy_ns") as f64
            / (get("channels") as f64 * get("makespan_ns") as f64).max(1.0),
    );
    put("erase.ops", get("erases") as f64);
    put(
        "erase.loops_per_op",
        ratio(get("erase_loops"), get("erases")),
    );
    put("erase.suspensions", get("suspensions") as f64);
    put(
        "erase.sim_us_per_op",
        ratio(get("erase_sim_ns"), get("erases")) / 1e3,
    );
    put("latency.samples_held", get("samples_held") as f64);
    put("fault.program_failures", get("program_failures") as f64);
    put("fault.erase_failures", get("erase_failures") as f64);
    put("fault.retired_blocks", get("retired_blocks") as f64);
    put("fault.recovered_reads", get("recovered_reads") as f64);
    put("fault.media_errors", get("media_errors") as f64);
}

/// Runs untraced and traced batches interleaved (U T U T), checks each
/// against the run's reference, records both batch times, and returns the
/// last traced batch's result with its spans.
fn interleave<T>(
    check: &mut Checker,
    untraced_ns: &mut Vec<f64>,
    traced_ns: &mut Vec<f64>,
    plain: impl Fn() -> Batch,
    traced: impl Fn(&mut Tracer) -> T,
    batch: impl Fn(&T) -> &Batch,
) -> (T, Tracer) {
    let mut last = None;
    for _ in 0..2 {
        let u = plain();
        check.check("untraced", &u);
        untraced_ns.push(u.wall_ns as f64);
        let mut t = Tracer::new(0);
        t.enter("batch");
        let out = traced(&mut t);
        t.exit();
        check.check("traced", batch(&out));
        traced_ns.push(batch(&out).wall_ns as f64);
        last = Some((out, t));
    }
    last.expect("two traced batches ran")
}

/// The traced pass: a reference batch, untraced and traced batches
/// interleaved (U T U T) for the tracing overhead, the workload's own
/// verification pass, then the isolated layer drivers.
fn traced(workload: &str, seed: u64) -> Outcome {
    let mut check = Checker::new();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut untraced_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let last_trace: Tracer;
    m.insert("exec.threads".into(), THREADS as f64);

    match workload {
        "stream_paper" => {
            check.check(
                "reference",
                &stream::batch(seed, stream::Pass::Plain, None).batch,
            );
            let (o, t) = interleave(
                &mut check,
                &mut untraced_ns,
                &mut traced_ns,
                || stream::batch(seed, stream::Pass::Plain, None).batch,
                |t| stream::batch(seed, stream::Pass::Traced, Some(t)),
                |o| &o.batch,
            );
            last_trace = t;
            let observed = stream::batch(seed, stream::Pass::Observed, None);
            check.check("observed", &observed.batch);
            let seen = observed.observed.expect("observer attached");
            let c = &o.batch.counters;
            check.require(
                seen.completions == stream::REQUESTS,
                "observer saw every completion",
            );
            check.require(
                seen.user_pages == c["user_pages"],
                "observer user pages = drive delta",
            );
            check.require(seen.gc_pages == c["gc_pages"], "observer GC pages = report");
            check.require(seen.erases == c["erases"], "observer erases = report");
            check.require(
                seen.erase_loops == c["erase_loops"] && seen.gc_invocations == c["gc_invocations"],
                "observer erase loops and GC invocations = report",
            );
            device_metrics(&mut m, c, o.setup);
            m.insert("ftl.user_pages".into(), seen.user_pages as f64);
            m.insert("ftl.gc_pages".into(), seen.gc_pages as f64);
            m.insert(
                "ftl.waf".into(),
                ratio(seen.user_pages + seen.gc_pages, seen.user_pages),
            );
            m.insert(
                "session.ns_per_event".into(),
                median(&o.windows.ns_per_event),
            );
            m.insert(
                "session.ns_per_event_tail".into(),
                tail(&o.windows.ns_per_event),
            );
            m.insert("latency.polls".into(), o.windows.polls as f64);
            print_counters(workload, &o.batch);
        }
        "lifetime_fig13" => {
            check.check("reference", &lifetime::canonical(seed, || {}));
            let (o, t) = interleave(
                &mut check,
                &mut untraced_ns,
                &mut traced_ns,
                || lifetime::batch(seed, false).batch,
                |t| {
                    let mut o = lifetime::batch(seed, true);
                    for s in &mut o.schemes {
                        if let Some(lane) = s.lane.take() {
                            t.absorb(lane);
                        }
                    }
                    o
                },
                |o| &o.batch,
            );
            last_trace = t;
            let (mut programs, mut program_ns, mut samples, mut rber_ns) = (0, 0, 0, 0);
            // Per scheme, summed over the batch's studies: (erase ns, erases, loops).
            let mut per_scheme: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
            for s in &o.schemes {
                let e = per_scheme
                    .entry(iso::scheme_slug(s.lifetime.scheme))
                    .or_default();
                e.0 += s.erase_ns;
                e.1 += s.erases;
                e.2 += s.loops;
                programs += s.programs;
                program_ns += s.program_ns;
                samples += s.rber_samples;
                rber_ns += s.rber_ns;
            }
            for (slug, (ns, erases, loops)) in per_scheme {
                m.insert(format!("erase.{slug}.ns_per_op"), ratio(ns, erases));
                m.insert(format!("erase.{slug}.loops_per_op"), ratio(loops, erases));
            }
            let c = &o.batch.counters;
            m.insert("erase.ops".into(), c["erases"] as f64);
            m.insert(
                "erase.loops_per_op".into(),
                ratio(c["erase_loops"], c["erases"]),
            );
            m.insert(
                "nand.program_us_per_block".into(),
                ratio(program_ns, programs) / 1e3,
            );
            m.insert(
                "nand.rber_us_per_sample".into(),
                ratio(rber_ns, samples) / 1e3,
            );
            m.insert("nand.rber_samples".into(), samples as f64);
            m.insert(
                "setup.new_ms".into(),
                o.batch.setup_ns as f64 / 1e6 / o.schemes.len() as f64,
            );
            // Untraced, like the one-worker batches `exec.speedup` divides.
            let parallel = {
                let _pool = aero_exec::override_threads(PARALLEL_THREADS);
                lifetime::batch(seed, false)
            };
            check.check("parallel", &parallel.batch);
            let job_ms: Vec<f64> = parallel
                .schemes
                .iter()
                .map(|s| (s.setup_ns + s.cycle_ns) as f64 / 1e6)
                .collect();
            exec_metrics(&mut m, &job_ms, parallel.batch.wall_ns, &untraced_ns);
            print_counters(workload, &o.batch);
        }
        _ => {
            check.check("reference", &tenants::batch(seed, true, None).batch);
            let (o, t) = interleave(
                &mut check,
                &mut untraced_ns,
                &mut traced_ns,
                || tenants::batch(seed, true, None).batch,
                |t| tenants::batch(seed, true, Some(t)),
                |o| &o.batch,
            );
            last_trace = t;
            // The fault-free twin: same drive and tenants, faults off. Its
            // outputs differ by design, so it has its own checker.
            let twin = tenants::batch(seed, false, None);
            ATTEMPTED.fetch_add(twin.batch.ops, Ordering::SeqCst);
            let c = &o.batch.counters;
            device_metrics(&mut m, c, o.setup);
            m.insert("host.submitted".into(), c["host_submitted"] as f64);
            m.insert("host.deferred".into(), c["host_deferred"] as f64);
            m.insert(
                "host.queue_high_water".into(),
                c["host_queue_high_water"] as f64,
            );
            m.insert(
                "fault.overhead_frac".into(),
                median(&untraced_ns) / twin.batch.wall_ns as f64 - 1.0,
            );
            print_counters(workload, &o.batch);
        }
    }

    let wall_ns = last_trace.spans[0].duration_ns();
    let r = reduce(&last_trace.spans, wall_ns);
    check.require(
        r.other_ns >= -(r.budget_ns as i64 / 100),
        "layer self times fit inside the traced budget",
    );
    m.insert("trace.wall_s".into(), wall_ns as f64 / 1e9);
    m.insert(
        "trace.overhead_frac".into(),
        median(&traced_ns) / median(&untraced_ns) - 1.0,
    );
    m.insert(
        "trace.other_frac".into(),
        r.other_ns as f64 / r.budget_ns as f64,
    );
    for layer in LAYERS {
        m.insert(format!("{layer}.self_frac"), r.frac(layer));
    }
    let calls = |name: &str| r.calls.get(name).copied().unwrap_or(0);
    let self_ns = |layer: &str| r.self_ns.get(layer).copied().unwrap_or(0);
    let self_of = |name: &str| r.by_name.get(name).copied().unwrap_or(0);
    m.insert("synth.requests".into(), calls("synth.pull") as f64);
    m.insert(
        "synth.ns_per_req".into(),
        ratio(self_ns("synth"), calls("synth.pull")),
    );
    if calls("latency.poll") > 0 {
        m.insert(
            "latency.poll_us".into(),
            ratio(self_of("latency.poll"), calls("latency.poll")) / 1e3,
        );
    }
    if calls("latency.report") > 0 {
        m.insert(
            "latency.report_ms".into(),
            ratio(self_of("latency.report"), calls("latency.report")) / 1e6,
        );
    }
    if calls("host.run") > 0 {
        m.insert(
            "host.ns_per_req".into(),
            ratio(self_ns("host"), m["host.submitted"] as u64),
        );
    }
    println!(
        "{workload}: traced batch {:.3} s; self time by layer:",
        r.budget_ns as f64 / 1e9
    );
    for (layer, ns) in &r.self_ns {
        println!(
            "  {layer:<10} {:>10.3} s  {:>6.1}%",
            *ns as f64 / 1e9,
            r.frac(layer) * 100.0
        );
    }
    println!(
        "  {:<10} {:>10.3} s  {:>6.1}%",
        "other",
        r.other_ns as f64 / 1e9,
        r.other_ns as f64 / r.budget_ns as f64 * 100.0
    );
    write_trace(workload, seed, &last_trace);

    for (name, value) in iso::run(seed) {
        m.insert(name, value);
    }
    Outcome {
        correct: check.ok,
        attempted: ATTEMPTED.load(Ordering::SeqCst),
        metrics: m,
    }
}

/// `par_map` metrics of the parallel batch, from each job's host time, the
/// batch's wall time and the one-thread untraced batch times.
fn exec_metrics(
    m: &mut BTreeMap<String, f64>,
    job_ms: &[f64],
    wall_ns: u64,
    one_thread_ns: &[f64],
) {
    let workers = PARALLEL_THREADS.min(job_ms.len()) as f64;
    m.insert("exec.threads".into(), workers);
    m.insert(
        "exec.speedup".into(),
        median(one_thread_ns) / wall_ns as f64,
    );
    m.insert(
        "exec.parallel_eff".into(),
        job_ms.iter().sum::<f64>() / (workers * wall_ns as f64 / 1e6),
    );
    m.insert("exec.job_ms_p50".into(), median(job_ms));
    m.insert("exec.job_ms_tail".into(), tail(job_ms));
}

/// Writes the traced batch's spans to `.bench_out/` in the working
/// directory (the benchmark's checkout).
fn write_trace(workload: &str, seed: u64, t: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(&t.spans)))
    {
        Ok(()) => println!(
            "{workload}: wrote {} spans to {}",
            t.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("aero-benchmark: could not write {}: {e}", path.display()),
    }
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aero-benchmark: {e}");
            eprintln!(
                "usage: aero-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let _threads = aero_exec::override_threads(THREADS);
    let result = catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            traced(&args.workload, args.seed)
        } else {
            untraced(&args.workload, args.seed, args.seconds)
        }
    }));
    let outcome = result.unwrap_or_else(|_| Outcome {
        correct: false,
        attempted: ATTEMPTED.load(Ordering::SeqCst).max(1),
        metrics: BTreeMap::new(),
    });
    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::new();
    if outcome.correct {
        for (name, unit) in &names {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            println!("{name:<34} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for name in outcome.metrics.keys() {
            assert!(
                names.iter().any(|(n, _)| n == name),
                "metric {name} is missing from the metric list"
            );
        }
    }
    let failed = if outcome.correct {
        0
    } else {
        outcome.attempted.max(1)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        fields.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
