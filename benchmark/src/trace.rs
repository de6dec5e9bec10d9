//! Outside-in tracing: spans recorded around calls into each layer's public
//! functions, kept in memory, written out when the run ends, and reduced to
//! per-layer self time (a span's duration minus its children's).
//!
//! A span's layer is its name up to the first `.` (`session.window` belongs
//! to `session`). Hot calls that are too frequent to keep one span each
//! (source pulls, the lifetime study's erases and programs) are timed call
//! by call but stored as one *aggregate* span per parent, whose duration is
//! the summed time of its `count` calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::now_ns;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Which thread-like lane ran it (the job index for parallel jobs).
    pub lane: u32,
    /// Host start, nanoseconds.
    pub start_ns: u64,
    /// Host end, nanoseconds.
    pub end_ns: u64,
    /// Calls covered: 1 for a plain span, more for an aggregate.
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder for one lane.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Every span recorded so far, parents before children.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    lane: u32,
}

impl Tracer {
    /// A recorder whose spans carry `lane`.
    pub fn new(lane: u32) -> Tracer {
        Tracer {
            lane,
            ..Tracer::default()
        }
    }

    fn top(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.top(),
            lane: self.lane,
            start_ns: now_ns(),
            end_ns: 0,
            count: 1,
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = now_ns();
    }

    /// Records `count` calls totalling `total_ns` as one aggregate child of
    /// the innermost open span, ending now.
    pub fn aggregate(&mut self, name: &'static str, total_ns: u64, count: u64) {
        if count == 0 {
            return;
        }
        let end = now_ns();
        self.spans.push(Span {
            name,
            parent: self.top(),
            lane: self.lane,
            start_ns: end.saturating_sub(total_ns),
            end_ns: end,
            count,
        });
    }

    /// Moves another lane's spans under the innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let top = self.top();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                top
            } else {
                s.parent + base
            };
            s
        }));
    }
}

/// Per-layer self time of a traced region.
#[derive(Debug, Clone, Default)]
pub struct Reduction {
    /// Self nanoseconds per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self nanoseconds per span name.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Calls per span name (plain spans count 1, aggregates their `count`).
    pub calls: BTreeMap<&'static str, u64>,
    /// The time the layers share: the traced region's wall time.
    pub budget_ns: u64,
    /// The budget no layer span covers: harness glue and output checks.
    /// Negative only if spans overlap wrongly.
    pub other_ns: i64,
}

impl Reduction {
    /// A layer's share of the budget.
    pub fn frac(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.budget_ns.max(1) as f64
    }
}

/// Reduces spans to self time per layer. Root spans (the traced region
/// itself) are the budget's frame, not a layer: the budget no other span
/// covers lands in `other`.
pub fn reduce(spans: &[Span], budget_ns: u64) -> Reduction {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.duration_ns();
        }
    }
    let mut out = Reduction {
        budget_ns,
        ..Reduction::default()
    };
    let mut covered = 0i64;
    for (i, span) in spans.iter().enumerate() {
        *out.calls.entry(span.name).or_insert(0) += span.count;
        if span.parent == NO_PARENT {
            continue;
        }
        let own = span.duration_ns().saturating_sub(child_ns[i]);
        *out.self_ns.entry(span.layer()).or_insert(0) += own;
        *out.by_name.entry(span.name).or_insert(0) += own;
        covered += own as i64;
    }
    out.other_ns = budget_ns as i64 - covered;
    out
}

/// Renders spans as JSON lines: one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"lane\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.lane, s.start_ns, s.end_ns, s.count
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            lane: 0,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_other_closes_the_budget() {
        let spans = [
            span("batch", NO_PARENT, 0, 100),
            span("session.window", 0, 10, 60),
            span("synth.pull", 1, 20, 30),
            span("latency.poll", 0, 60, 70),
        ];
        let r = reduce(&spans, 100);
        assert_eq!(r.self_ns["session"], 40);
        assert_eq!(r.self_ns["synth"], 10);
        assert_eq!(r.self_ns["latency"], 10);
        assert_eq!(r.other_ns, 40);
        let total: u64 = r.self_ns.values().sum();
        assert_eq!(total as i64 + r.other_ns, 100);
    }

    #[test]
    fn absorbed_roots_hang_under_the_open_span() {
        let mut main = Tracer::new(0);
        main.enter("batch");
        let mut job = Tracer::new(7);
        job.enter("exec.job");
        job.enter("setup.new");
        job.exit();
        job.exit();
        main.absorb(job);
        main.exit();
        assert_eq!(main.spans[1].parent, 0);
        assert_eq!(main.spans[2].parent, 1);
        assert_eq!(main.spans[2].lane, 7);
    }
}
