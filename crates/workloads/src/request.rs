//! Block-I/O requests and traces.

use std::fmt;

/// The direction of a block-I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A read of previously written data.
    Read,
    /// A write.
    Write,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
        })
    }
}

/// One block-I/O request as issued by the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Arrival time in nanoseconds from the start of the trace.
    pub arrival_ns: u64,
    /// Read or write.
    pub op: IoOp,
    /// Starting logical block address, in 512-byte sectors.
    pub lba: u64,
    /// Request size in bytes.
    pub size_bytes: u32,
}

impl IoRequest {
    /// Number of logical pages the request touches (the FTL mapping
    /// granularity used by the simulator).
    ///
    /// The count is computed in 64-bit arithmetic and saturates: at `u64`
    /// range on the byte offsets (an `lba` near `u64::MAX` cannot wrap when
    /// scaled to bytes) and at `u32::MAX` pages on the result (reachable
    /// only with a pathological `size_bytes`/`page_bytes` combination, e.g.
    /// a 4 GiB request against sub-512-byte pages). A request always touches
    /// at least one page.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn page_count(&self, page_bytes: u32) -> u32 {
        assert!(page_bytes > 0, "page size must be non-zero");
        let start = self.lba.saturating_mul(512);
        let end = start.saturating_add(self.size_bytes as u64);
        let first = start / page_bytes as u64;
        let last = end.div_ceil(page_bytes as u64);
        u32::try_from(last - first).unwrap_or(u32::MAX).max(1)
    }

    /// First logical page number the request touches.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn first_page(&self, page_bytes: u32) -> u64 {
        assert!(page_bytes > 0, "page size must be non-zero");
        self.lba.saturating_mul(512) / page_bytes as u64
    }
}

/// A sequence of requests ordered by arrival time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    requests: Vec<IoRequest>,
}

impl Trace {
    /// Creates a trace from requests, sorting them by arrival time.
    pub fn new(mut requests: Vec<IoRequest>) -> Self {
        requests.sort_by_key(|r| r.arrival_ns);
        Trace { requests }
    }

    /// Creates an empty trace.
    pub fn empty() -> Self {
        Trace::default()
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[IoRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if there are no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Appends a request (keeping arrival order is the caller's business; use
    /// [`Trace::new`] to sort afterwards if needed).
    pub fn push(&mut self, request: IoRequest) {
        self.requests.push(request);
    }

    /// Iterator over the requests.
    pub fn iter(&self) -> impl Iterator<Item = &IoRequest> {
        self.requests.iter()
    }

    /// Fraction of requests that are reads.
    pub fn read_ratio(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().filter(|r| r.op == IoOp::Read).count() as f64
            / self.requests.len() as f64
    }

    /// Mean request size in bytes.
    pub fn mean_request_bytes(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| r.size_bytes as f64)
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Mean inter-arrival time in nanoseconds.
    pub fn mean_inter_arrival_ns(&self) -> f64 {
        if self.requests.len() < 2 {
            return 0.0;
        }
        let span = self.requests.last().unwrap().arrival_ns - self.requests[0].arrival_ns;
        span as f64 / (self.requests.len() - 1) as f64
    }

    /// Total bytes written by the trace.
    pub fn bytes_written(&self) -> u64 {
        self.requests
            .iter()
            .filter(|r| r.op == IoOp::Write)
            .map(|r| r.size_bytes as u64)
            .sum()
    }

    /// Scales every arrival time by `factor` (e.g. 0.1 for the paper's 10×
    /// acceleration of the MSRC traces).
    pub fn scale_arrival_times(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be positive"
        );
        for r in &mut self.requests {
            r.arrival_ns = (r.arrival_ns as f64 * factor).round() as u64;
        }
    }
}

impl FromIterator<IoRequest> for Trace {
    fn from_iter<T: IntoIterator<Item = IoRequest>>(iter: T) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

impl Extend<IoRequest> for Trace {
    fn extend<T: IntoIterator<Item = IoRequest>>(&mut self, iter: T) {
        self.requests.extend(iter);
        self.requests.sort_by_key(|r| r.arrival_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, op: IoOp, lba: u64, size: u32) -> IoRequest {
        IoRequest {
            arrival_ns: t,
            op,
            lba,
            size_bytes: size,
        }
    }

    #[test]
    fn page_count_spans_boundaries() {
        let page = 16 * 1024;
        // 8 KiB starting mid-page touches one page.
        let r = req(0, IoOp::Read, 0, 8 * 1024);
        assert_eq!(r.page_count(page), 1);
        // 16 KiB starting at sector 16 (8 KiB offset) straddles two pages.
        let r = req(0, IoOp::Read, 16, 16 * 1024);
        assert_eq!(r.page_count(page), 2);
        assert_eq!(r.first_page(page), 0);
    }

    #[test]
    fn page_count_saturates_on_pathological_inputs() {
        // A 4 GiB request against 1-byte pages overflows u32 page counts;
        // the count saturates instead of wrapping.
        let r = req(0, IoOp::Write, 0, u32::MAX);
        assert_eq!(r.page_count(1), u32::MAX);
        // An lba near u64::MAX cannot wrap when scaled to bytes; the byte
        // range saturates and the request still touches at least one page.
        let r = req(0, IoOp::Read, u64::MAX, 4096);
        assert!(r.page_count(16 * 1024) >= 1);
        assert_eq!(r.first_page(16 * 1024), u64::MAX / (16 * 1024));
        // Zero-byte requests still count one page (they occupy a slot in the
        // scheduler); the workload layers reject generating them.
        let r = req(0, IoOp::Read, 8, 0);
        assert_eq!(r.page_count(16 * 1024), 1);
    }

    #[test]
    #[should_panic(expected = "page size must be non-zero")]
    fn zero_page_size_rejected() {
        let _ = req(0, IoOp::Read, 0, 4096).page_count(0);
    }

    #[test]
    fn trace_sorts_and_measures() {
        let t = Trace::new(vec![
            req(2_000, IoOp::Write, 100, 4096),
            req(1_000, IoOp::Read, 0, 8192),
            req(3_000, IoOp::Read, 50, 4096),
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.requests()[0].arrival_ns, 1_000);
        assert!((t.read_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.mean_request_bytes() - (4096.0 + 8192.0 + 4096.0) / 3.0).abs() < 1e-9);
        assert!((t.mean_inter_arrival_ns() - 1_000.0).abs() < 1e-9);
        assert_eq!(t.bytes_written(), 4096);
    }

    #[test]
    fn scale_arrival_times_compresses() {
        let mut t = Trace::new(vec![
            req(0, IoOp::Read, 0, 4096),
            req(10_000, IoOp::Read, 8, 4096),
        ]);
        t.scale_arrival_times(0.1);
        assert_eq!(t.requests()[1].arrival_ns, 1_000);
    }

    #[test]
    fn collect_and_extend() {
        let t: Trace = vec![req(5, IoOp::Write, 0, 4096), req(1, IoOp::Read, 8, 4096)]
            .into_iter()
            .collect();
        assert_eq!(t.requests()[0].arrival_ns, 1);
        let mut t2 = t.clone();
        t2.extend(vec![req(3, IoOp::Read, 16, 4096)]);
        assert_eq!(t2.len(), 3);
        assert_eq!(t2.requests()[1].arrival_ns, 3);
    }

    #[test]
    fn empty_trace_statistics() {
        let t = Trace::empty();
        assert!(t.is_empty());
        assert_eq!(t.read_ratio(), 0.0);
        assert_eq!(t.mean_inter_arrival_ns(), 0.0);
    }
}
