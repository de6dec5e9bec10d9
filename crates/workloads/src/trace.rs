//! MSR-Cambridge-format trace parsing and serialization.
//!
//! The MSR Cambridge traces (SNIA IOTTA repository) are CSV files with one
//! request per line:
//!
//! ```text
//! timestamp,hostname,disknum,type,offset,size,responsetime
//! 128166372003061629,hm,0,Read,383496192,32768,113736
//! ```
//!
//! `timestamp` is in Windows filetime units (100 ns ticks); `offset` and
//! `size` are in bytes. Users who have the original traces can parse them
//! here and replay them through the simulator instead of using the synthetic
//! generators.
//!
//! Two parsing modes are provided. [`parse_msrc`] eagerly materializes a
//! [`Trace`] (sorting requests by arrival time); [`MsrcSource`] parses **one
//! line at a time** and implements
//! [`WorkloadSource`], so a multi-gigabyte trace file
//! can drive a simulation directly from a [`BufRead`] without a `Vec` of
//! requests ever existing.

use std::fmt;
use std::io::{self, BufRead};
use std::str::FromStr;

use crate::request::{IoOp, IoRequest, Trace};
use crate::source::WorkloadSource;

/// Error produced when parsing an MSRC-format trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number where the error occurred (0 when unknown).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

/// Parses one MSRC CSV line into a request. The timestamp of the first
/// request should be passed as `origin_ticks` so arrival times start at zero;
/// pass `None` to keep absolute times.
fn parse_line(
    line: &str,
    line_no: usize,
    origin_ticks: Option<u64>,
) -> Result<IoRequest, ParseTraceError> {
    let fields: Vec<&str> = line.trim().split(',').collect();
    if fields.len() < 6 {
        return Err(ParseTraceError {
            line: line_no,
            message: format!(
                "expected at least 6 comma-separated fields, got {}",
                fields.len()
            ),
        });
    }
    let err = |message: String| ParseTraceError {
        line: line_no,
        message,
    };
    let ticks = u64::from_str(fields[0]).map_err(|e| err(format!("bad timestamp: {e}")))?;
    let op = match fields[3].to_ascii_lowercase().as_str() {
        "read" => IoOp::Read,
        "write" => IoOp::Write,
        other => return Err(err(format!("unknown request type {other:?}"))),
    };
    let offset = u64::from_str(fields[4]).map_err(|e| err(format!("bad offset: {e}")))?;
    let size = u32::from_str(fields[5]).map_err(|e| err(format!("bad size: {e}")))?;
    if size == 0 {
        return Err(err("zero-byte request".to_string()));
    }
    let rel_ticks = match origin_ticks {
        Some(origin) => ticks.saturating_sub(origin),
        None => ticks,
    };
    Ok(IoRequest {
        // Windows filetime ticks are 100 ns.
        arrival_ns: rel_ticks * 100,
        op,
        lba: offset / 512,
        // Sub-sector sizes are rounded up to one sector; zero was rejected
        // above (a zero-byte request would otherwise silently become 512).
        size_bytes: size.max(512),
    })
}

/// True for lines the parsers skip: blanks, `#` comments, and the
/// `timestamp,...` header.
fn is_skippable(trimmed: &str) -> bool {
    trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with("timestamp")
}

/// Parses a whole MSRC-format trace from a string. Lines that are empty or
/// start with `#` are skipped; a header line starting with "timestamp" is
/// tolerated. Arrival times are rebased so the first request arrives at 0.
///
/// # Errors
///
/// Returns the first malformed line encountered.
pub fn parse_msrc(content: &str) -> Result<Trace, ParseTraceError> {
    let mut requests = Vec::new();
    let mut origin: Option<u64> = None;
    for (i, line) in content.lines().enumerate() {
        let trimmed = line.trim();
        if is_skippable(trimmed) {
            continue;
        }
        if origin.is_none() {
            let first_field = trimmed.split(',').next().unwrap_or("");
            origin = u64::from_str(first_field).ok();
        }
        requests.push(parse_line(trimmed, i + 1, origin)?);
    }
    Ok(Trace::new(requests))
}

/// A lazy, line-by-line MSRC trace parser.
///
/// Unlike [`parse_msrc`], which materializes every request before returning,
/// `MsrcSource` holds O(1) state (one line of lookahead, the rebasing
/// origin, a clock) and parses each line on demand — so an arbitrarily large
/// trace file can be streamed into a simulation straight from disk.
///
/// Two interfaces are implemented:
///
/// * [`Iterator`] yields `Result<IoRequest, ParseTraceError>` — the
///   error-aware interface; every [`ParseTraceError`] carries the 1-based
///   line number of the offending line. After the first error the iterator
///   is fused (yields `None` forever).
/// * [`WorkloadSource`] drives a simulation directly. Since the simulator
///   cannot meaningfully continue past garbage input, **this interface
///   panics on a malformed line** (with the line number); parse the trace
///   through the `Iterator` interface first if the input is untrusted.
///
/// Arrival times are rebased so the first request arrives at 0, exactly as
/// in [`parse_msrc`]. The eager parser *sorts* requests afterwards, which a
/// streaming parser cannot do; `MsrcSource` instead clamps a
/// backwards-jumping timestamp to the previous request's arrival time,
/// upholding the [`WorkloadSource`] ordering contract. The two parsers agree
/// on any trace whose timestamps are non-decreasing (the common case for
/// real MSRC captures).
///
/// ```
/// use aero_workloads::trace::MsrcSource;
///
/// let csv = "1000,hm,0,Read,0,4096,0\n2000,hm,0,Write,4096,8192,0\n";
/// let requests: Result<Vec<_>, _> = MsrcSource::from_str(csv).collect();
/// let requests = requests.unwrap();
/// assert_eq!(requests.len(), 2);
/// assert_eq!(requests[0].arrival_ns, 0); // rebased to the first timestamp
/// ```
pub struct MsrcSource<I> {
    lines: I,
    line_no: usize,
    origin: Option<u64>,
    last_arrival_ns: u64,
    failed: bool,
}

/// Line adapter used by [`MsrcSource::from_str`].
fn own_line(line: &str) -> io::Result<String> {
    Ok(line.to_string())
}

impl<'a> MsrcSource<std::iter::Map<std::str::Lines<'a>, fn(&str) -> io::Result<String>>> {
    /// Streams requests out of in-memory MSRC CSV content.
    #[expect(clippy::should_implement_trait, reason = "fallible, not FromStr")]
    pub fn from_str(content: &'a str) -> Self {
        MsrcSource::from_lines(
            content
                .lines()
                .map(own_line as fn(&str) -> io::Result<String>),
        )
    }
}

impl<R: BufRead> MsrcSource<io::Lines<R>> {
    /// Streams requests out of a reader (e.g. a buffered trace file), one
    /// line at a time. I/O errors surface as [`ParseTraceError`]s carrying
    /// the line number at which reading failed.
    pub fn from_reader(reader: R) -> Self {
        MsrcSource::from_lines(reader.lines())
    }
}

impl<I: Iterator<Item = io::Result<String>>> MsrcSource<I> {
    /// Streams requests out of any line iterator.
    pub fn from_lines(lines: I) -> Self {
        MsrcSource {
            lines,
            line_no: 0,
            origin: None,
            last_arrival_ns: 0,
            failed: false,
        }
    }
}

impl<I: Iterator<Item = io::Result<String>>> Iterator for MsrcSource<I> {
    type Item = Result<IoRequest, ParseTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            self.line_no += 1;
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(ParseTraceError {
                        line: self.line_no,
                        message: format!("I/O error: {e}"),
                    }));
                }
            };
            let trimmed = line.trim();
            if is_skippable(trimmed) {
                continue;
            }
            if self.origin.is_none() {
                let first_field = trimmed.split(',').next().unwrap_or("");
                self.origin = u64::from_str(first_field).ok();
            }
            return match parse_line(trimmed, self.line_no, self.origin) {
                Ok(mut request) => {
                    // A streaming parser cannot sort; clamp timestamp
                    // regressions so arrivals stay non-decreasing.
                    request.arrival_ns = request.arrival_ns.max(self.last_arrival_ns);
                    self.last_arrival_ns = request.arrival_ns;
                    Some(Ok(request))
                }
                Err(e) => {
                    self.failed = true;
                    Some(Err(e))
                }
            };
        }
    }
}

impl<I: Iterator<Item = io::Result<String>>> WorkloadSource for MsrcSource<I> {
    /// # Panics
    ///
    /// Panics on a malformed line or I/O error (the panic message carries
    /// the line number). Use the [`Iterator`] interface to handle errors.
    fn next_request(&mut self) -> Option<IoRequest> {
        self.next()
            .map(|r| r.unwrap_or_else(|e| panic!("streaming MSRC trace: {e}")))
    }
}

/// Serializes a trace back to MSRC CSV (with a synthetic hostname/disk and a
/// zero response time), so synthetic traces can be fed to external tools.
pub fn to_msrc(trace: &Trace, hostname: &str) -> String {
    let mut out = String::with_capacity(trace.len() * 48);
    for r in trace.iter() {
        let ticks = r.arrival_ns / 100;
        let op = match r.op {
            IoOp::Read => "Read",
            IoOp::Write => "Write",
        };
        out.push_str(&format!(
            "{ticks},{hostname},0,{op},{},{},0\n",
            r.lba * 512,
            r.size_bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticWorkload;

    const SAMPLE: &str = "\
timestamp,hostname,disknum,type,offset,size,responsetime
128166372003061629,hm,0,Read,383496192,32768,113736
128166372013061629,hm,0,Write,1024,4096,2000
# a comment line

128166372023061629,hm,0,Read,2048,8192,1500
";

    #[test]
    fn parses_sample_trace() {
        let trace = parse_msrc(SAMPLE).unwrap();
        assert_eq!(trace.len(), 3);
        let reqs = trace.requests();
        assert_eq!(reqs[0].arrival_ns, 0);
        assert_eq!(reqs[0].op, IoOp::Read);
        assert_eq!(reqs[0].size_bytes, 32768);
        assert_eq!(reqs[0].lba, 383496192 / 512);
        assert_eq!(reqs[1].op, IoOp::Write);
        // 10^7 ticks = 1 second.
        assert_eq!(reqs[1].arrival_ns, 1_000_000_000);
        assert_eq!(reqs[2].arrival_ns, 2_000_000_000);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse_msrc("1,hm,0,Read,not_a_number,4096,0").unwrap_err();
        assert!(err.to_string().contains("bad offset"));
        let err = parse_msrc("1,hm,0,Frobnicate,0,4096,0").unwrap_err();
        assert!(err.to_string().contains("unknown request type"));
        let err = parse_msrc("1,hm,0").unwrap_err();
        assert!(err.to_string().contains("at least 6"));
    }

    #[test]
    fn rejects_zero_byte_requests_with_line_number() {
        let content = "1,hm,0,Read,0,4096,0\n2,hm,0,Write,4096,0,0\n";
        let err = parse_msrc(content).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("zero-byte request"));
        // The streaming parser reports the same error at the same line.
        let results: Vec<_> = MsrcSource::from_str(content).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err().line, 2);
    }

    #[test]
    fn streaming_parser_matches_eager_parser() {
        let trace = SyntheticWorkload::default_test().generate(300, 8);
        let text = to_msrc(&trace, "synthetic");
        let eager = parse_msrc(&text).unwrap();
        let streamed: Vec<IoRequest> = MsrcSource::from_str(&text)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed.as_slice(), eager.requests());
        // The reader-based constructor yields the same sequence.
        let from_reader: Vec<IoRequest> = MsrcSource::from_reader(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(from_reader, streamed);
    }

    #[test]
    fn streaming_parser_is_lazy_and_fused() {
        // The bad line (3) must not prevent lines 1-2 from streaming, and
        // after the error the iterator stays exhausted.
        let content = "\
1000,hm,0,Read,0,4096,0
2000,hm,0,Write,512,4096,0
bogus line
3000,hm,0,Read,0,4096,0
";
        let mut source = MsrcSource::from_str(content);
        assert!(source.next().unwrap().is_ok());
        assert!(source.next().unwrap().is_ok());
        let err = source.next().unwrap().unwrap_err();
        assert_eq!(err.line, 3);
        assert!(
            source.next().is_none(),
            "the parser is fused after an error"
        );
    }

    #[test]
    fn streaming_parser_clamps_timestamp_regressions() {
        let content = "5000,hm,0,Read,0,4096,0\n4000,hm,0,Read,512,4096,0\n";
        let requests: Vec<IoRequest> = MsrcSource::from_str(content)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(requests[0].arrival_ns, 0);
        // 4000 ticks rebases below the first request; clamped, not negative.
        assert_eq!(requests[1].arrival_ns, 0);
    }

    #[test]
    fn streaming_parser_skips_headers_and_comments() {
        let requests: Vec<IoRequest> = MsrcSource::from_str(SAMPLE)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(requests.len(), 3);
        assert_eq!(requests[1].arrival_ns, 1_000_000_000);
    }

    #[test]
    #[should_panic(expected = "line 1")]
    fn workload_source_interface_panics_on_garbage() {
        use crate::source::WorkloadSource;
        let mut source = MsrcSource::from_str("not,a,trace");
        let _ = source.next_request();
    }

    /// Satellite: CRLF line endings must not surface as parse errors on the
    /// `Iterator<Item = Result<…>>` path — whether the line splitter
    /// already stripped the `\r` (as `str::lines`/`BufRead::lines` do) or
    /// left it attached (a custom `from_lines` feed).
    #[test]
    fn crlf_lines_parse_cleanly_on_every_path() {
        let crlf = "timestamp,host,disk,type,offset,size,rt\r\n\
                    1000,hm,0,Read,0,4096,10\r\n\
                    2000,hm,0,Write,4096,8192,20\r\n";
        // from_str (str::lines strips \r).
        let from_str: Vec<IoRequest> = MsrcSource::from_str(crlf)
            .collect::<Result<_, _>>()
            .expect("CRLF content must parse");
        assert_eq!(from_str.len(), 2);
        assert_eq!(from_str[1].op, IoOp::Write);
        // from_reader (BufRead::lines strips \r\n).
        let from_reader: Vec<IoRequest> = MsrcSource::from_reader(crlf.as_bytes())
            .collect::<Result<_, _>>()
            .expect("CRLF content must parse from a reader");
        assert_eq!(from_reader, from_str);
        // from_lines with the \r still attached to each line (a splitter
        // that only cut on \n): the parser must trim it, not report a
        // malformed size field.
        let raw_lines = crlf
            .split('\n')
            .map(|l| Ok(l.to_string()))
            .collect::<Vec<std::io::Result<String>>>();
        let from_lines: Vec<IoRequest> = MsrcSource::from_lines(raw_lines.into_iter())
            .collect::<Result<_, _>>()
            .expect("lines with trailing \\r must parse");
        assert_eq!(from_lines, from_str);
        // The eager parser agrees.
        let eager = parse_msrc(crlf).expect("eager parser tolerates CRLF");
        assert_eq!(eager.requests(), from_str.as_slice());
    }

    /// Satellite: trailing blank lines (including whitespace-only and
    /// bare-`\r` lines at EOF) are skipped, not reported as malformed —
    /// and the `WorkloadSource` path ends cleanly instead of panicking.
    #[test]
    fn trailing_blank_lines_are_skipped_not_errors() {
        use crate::source::WorkloadSource;
        let content = "1000,hm,0,Read,0,4096,0\n2000,hm,0,Write,512,4096,0\n\n   \n\r\n";
        let results: Vec<_> = MsrcSource::from_str(content).collect();
        assert_eq!(results.len(), 2, "blank tails yield no items at all");
        assert!(results.iter().all(Result::is_ok));
        // Same through a reader, which sees the final empty lines too.
        let from_reader: Vec<_> = MsrcSource::from_reader(content.as_bytes()).collect();
        assert_eq!(from_reader.len(), 2);
        assert!(from_reader.iter().all(Result::is_ok));
        // The panicking WorkloadSource interface simply drains to None.
        let mut source = MsrcSource::from_str(content);
        assert!(source.next_request().is_some());
        assert!(source.next_request().is_some());
        assert!(source.next_request().is_none());
        assert!(source.next_request().is_none(), "stays exhausted");
    }

    #[test]
    fn roundtrip_through_msrc_format() {
        let original = SyntheticWorkload::default_test().generate(200, 5);
        let text = to_msrc(&original, "synthetic");
        let parsed = parse_msrc(&text).unwrap();
        assert_eq!(parsed.len(), original.len());
        // Parsing rebases arrival times to the first request; inter-arrival
        // gaps survive within the 100 ns tick granularity.
        let origin = original.requests()[0].arrival_ns;
        for (a, b) in original.iter().zip(parsed.iter()) {
            assert!((a.arrival_ns - origin).abs_diff(b.arrival_ns) < 200);
            assert_eq!(a.op, b.op);
            assert_eq!(a.size_bytes, b.size_bytes);
            assert_eq!(a.lba, b.lba);
        }
    }
}
