//! The benchmark's only reads of the host: a monotonic clock and this
//! process's resident-memory counters. Nothing the simulator computes ever
//! sees either value.

use std::sync::OnceLock;

/// Host monotonic time in nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    // aero-lint: allow(D2, the benchmark times host execution; no simulated result reads this clock)
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    // aero-lint: allow(D2, the same benchmark-only host clock as the line above)
    let start = START.get_or_init(std::time::Instant::now);
    start.elapsed().as_nanos() as u64
}

/// A `kB` field of `/proc/self/status` (`VmHWM` is the peak resident set,
/// `VmRSS` the current one), in KiB. `None` where the kernel has no such
/// file.
pub fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}
