//! Seeded synthetic workload generation.
//!
//! The generator produces workloads with a target read ratio, mean request
//! size, mean inter-arrival time (Poisson arrivals), footprint, and a simple
//! hot/cold locality profile — the statistics that drive SSD-internal write
//! amplification and the frequency with which reads collide with erases,
//! which is what the AERO evaluation measures.
//!
//! Requests can be produced two ways from the same configuration and seed:
//! [`SyntheticWorkload::generate`] materializes a bounded [`Trace`], and
//! [`SyntheticWorkload::stream`] returns an **unbounded lazy iterator**
//! ([`SyntheticStream`]) that produces the exact same request sequence with
//! O(1) memory — `generate(n, seed)` is literally `stream(seed).take(n)`
//! collected, so the two can never diverge.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::request::{IoOp, IoRequest, Trace};
use crate::source::WorkloadSource;

/// Configuration of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticWorkload {
    /// Fraction of requests that are reads, in [0, 1].
    pub read_ratio: f64,
    /// Mean request size in bytes (requests are 4 KiB-aligned and at least
    /// 4 KiB).
    pub mean_request_bytes: f64,
    /// Mean inter-arrival time in nanoseconds (exponential distribution).
    pub mean_inter_arrival_ns: f64,
    /// Size of the logical address space the workload touches, in bytes.
    pub footprint_bytes: u64,
    /// Fraction of accesses that go to the hot region.
    pub hot_access_fraction: f64,
    /// Fraction of the footprint occupied by the hot region.
    pub hot_region_fraction: f64,
}

impl SyntheticWorkload {
    /// A small, write-heavy default useful for tests.
    pub fn default_test() -> Self {
        SyntheticWorkload {
            read_ratio: 0.5,
            mean_request_bytes: 16.0 * 1024.0,
            mean_inter_arrival_ns: 100_000.0,
            footprint_bytes: 1 << 30,
            hot_access_fraction: 0.8,
            hot_region_fraction: 0.2,
        }
    }

    /// Validates the configuration.
    ///
    /// Every numeric knob must be finite and in range — in particular the
    /// mean request size must be a finite value of at least 512 bytes, so a
    /// mis-built configuration can never ask the generator for zero-byte (or
    /// NaN-sized) requests.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range or not finite.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.read_ratio),
            "read_ratio out of range"
        );
        assert!(
            self.mean_request_bytes.is_finite() && self.mean_request_bytes >= 512.0,
            "mean request size must be finite and at least 512 bytes \
             (zero-byte requests are rejected)"
        );
        assert!(
            self.mean_inter_arrival_ns.is_finite() && self.mean_inter_arrival_ns > 0.0,
            "inter-arrival time must be finite and positive"
        );
        assert!(
            self.footprint_bytes >= 1 << 20,
            "footprint must be at least 1 MiB"
        );
        assert!((0.0..=1.0).contains(&self.hot_access_fraction));
        assert!((0.0..1.0).contains(&self.hot_region_fraction) && self.hot_region_fraction > 0.0);
    }

    /// Returns an **unbounded** lazy request stream for this configuration.
    ///
    /// The stream produces the exact same request sequence as
    /// [`generate`](SyntheticWorkload::generate) with the same seed, one
    /// request at a time, with O(1) memory — bound it with
    /// [`Iterator::take`] (and feed it to a simulation via
    /// [`crate::IterSource`]) to replay arbitrarily long workloads without
    /// ever materializing a `Vec`.
    ///
    /// ```
    /// use aero_workloads::SyntheticWorkload;
    ///
    /// let cfg = SyntheticWorkload::default_test();
    /// let streamed: Vec<_> = cfg.stream(7).take(100).collect();
    /// let batch = cfg.generate(100, 7);
    /// assert_eq!(streamed, batch.requests());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`validate`](SyntheticWorkload::validate)).
    pub fn stream(&self, seed: u64) -> SyntheticStream {
        self.validate();
        let footprint_pages = (self.footprint_bytes / 4096).max(1);
        let hot_pages = ((footprint_pages as f64) * self.hot_region_fraction).max(1.0) as u64;
        SyntheticStream {
            config: *self,
            rng: ChaCha12Rng::seed_from_u64(seed),
            clock_ns: 0,
            footprint_pages,
            hot_pages,
        }
    }

    /// Generates a trace with `count` requests using a deterministic seed.
    ///
    /// Equivalent to collecting `count` requests from
    /// [`stream`](SyntheticWorkload::stream) with the same seed.
    pub fn generate(&self, count: usize, seed: u64) -> Trace {
        self.stream(seed).take(count).collect()
    }
}

/// An unbounded lazy request stream over a [`SyntheticWorkload`].
///
/// Created by [`SyntheticWorkload::stream`]. Arrival times are
/// non-decreasing by construction (the clock only ever advances), so the
/// stream satisfies the [`WorkloadSource`] contract directly — both
/// [`Iterator`] and [`WorkloadSource`] are implemented, the former for
/// composition (`take`, `filter`, …), the latter for driving a simulation.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    config: SyntheticWorkload,
    rng: ChaCha12Rng,
    clock_ns: u64,
    footprint_pages: u64,
    hot_pages: u64,
}

impl SyntheticStream {
    /// The configuration this stream was built from.
    pub fn config(&self) -> &SyntheticWorkload {
        &self.config
    }

    /// The simulated arrival clock: the arrival time of the most recently
    /// yielded request (0 before the first).
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }
}

impl Iterator for SyntheticStream {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        let cfg = &self.config;
        // Poisson arrivals: exponential inter-arrival times.
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        self.clock_ns += (-u.ln() * cfg.mean_inter_arrival_ns).round() as u64;
        let op = if self.rng.gen::<f64>() < cfg.read_ratio {
            IoOp::Read
        } else {
            IoOp::Write
        };
        // Request size: exponential around the mean, 4 KiB aligned,
        // clamped to [4 KiB, 1 MiB].
        let raw = -self.rng.gen::<f64>().max(1e-12).ln() * cfg.mean_request_bytes;
        let size = ((raw / 4096.0).round().clamp(1.0, 256.0) as u32) * 4096;
        // Locality: hot region with probability hot_access_fraction.
        let page = if self.rng.gen::<f64>() < cfg.hot_access_fraction {
            self.rng.gen_range(0..self.hot_pages)
        } else {
            self.rng
                .gen_range(self.hot_pages..self.footprint_pages.max(self.hot_pages + 1))
        };
        Some(IoRequest {
            arrival_ns: self.clock_ns,
            op,
            lba: page * 8, // 4 KiB pages = 8 sectors
            size_bytes: size,
        })
    }
}

impl WorkloadSource for SyntheticStream {
    fn next_request(&mut self) -> Option<IoRequest> {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_statistics_match_configuration() {
        let cfg = SyntheticWorkload {
            read_ratio: 0.7,
            mean_request_bytes: 32.0 * 1024.0,
            mean_inter_arrival_ns: 50_000.0,
            footprint_bytes: 4 << 30,
            hot_access_fraction: 0.8,
            hot_region_fraction: 0.2,
        };
        let trace = cfg.generate(20_000, 1);
        assert_eq!(trace.len(), 20_000);
        assert!((trace.read_ratio() - 0.7).abs() < 0.02);
        let mean_size = trace.mean_request_bytes();
        assert!(
            (mean_size - 32.0 * 1024.0).abs() / (32.0 * 1024.0) < 0.1,
            "mean size {mean_size}"
        );
        let mean_iat = trace.mean_inter_arrival_ns();
        assert!(
            (mean_iat - 50_000.0).abs() / 50_000.0 < 0.1,
            "mean IAT {mean_iat}"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SyntheticWorkload::default_test();
        let a = cfg.generate(500, 7);
        let b = cfg.generate(500, 7);
        let c = cfg.generate(500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hot_region_receives_most_accesses() {
        let cfg = SyntheticWorkload {
            hot_access_fraction: 0.9,
            hot_region_fraction: 0.1,
            ..SyntheticWorkload::default_test()
        };
        let trace = cfg.generate(10_000, 3);
        let footprint_pages = cfg.footprint_bytes / 4096;
        let hot_limit = (footprint_pages as f64 * cfg.hot_region_fraction) as u64 * 8;
        let hot = trace.iter().filter(|r| r.lba < hot_limit).count() as f64;
        let frac = hot / trace.len() as f64;
        assert!((frac - 0.9).abs() < 0.03, "hot fraction {frac}");
    }

    #[test]
    fn requests_are_page_aligned_and_bounded() {
        let trace = SyntheticWorkload::default_test().generate(2_000, 9);
        for r in trace.iter() {
            assert_eq!(r.size_bytes % 4096, 0);
            assert!(r.size_bytes >= 4096 && r.size_bytes <= 1024 * 1024);
            assert_eq!(r.lba % 8, 0);
        }
    }

    #[test]
    #[should_panic(expected = "read_ratio")]
    fn invalid_read_ratio_rejected() {
        let cfg = SyntheticWorkload {
            read_ratio: 1.5,
            ..SyntheticWorkload::default_test()
        };
        let _ = cfg.generate(10, 0);
    }

    #[test]
    #[should_panic(expected = "zero-byte requests are rejected")]
    fn nan_mean_request_size_rejected() {
        let cfg = SyntheticWorkload {
            mean_request_bytes: f64::NAN,
            ..SyntheticWorkload::default_test()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn infinite_inter_arrival_rejected() {
        let cfg = SyntheticWorkload {
            mean_inter_arrival_ns: f64::INFINITY,
            ..SyntheticWorkload::default_test()
        };
        cfg.validate();
    }

    #[test]
    fn stream_matches_generate_request_for_request() {
        let cfg = SyntheticWorkload::default_test();
        let batch = cfg.generate(2_000, 13);
        let streamed: Vec<_> = cfg.stream(13).take(2_000).collect();
        assert_eq!(streamed.as_slice(), batch.requests());
    }

    #[test]
    fn stream_is_lazy_and_unbounded() {
        let mut stream = SyntheticWorkload::default_test().stream(1);
        let mut last = 0;
        for _ in 0..10_000 {
            let r = stream.next().expect("stream never ends");
            assert!(r.arrival_ns >= last, "arrivals must be non-decreasing");
            assert!(r.size_bytes >= 4096);
            last = r.arrival_ns;
        }
        assert_eq!(stream.clock_ns(), last);
    }
}
