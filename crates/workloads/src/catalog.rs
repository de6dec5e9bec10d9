//! The eleven evaluated workloads (paper Table 3).
//!
//! Each entry records the published statistics of the original trace (read
//! ratio, average request size, average inter-request arrival time) and maps
//! them onto a [`SyntheticWorkload`] configuration. For the MSR Cambridge
//! traces the paper reduces inter-arrival times by 10×; the inter-arrival
//! values stored here are the *original* ones and the acceleration is applied
//! when building the generator, mirroring the paper's methodology.

use crate::request::Trace;
use crate::synth::SyntheticWorkload;

/// The benchmark suite a workload came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Alibaba Cloud block traces.
    Alibaba,
    /// MSR Cambridge enterprise traces.
    MsrCambridge,
}

/// Identifiers of the eleven evaluated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum WorkloadId {
    AliA,
    AliB,
    AliC,
    AliD,
    AliE,
    Rsrch,
    Stg,
    Hm,
    Prxy,
    Proj,
    Usr,
}

impl WorkloadId {
    /// All eleven workloads in the order the paper's figures list them.
    pub fn all() -> [WorkloadId; 11] {
        [
            WorkloadId::AliA,
            WorkloadId::AliB,
            WorkloadId::AliC,
            WorkloadId::AliD,
            WorkloadId::AliE,
            WorkloadId::Rsrch,
            WorkloadId::Stg,
            WorkloadId::Hm,
            WorkloadId::Prxy,
            WorkloadId::Proj,
            WorkloadId::Usr,
        ]
    }

    /// The abbreviation used in the paper's plots.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadId::AliA => "ali.A",
            WorkloadId::AliB => "ali.B",
            WorkloadId::AliC => "ali.C",
            WorkloadId::AliD => "ali.D",
            WorkloadId::AliE => "ali.E",
            WorkloadId::Rsrch => "rsrch",
            WorkloadId::Stg => "stg",
            WorkloadId::Hm => "hm",
            WorkloadId::Prxy => "prxy",
            WorkloadId::Proj => "proj",
            WorkloadId::Usr => "usr",
        }
    }

    /// The workload's published characteristics and generator configuration.
    pub fn spec(&self) -> WorkloadSpec {
        // Columns of Table 3: read ratio, avg request size (KB), avg
        // inter-request arrival time (ms).
        let (suite, read_ratio, avg_kb, avg_iat_ms) = match self {
            WorkloadId::AliA => (Suite::Alibaba, 0.07, 54.0, 16.3),
            WorkloadId::AliB => (Suite::Alibaba, 0.52, 26.0, 111.8),
            WorkloadId::AliC => (Suite::Alibaba, 0.69, 38.0, 57.9),
            WorkloadId::AliD => (Suite::Alibaba, 0.78, 18.0, 13.8),
            WorkloadId::AliE => (Suite::Alibaba, 0.95, 36.0, 5.1),
            WorkloadId::Rsrch => (Suite::MsrCambridge, 0.09, 9.0, 421.9),
            WorkloadId::Stg => (Suite::MsrCambridge, 0.15, 12.0, 297.8),
            WorkloadId::Hm => (Suite::MsrCambridge, 0.36, 8.0, 151.5),
            WorkloadId::Prxy => (Suite::MsrCambridge, 0.65, 13.0, 3.6),
            WorkloadId::Proj => (Suite::MsrCambridge, 0.88, 42.0, 20.6),
            WorkloadId::Usr => (Suite::MsrCambridge, 0.91, 49.0, 13.4),
        };
        WorkloadSpec {
            id: *self,
            suite,
            read_ratio,
            avg_request_kb: avg_kb,
            avg_inter_arrival_ms: avg_iat_ms,
        }
    }
}

/// Published characteristics of one evaluated workload (Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Workload identifier.
    pub id: WorkloadId,
    /// Source suite.
    pub suite: Suite,
    /// Fraction of read requests.
    pub read_ratio: f64,
    /// Average request size in KB.
    pub avg_request_kb: f64,
    /// Average inter-request arrival time in milliseconds (original trace,
    /// before the paper's MSRC acceleration).
    pub avg_inter_arrival_ms: f64,
}

impl WorkloadSpec {
    /// The arrival-time acceleration the paper applies (10× for MSRC traces,
    /// none for Alibaba traces).
    pub fn acceleration(&self) -> f64 {
        match self.suite {
            Suite::Alibaba => 1.0,
            Suite::MsrCambridge => 10.0,
        }
    }

    /// The synthetic-generator configuration equivalent to this workload,
    /// including the paper's arrival acceleration.
    pub fn synthetic(&self) -> SyntheticWorkload {
        SyntheticWorkload {
            read_ratio: self.read_ratio,
            mean_request_bytes: self.avg_request_kb * 1024.0,
            mean_inter_arrival_ns: self.avg_inter_arrival_ms * 1e6 / self.acceleration(),
            // The evaluated SSD is 1 TB with 20% over-provisioning; workloads
            // touch a bounded footprint so that garbage collection is
            // exercised without having to fill the whole device.
            footprint_bytes: 64 << 30,
            hot_access_fraction: 0.8,
            hot_region_fraction: 0.2,
        }
    }

    /// Generates a trace of `count` requests for this workload.
    pub fn generate(&self, count: usize, seed: u64) -> Trace {
        self.synthetic().generate(count, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_workloads_with_unique_labels() {
        let all = WorkloadId::all();
        assert_eq!(all.len(), 11);
        let labels: std::collections::HashSet<_> = all.iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), 11);
    }

    #[test]
    fn table3_values_preserved() {
        let ali_a = WorkloadId::AliA.spec();
        assert_eq!(ali_a.read_ratio, 0.07);
        assert_eq!(ali_a.avg_request_kb, 54.0);
        assert_eq!(ali_a.avg_inter_arrival_ms, 16.3);
        let usr = WorkloadId::Usr.spec();
        assert_eq!(usr.read_ratio, 0.91);
        assert_eq!(usr.suite, Suite::MsrCambridge);
    }

    #[test]
    fn msrc_traces_are_accelerated_ten_times() {
        let prxy = WorkloadId::Prxy.spec();
        assert_eq!(prxy.acceleration(), 10.0);
        let synth = prxy.synthetic();
        assert!((synth.mean_inter_arrival_ns - 3.6e6 / 10.0).abs() < 1.0);
        let ali = WorkloadId::AliE.spec();
        assert_eq!(ali.acceleration(), 1.0);
    }

    #[test]
    fn generated_traces_roughly_match_spec() {
        let spec = WorkloadId::AliD.spec();
        let trace = spec.generate(10_000, 11);
        assert!((trace.read_ratio() - 0.78).abs() < 0.02);
        let mean_kb = trace.mean_request_bytes() / 1024.0;
        assert!(
            (mean_kb - 18.0).abs() / 18.0 < 0.25,
            "mean size {mean_kb} KB"
        );
    }

    #[test]
    fn read_heavy_and_write_heavy_extremes_present() {
        // The paper stresses that AERO helps even read-dominant workloads
        // (ali.E, usr) because erases still block reads.
        let read_ratios: Vec<f64> = WorkloadId::all()
            .iter()
            .map(|w| w.spec().read_ratio)
            .collect();
        assert!(read_ratios.iter().cloned().fold(f64::MAX, f64::min) < 0.1);
        assert!(read_ratios.iter().cloned().fold(f64::MIN, f64::max) > 0.9);
    }
}
