//! Multi-tenant NVMe-style host interface: per-tenant submission queues,
//! QoS arbitration, and tenant-attributed completion routing.
//!
//! A [`HostInterface`] owns N submission queues, each fed by its own
//! [`WorkloadSource`]. Arrivals enter their tenant's queue (bounded by a
//! per-queue depth — a saturating tenant backpressures into its source, or
//! sheds load under a reject policy, instead of flooding the device's
//! in-flight slab), and the [`ArbiterKind`] policy merges the queue heads
//! into the session event loop whenever a device slot is free. Completions
//! are routed back to their tenant, splitting **queueing delay** (arrival →
//! submission) from **device latency** (submission → completion);
//! [`crate::report::TenantReport`] slices in the final [`RunReport`] carry
//! per-tenant recorders, throughput, and rejected/deferred/high-water
//! accounting.
//!
//! This module keeps all per-tenant state. The session only tags each
//! request it admits from here with its tenant and queueing delay, and logs
//! every finished one for the pump to drain.
//!
//! ## Determinism
//!
//! Arbitration decisions are functions of queue state only, and the pump
//! loop advances on a single merged clock, so a multi-tenant run is as
//! deterministic as a single-stream session: byte-identical reports at any
//! thread count.
//!
//! The pump relies on the simulator's dispatch-time completion accounting:
//! a request's `completed_at` becomes known when its last page *dispatches*,
//! which always happens strictly before the completion time itself. After
//! the device has processed every internal event earlier than `t`, every
//! completion at or before `t` is therefore known, so the host can retire
//! them and reuse their device slots without ever looking into the future.
//!
//! ```
//! use aero_ssd::host::{HostInterface, TenantConfig};
//! use aero_ssd::{Ssd, SsdConfig};
//! use aero_core::SchemeKind;
//! use aero_workloads::tenant::ArbiterKind;
//! use aero_workloads::{IterSource, SyntheticWorkload};
//!
//! let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
//! let workload = SyntheticWorkload {
//!     read_ratio: 0.7,
//!     mean_request_bytes: 8192.0,
//!     mean_inter_arrival_ns: 80_000.0,
//!     footprint_bytes: 2 << 20,
//!     hot_access_fraction: 0.8,
//!     hot_region_fraction: 0.2,
//! };
//! let report = HostInterface::new(ArbiterKind::RoundRobin)
//!     .tenant(
//!         TenantConfig::new("alpha"),
//!         IterSource::new(workload.stream(7).take(200)),
//!     )
//!     .tenant(
//!         TenantConfig::new("beta").with_weight(2),
//!         IterSource::new(workload.stream(8).take(200)),
//!     )
//!     .run(&mut ssd);
//! assert_eq!(report.tenants.len(), 2);
//! assert_eq!(report.tenant("alpha").unwrap().completed(), 200);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use aero_workloads::request::{IoOp, IoRequest};
use aero_workloads::source::WorkloadSource;
use aero_workloads::tenant::{ArbiterKind, QueueFullPolicy};
use aero_workloads::IterSource;

use crate::audit::Auditor;
use crate::report::{RunReport, TenantReport};
use crate::ssd::Ssd;

/// Default total device slots when [`HostInterface::with_device_slots`] is
/// not called: a typical NVMe-ish outstanding-command budget, small enough
/// that arbitration decisions matter under contention.
pub const DEFAULT_DEVICE_SLOTS: usize = 32;

/// Default per-tenant submission-queue depth.
pub const DEFAULT_QUEUE_DEPTH: usize = 32;

/// Default deadline offset for earliest-deadline arbitration: 5 ms past
/// each request's arrival.
pub const DEFAULT_DEADLINE_NS: u64 = 5_000_000;

/// Per-tenant host-interface configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant name, carried into its [`TenantReport`].
    pub name: String,
    /// Weighted-share arbitration weight (≥ 1).
    pub weight: u32,
    /// Submission-queue depth limit (≥ 1).
    pub queue_depth: usize,
    /// Deadline offset for earliest-deadline arbitration, in nanoseconds
    /// past each request's arrival.
    pub deadline_ns: u64,
    /// What happens to arrivals once the queue is full.
    pub on_full: QueueFullPolicy,
}

impl TenantConfig {
    /// A tenant with default knobs: weight 1, queue depth
    /// [`DEFAULT_QUEUE_DEPTH`], deadline [`DEFAULT_DEADLINE_NS`],
    /// backpressure on a full queue.
    pub fn new(name: &str) -> TenantConfig {
        TenantConfig {
            name: name.to_string(),
            weight: 1,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            deadline_ns: DEFAULT_DEADLINE_NS,
            on_full: QueueFullPolicy::Backpressure,
        }
    }

    /// Sets the weighted-share weight (clamped up to 1).
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> TenantConfig {
        self.weight = weight.max(1);
        self
    }

    /// Sets the submission-queue depth (clamped up to 1).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> TenantConfig {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the earliest-deadline offset.
    #[must_use]
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> TenantConfig {
        self.deadline_ns = deadline_ns;
        self
    }

    /// Sets the queue-full policy.
    #[must_use]
    pub fn with_on_full(mut self, on_full: QueueFullPolicy) -> TenantConfig {
        self.on_full = on_full;
        self
    }
}

/// Picks the queue that submits next under `kind`, or `None` when every
/// queue is empty. `cursor` is round-robin's resume point.
fn pick(kind: ArbiterKind, cursor: &mut usize, queues: &[TenantQueue<'_>]) -> Option<usize> {
    match kind {
        // Resume after the last pick, so equal-rate tenants are served
        // within ±1 request of each other.
        ArbiterKind::RoundRobin => {
            let n = queues.len();
            let i = (0..n)
                .map(|offset| (*cursor + offset) % n)
                .find(|&i| !queues[i].pending.is_empty())?;
            *cursor = (i + 1) % n;
            Some(i)
        }
        // The smallest virtual time `submitted / weight`, compared as
        // cross-products in `u128`: no division and no overflow for any
        // realistic submission count. `min_by` keeps the first of equals,
        // so ties go to the lower index.
        ArbiterKind::WeightedShare => queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.pending.is_empty())
            .min_by(|(_, a), (_, b)| {
                let a_share = u128::from(a.report.submitted) * u128::from(b.config.weight.max(1));
                let b_share = u128::from(b.report.submitted) * u128::from(a.config.weight.max(1));
                a_share.cmp(&b_share)
            })
            .map(|(i, _)| i),
        // The earliest head deadline (arrival plus the tenant's offset);
        // ties go to the lower index.
        ArbiterKind::EarliestDeadline => queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| {
                let head = q.pending.front()?;
                Some((head.arrival_ns.saturating_add(q.config.deadline_ns), i))
            })
            .min()
            .map(|(_, i)| i),
    }
}

/// One tenant's host-side state: its source, bounded submission queue, and
/// the report slice it accumulates.
struct TenantQueue<'w> {
    config: TenantConfig,
    source: Box<dyn WorkloadSource + 'w>,
    /// One request of lookahead from the source (`None` + `exhausted` =
    /// drained).
    lookahead: Option<IoRequest>,
    exhausted: bool,
    /// The submission queue proper (arrivals admitted, not yet submitted).
    pending: VecDeque<IoRequest>,
    /// Requests currently outstanding on the device.
    outstanding: usize,
    /// Counts and recorders, filled in as the run goes.
    report: TenantReport,
}

impl TenantQueue<'_> {
    /// Fills the lookahead from the source (if empty) and returns the next
    /// arrival time.
    fn peek_arrival(&mut self) -> Option<u64> {
        if self.lookahead.is_none() && !self.exhausted {
            match self.source.next_request() {
                Some(request) => self.lookahead = Some(request),
                None => self.exhausted = true,
            }
        }
        self.lookahead.as_ref().map(|r| r.arrival_ns)
    }

    /// Takes the lookahead request. Callers check `peek_arrival` first.
    fn pull(&mut self) -> Option<IoRequest> {
        self.lookahead.take()
    }

    /// True if the queue can absorb (or must decide about) its next
    /// arrival right now: there is queue space, or the reject policy will
    /// consume the arrival either way.
    fn can_accept_arrival(&self) -> bool {
        self.pending.len() < self.config.queue_depth
            || self.config.on_full == QueueFullPolicy::Reject
    }
}

/// The multi-tenant host interface: N submission queues merged into one
/// simulated drive by an [`ArbiterKind`] policy. See the [module
/// docs](crate::host) for the model and a usage example.
pub struct HostInterface<'w> {
    queues: Vec<TenantQueue<'w>>,
    arbiter: ArbiterKind,
    device_slots: usize,
}

impl<'w> HostInterface<'w> {
    /// A host interface running one of the arbitration policies with
    /// [`DEFAULT_DEVICE_SLOTS`] device slots and no tenants yet.
    pub fn new(arbiter: ArbiterKind) -> HostInterface<'w> {
        HostInterface {
            queues: Vec::new(),
            arbiter,
            device_slots: DEFAULT_DEVICE_SLOTS,
        }
    }

    /// Sets the total number of requests the device accepts in flight
    /// across all tenants (clamped up to 1). This is the arbitrated
    /// resource: queued requests compete for these slots.
    #[must_use]
    pub fn with_device_slots(mut self, slots: usize) -> HostInterface<'w> {
        self.device_slots = slots.max(1);
        self
    }

    /// Registers a tenant: its queue configuration plus the workload source
    /// feeding its submission queue. Tenants are reported in
    /// [`RunReport::tenants`] in registration order.
    pub fn add_tenant(&mut self, config: TenantConfig, source: impl WorkloadSource + 'w) {
        let report = TenantReport {
            name: config.name.clone(),
            ..TenantReport::default()
        };
        self.queues.push(TenantQueue {
            config,
            source: Box::new(source),
            lookahead: None,
            exhausted: false,
            pending: VecDeque::new(),
            outstanding: 0,
            report,
        });
    }

    /// Builder-style [`HostInterface::add_tenant`].
    #[must_use]
    pub fn tenant(
        mut self,
        config: TenantConfig,
        source: impl WorkloadSource + 'w,
    ) -> HostInterface<'w> {
        self.add_tenant(config, source);
        self
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.queues.len()
    }

    /// Runs every tenant's workload to completion on the drive and returns
    /// the final report with per-tenant slices filled in.
    pub fn run(self, ssd: &mut Ssd) -> RunReport {
        self.run_with(ssd, None)
    }

    /// [`HostInterface::run`] with an optional attached [`Auditor`]: the
    /// underlying session feeds it page writes and erases and runs full
    /// invariant checkpoints on its cadence, exactly as a single-stream
    /// session would.
    pub fn run_with(mut self, ssd: &mut Ssd, auditor: Option<&mut Auditor>) -> RunReport {
        // The session itself is sourceless: every request goes in through
        // admit_from_host at the host's submission clock.
        let mut sim = ssd.session(IterSource::new(std::iter::empty()));
        if let Some(auditor) = auditor {
            sim.attach_auditor(auditor);
        }

        // Completions the device has revealed (logged at dispatch time)
        // but the host has not yet retired, ordered by completion time.
        let mut completions: BinaryHeap<Reverse<(u64, u16)>> = BinaryHeap::new();
        let mut cursor = 0;
        let mut outstanding_total = 0usize;

        loop {
            // The next instant the host must act: the earliest arrival some
            // queue can absorb (or must reject), or the earliest known
            // completion (which frees a device slot).
            let mut next_host: Option<u64> = completions.peek().map(|&Reverse((at, _))| at);
            for queue in self.queues.iter_mut() {
                if !queue.can_accept_arrival() {
                    continue;
                }
                if let Some(at) = queue.peek_arrival() {
                    next_host = Some(next_host.map_or(at, |t| t.min(at)));
                }
            }
            if let Some(t) = next_host {
                // Let the device catch up: after processing every internal
                // event strictly before t, all completions at or before t
                // are known (completed_at is logged at dispatch, which
                // precedes it). At t = 0 there is no such event, and
                // run_until(0) would run events at 0 ahead of submissions.
                if t > 0 {
                    sim.run_until(t - 1);
                }
            } else if outstanding_total == 0 {
                // Sources drained, queues empty, nothing outstanding.
                break;
            } else if !sim.step() {
                // Backpressured everywhere with no known completion yet:
                // the device advances one event per pass until it reveals
                // one (dispatch of the oldest outstanding request is
                // always reachable).
                break;
            }
            // Attribute the newly revealed completions to their tenants.
            for done in sim.drain_host_completions() {
                let slice = &mut self.queues[usize::from(done.tenant)].report;
                match done.op {
                    IoOp::Read => slice.reads_completed += 1,
                    IoOp::Write => slice.writes_completed += 1,
                }
                slice
                    .latency
                    .record(done.device_ns.saturating_add(done.queued_ns));
                slice.queue_delay.record(done.queued_ns);
                completions.push(Reverse((done.completed_at, done.tenant)));
            }
            let Some(t) = next_host else {
                continue;
            };

            // Retire completions due at t, freeing their device slots.
            while let Some(&Reverse((at, tenant))) = completions.peek() {
                if at > t {
                    break;
                }
                completions.pop();
                let queue = &mut self.queues[usize::from(tenant)];
                queue.outstanding = queue.outstanding.saturating_sub(1);
                outstanding_total = outstanding_total.saturating_sub(1);
            }

            // Submit and enqueue to a fixpoint: submissions free queue
            // credits, which can admit same-instant arrivals, which can
            // themselves submit while device slots remain.
            loop {
                let mut progressed = false;
                // Arbitrate pending requests into free device slots.
                while outstanding_total < self.device_slots {
                    let Some(index) = pick(self.arbiter, &mut cursor, &self.queues) else {
                        break;
                    };
                    let queue = &mut self.queues[index];
                    let Some(request) = queue.pending.pop_front() else {
                        debug_assert!(false, "arbiter picked an empty queue");
                        break;
                    };
                    sim.admit_from_host(request, index as u16, t);
                    queue.outstanding += 1;
                    queue.report.submitted += 1;
                    queue.report.outstanding_high_water = queue
                        .report
                        .outstanding_high_water
                        .max(queue.outstanding as u64);
                    outstanding_total += 1;
                    progressed = true;
                }
                // Move arrivals due at t into their queues.
                for queue in self.queues.iter_mut() {
                    while let Some(at) = queue.peek_arrival() {
                        if at > t {
                            break;
                        }
                        if queue.pending.len() < queue.config.queue_depth {
                            let Some(request) = queue.pull() else {
                                break;
                            };
                            if request.arrival_ns < t {
                                // It waited for a queue credit.
                                queue.report.deferred += 1;
                            }
                            queue.pending.push_back(request);
                            queue.report.queue_depth_high_water = queue
                                .report
                                .queue_depth_high_water
                                .max(queue.pending.len() as u64);
                            progressed = true;
                        } else if queue.config.on_full == QueueFullPolicy::Reject {
                            if queue.pull().is_some() {
                                queue.report.rejected += 1;
                                progressed = true;
                            }
                        } else {
                            // Backpressure: the arrival waits in the source.
                            break;
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        debug_assert_eq!(outstanding_total, 0, "pump exited with requests in flight");

        // Everything submitted; let the drive finish internal work (GC,
        // erases), then hand the tenant slices to the final report.
        let mut report = sim.run_to_end();
        report.tenants = self
            .queues
            .into_iter()
            .map(|queue| {
                debug_assert_eq!(
                    queue.report.completed(),
                    queue.report.submitted,
                    "{}: submitted requests must all complete",
                    queue.report.name
                );
                queue.report
            })
            .collect();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use aero_core::SchemeKind;
    use aero_workloads::SyntheticWorkload;

    /// A host interface of `weights.len()` tenants with no sources, whose
    /// queues the arbitration tests fill by hand.
    fn idle_host(weights: &[u32]) -> HostInterface<'static> {
        let mut host = HostInterface::new(ArbiterKind::RoundRobin);
        for (i, &weight) in weights.iter().enumerate() {
            host.add_tenant(
                TenantConfig::new(&format!("t{i}")).with_weight(weight),
                IterSource::new(std::iter::empty()),
            );
        }
        host
    }

    /// Sets a queue's backlog to `pending` reads arriving at time 0.
    fn backlog(queue: &mut TenantQueue<'_>, pending: usize) {
        let read = IoRequest {
            arrival_ns: 0,
            op: IoOp::Read,
            lba: 0,
            size_bytes: 4096,
        };
        queue.pending = std::iter::repeat_n(read, pending).collect();
    }

    /// Round-robin over always-busy equal tenants serves them within ±1
    /// request at every prefix of the pick sequence.
    #[test]
    fn round_robin_is_fair_within_one_request() {
        let mut host = idle_host(&[1, 1, 1]);
        host.queues.iter_mut().for_each(|q| backlog(q, 5));
        let mut cursor = 0;
        for _ in 0..301 {
            let pick = pick(ArbiterKind::RoundRobin, &mut cursor, &host.queues)
                .expect("queues are non-empty");
            host.queues[pick].report.submitted += 1;
            let counts = host.queues.iter().map(|q| q.report.submitted);
            let max = counts.clone().max().unwrap();
            let min = counts.min().unwrap();
            assert!(max - min <= 1, "unfair prefix: {max} vs {min}");
        }
        let total: u64 = host.queues.iter().map(|q| q.report.submitted).sum();
        assert_eq!(total, 301);
    }

    /// Round-robin skips empty queues without losing its cursor fairness.
    #[test]
    fn round_robin_skips_empty_queues() {
        let mut host = idle_host(&[1, 1, 1]);
        backlog(&mut host.queues[1], 1);
        let (kind, mut cursor) = (ArbiterKind::RoundRobin, 0);
        assert_eq!(pick(kind, &mut cursor, &host.queues), Some(1));
        assert_eq!(pick(kind, &mut cursor, &host.queues), Some(1));
        let empty = idle_host(&[1]);
        assert_eq!(pick(kind, &mut cursor, &empty.queues), None);
    }

    /// Weighted share converges to the exact weight ratio when every queue
    /// always has work: with weights 3:1, 400 picks split 300/100.
    #[test]
    fn weighted_share_converges_to_weight_ratio() {
        let mut host = idle_host(&[3, 1]);
        host.queues.iter_mut().for_each(|q| backlog(q, 5));
        let mut cursor = 0;
        for _ in 0..400 {
            let pick = pick(ArbiterKind::WeightedShare, &mut cursor, &host.queues)
                .expect("queues are non-empty");
            host.queues[pick].report.submitted += 1;
        }
        let submitted: Vec<u64> = host.queues.iter().map(|q| q.report.submitted).collect();
        assert_eq!(submitted, [300, 100]);
    }

    /// Earliest-deadline picks the queue whose head expires first,
    /// breaking ties toward the lower tenant index.
    #[test]
    fn earliest_deadline_orders_by_deadline() {
        let mut host = idle_host(&[1, 1, 1]);
        for (queue, deadline_ns) in host.queues.iter_mut().zip([9_000, 2_000, 2_000]) {
            backlog(queue, 1);
            queue.config.deadline_ns = deadline_ns;
        }
        let (kind, mut cursor) = (ArbiterKind::EarliestDeadline, 0);
        let first = pick(kind, &mut cursor, &host.queues);
        assert_eq!(first, Some(1), "earliest deadline");
        backlog(&mut host.queues[0], 0);
        let first = pick(kind, &mut cursor, &host.queues[..2]);
        assert_eq!(first, Some(1), "skips empty");
    }

    fn mixed_workload() -> SyntheticWorkload {
        SyntheticWorkload {
            read_ratio: 0.6,
            mean_request_bytes: 8192.0,
            mean_inter_arrival_ns: 60_000.0,
            footprint_bytes: 2 << 20,
            hot_access_fraction: 0.8,
            hot_region_fraction: 0.2,
        }
    }

    /// Tenant slices are complete and consistent: every tenant's requests
    /// complete, slices sum to the drive-wide totals, and names map
    /// through `RunReport::tenant`.
    #[test]
    fn tenant_slices_sum_to_drive_totals() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        let report = HostInterface::new(ArbiterKind::RoundRobin)
            .tenant(
                TenantConfig::new("alpha"),
                IterSource::new(mixed_workload().stream(11).take(150)),
            )
            .tenant(
                TenantConfig::new("beta").with_weight(3),
                IterSource::new(mixed_workload().stream(12).take(100)),
            )
            .run(&mut ssd);
        assert_eq!(report.tenants.len(), 2);
        let alpha = report.tenant("alpha").expect("alpha slice");
        let beta = report.tenant("beta").expect("beta slice");
        assert_eq!(alpha.completed(), 150);
        assert_eq!(beta.completed(), 100);
        assert_eq!(alpha.submitted, 150);
        assert_eq!(beta.submitted, 100);
        assert_eq!(alpha.rejected + beta.rejected, 0);
        assert_eq!(
            alpha.reads_completed + beta.reads_completed,
            report.reads_completed
        );
        assert_eq!(
            alpha.writes_completed + beta.writes_completed,
            report.writes_completed
        );
        assert_eq!(alpha.latency.len() as u64, 150);
        // End-to-end latency dominates queue delay sample by sample, so
        // the means must order the same way.
        assert!(alpha.latency.mean() >= alpha.queue_delay.mean());
        assert!(alpha.queue_depth_high_water <= DEFAULT_QUEUE_DEPTH as u64);
        assert!(alpha.outstanding_high_water <= DEFAULT_DEVICE_SLOTS as u64);
    }

    /// With ample device slots and queue depth, a lone tenant never waits
    /// in its queue: every submission happens at its arrival instant, and
    /// end-to-end latency equals the drive-wide device latency.
    #[test]
    fn uncontended_tenant_has_zero_queue_delay() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        let report = HostInterface::new(ArbiterKind::RoundRobin)
            .with_device_slots(10_000)
            .tenant(
                TenantConfig::new("solo").with_queue_depth(10_000),
                IterSource::new(mixed_workload().stream(5).take(200)),
            )
            .run(&mut ssd);
        let solo = report.tenant("solo").expect("solo slice");
        assert_eq!(solo.completed(), 200);
        assert_eq!(solo.deferred, 0);
        assert_eq!(solo.queue_delay.mean(), 0.0);
        assert_eq!(solo.queue_delay.max(), 0);
        // The tenant recorder and the drive-wide recorders saw the same
        // end-to-end samples (queueing contributed nothing).
        let drive_sum = report.read_latency.mean() * report.reads_completed as f64
            + report.write_latency.mean() * report.writes_completed as f64;
        let tenant_sum = solo.latency.mean() * solo.completed() as f64;
        assert!((drive_sum - tenant_sum).abs() < 1e-6);
    }

    /// A reject-policy tenant with a tiny queue sheds a burst instead of
    /// queueing it, and completed + rejected accounts for every arrival.
    #[test]
    fn reject_policy_sheds_bursts() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        // 50 requests all arriving at t=0 into a depth-2 queue over a
        // 1-slot device: almost everything must be shed.
        let burst: Vec<IoRequest> = (0..50)
            .map(|i| IoRequest {
                arrival_ns: 0,
                op: IoOp::Read,
                lba: i * 8,
                size_bytes: 4096,
            })
            .collect();
        let report = HostInterface::new(ArbiterKind::RoundRobin)
            .with_device_slots(1)
            .tenant(
                TenantConfig::new("shed")
                    .with_queue_depth(2)
                    .with_on_full(QueueFullPolicy::Reject),
                IterSource::new(burst.into_iter()),
            )
            .run(&mut ssd);
        let shed = report.tenant("shed").expect("shed slice");
        assert_eq!(shed.completed() + shed.rejected, 50);
        assert!(shed.rejected > 0, "burst should overflow the queue");
        assert_eq!(shed.queue_depth_high_water, 2);
        assert_eq!(shed.deferred, 0, "reject queues never defer");
    }

    /// A backpressure tenant with the same burst completes everything:
    /// arrivals wait in the source for queue credits and are counted as
    /// deferred.
    #[test]
    fn backpressure_defers_instead_of_dropping() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        let burst: Vec<IoRequest> = (0..50)
            .map(|i| IoRequest {
                arrival_ns: 0,
                op: IoOp::Read,
                lba: i * 8,
                size_bytes: 4096,
            })
            .collect();
        let report = HostInterface::new(ArbiterKind::RoundRobin)
            .with_device_slots(1)
            .tenant(
                TenantConfig::new("patient").with_queue_depth(2),
                IterSource::new(burst.into_iter()),
            )
            .run(&mut ssd);
        let patient = report.tenant("patient").expect("patient slice");
        assert_eq!(patient.completed(), 50);
        assert_eq!(patient.rejected, 0);
        assert!(patient.deferred > 0, "the burst must backpressure");
        assert!(patient.queue_delay.max() > 0);
        assert_eq!(patient.queue_depth_high_water, 2);
        assert_eq!(patient.outstanding_high_water, 1);
    }

    /// The same multi-tenant run twice on identical drives produces
    /// byte-identical reports.
    #[test]
    fn multi_tenant_runs_are_deterministic() {
        let run = || {
            let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero));
            HostInterface::new(ArbiterKind::WeightedShare)
                .with_device_slots(4)
                .tenant(
                    TenantConfig::new("a").with_weight(4),
                    IterSource::new(mixed_workload().stream(21).take(120)),
                )
                .tenant(
                    TenantConfig::new("b"),
                    IterSource::new(mixed_workload().stream(22).take(120)),
                )
                .run(&mut ssd)
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert_eq!(
            format!("{:?}", first.tenants),
            format!("{:?}", second.tenants)
        );
    }

    /// Under a shared bottleneck, earliest-deadline favors the tight-
    /// deadline tenant over the loose one: its queue delay stays at or
    /// below the bulk tenant's.
    #[test]
    fn deadline_policy_prioritizes_tight_deadlines() {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Baseline));
        let make_burst = || {
            let requests: Vec<IoRequest> = (0..40)
                .map(|i| IoRequest {
                    arrival_ns: i * 1_000,
                    op: IoOp::Read,
                    lba: i * 8,
                    size_bytes: 4096,
                })
                .collect();
            IterSource::new(requests.into_iter())
        };
        let report = HostInterface::new(ArbiterKind::EarliestDeadline)
            .with_device_slots(1)
            .tenant(
                TenantConfig::new("tight").with_deadline_ns(100_000),
                make_burst(),
            )
            .tenant(
                TenantConfig::new("loose").with_deadline_ns(50_000_000),
                make_burst(),
            )
            .run(&mut ssd);
        let tight = report.tenant("tight").expect("tight slice");
        let loose = report.tenant("loose").expect("loose slice");
        assert_eq!(tight.completed(), 40);
        assert_eq!(loose.completed(), 40);
        assert!(
            tight.queue_delay.mean() < loose.queue_delay.mean(),
            "tight {} vs loose {}",
            tight.queue_delay.mean(),
            loose.queue_delay.mean()
        );
    }
}
