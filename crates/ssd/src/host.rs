//! Multi-tenant NVMe-style host interface: per-tenant submission queues,
//! pluggable QoS arbitration, and tenant-attributed completion routing.
//!
//! A [`HostInterface`] owns N submission queues, each fed by its own
//! [`WorkloadSource`] and tagged with a [`TenantId`]. Arrivals enter their
//! tenant's queue (bounded by a per-queue depth — a saturating tenant
//! backpressures into its source, or sheds load under a reject policy,
//! instead of flooding the device's in-flight slab), and an [`Arbiter`]
//! merges the queue heads into the session event loop whenever a device
//! slot is free. Completions are routed back to their tenant, splitting
//! **queueing delay** (arrival → submission) from **device latency**
//! (submission → completion); [`crate::report::TenantReport`] slices in the
//! final [`RunReport`] carry per-tenant recorders, throughput, and
//! rejected/deferred/high-water accounting.
//!
//! ## Determinism
//!
//! Arbitration decisions are functions of simulated time and queue state
//! only — [`QueueView`] exposes nothing else — and the pump loop advances
//! on a single merged clock, so a multi-tenant run is as deterministic as a
//! single-stream session: byte-identical reports at any thread count.
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use aero_workloads::request::IoRequest;
use aero_workloads::source::WorkloadSource;
use aero_workloads::tenant::{ArbiterKind, QueueFullPolicy, TenantId};
use aero_workloads::IterSource;

use crate::audit::Auditor;
use crate::report::RunReport;
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
    /// Tenant name, carried into its [`crate::report::TenantReport`].
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

/// What an [`Arbiter`] sees of one tenant's queue when picking the next
/// submission: simulated-time and queue-state facts only, so policies are
/// deterministic by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueView {
    /// The tenant this queue belongs to.
    pub tenant: TenantId,
    /// The tenant's configured weight.
    pub weight: u32,
    /// Requests waiting in the submission queue.
    pub pending: usize,
    /// Requests this tenant currently has outstanding on the device.
    pub outstanding: usize,
    /// Requests this tenant has submitted to the device so far.
    pub submitted: u64,
    /// Arrival time of the queue head (`None` when the queue is empty).
    pub head_arrival_ns: Option<u64>,
    /// Deadline of the queue head: its arrival plus the tenant's deadline
    /// offset (`None` when the queue is empty).
    pub head_deadline_ns: Option<u64>,
}

/// A queue-arbitration policy: given the current simulated time and every
/// tenant's [`QueueView`], picks which queue submits next (an index into
/// the slice), or `None` when no queue has pending work.
///
/// Implementations must derive their decision from the arguments alone —
/// no wall clocks, no randomness — to preserve the determinism contract.
pub trait Arbiter {
    /// Picks the next queue to submit from, or `None` if none is eligible.
    fn pick(&mut self, now_ns: u64, queues: &[QueueView]) -> Option<usize>;

    /// Short label used in tables and reports.
    fn label(&self) -> &'static str;
}

/// Round-robin arbitration: cycles through the non-empty queues in tenant
/// order, resuming after the last pick. Equal-rate tenants are served
/// within ±1 request of each other.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin arbiter starting at tenant 0.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl Arbiter for RoundRobin {
    fn pick(&mut self, _now_ns: u64, queues: &[QueueView]) -> Option<usize> {
        let n = queues.len();
        for offset in 0..n {
            let i = (self.next + offset) % n;
            if queues[i].pending > 0 {
                self.next = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    fn label(&self) -> &'static str {
        ArbiterKind::RoundRobin.label()
    }
}

/// Weighted-share arbitration: picks the eligible tenant with the smallest
/// virtual time `submitted / weight`, so device submissions divide
/// proportionally to the configured weights. Ties go to the lowest tenant
/// index. The comparison cross-multiplies in `u128`, so no division and no
/// overflow for any realistic submission count.
#[derive(Debug, Default, Clone)]
pub struct WeightedShare;

impl WeightedShare {
    /// A weighted-share arbiter.
    pub fn new() -> WeightedShare {
        WeightedShare
    }
}

impl Arbiter for WeightedShare {
    fn pick(&mut self, _now_ns: u64, queues: &[QueueView]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, q) in queues.iter().enumerate() {
            if q.pending == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    // q.submitted / q.weight < best.submitted / best.weight
                    let lhs = u128::from(q.submitted) * u128::from(queues[b].weight.max(1));
                    let rhs = u128::from(queues[b].submitted) * u128::from(q.weight.max(1));
                    lhs < rhs
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    fn label(&self) -> &'static str {
        ArbiterKind::WeightedShare.label()
    }
}

/// Earliest-deadline-first arbitration: picks the eligible queue whose head
/// has the earliest deadline (arrival plus the tenant's deadline offset).
/// Ties go to the lowest tenant index. A latency-sensitive tenant with a
/// tight deadline preempts bulk traffic whenever both have work queued.
#[derive(Debug, Default, Clone)]
pub struct EarliestDeadline;

impl EarliestDeadline {
    /// An earliest-deadline-first arbiter.
    pub fn new() -> EarliestDeadline {
        EarliestDeadline
    }
}

impl Arbiter for EarliestDeadline {
    fn pick(&mut self, _now_ns: u64, queues: &[QueueView]) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (i, q) in queues.iter().enumerate() {
            if q.pending == 0 {
                continue;
            }
            let deadline = q.head_deadline_ns.unwrap_or(u64::MAX);
            let better = match best {
                None => true,
                Some((best_deadline, _)) => deadline < best_deadline,
            };
            if better {
                best = Some((deadline, i));
            }
        }
        best.map(|(_, i)| i)
    }

    fn label(&self) -> &'static str {
        ArbiterKind::EarliestDeadline.label()
    }
}

/// Builds the boxed arbiter for a policy name.
pub fn build_arbiter(kind: ArbiterKind) -> Box<dyn Arbiter> {
    match kind {
        ArbiterKind::RoundRobin => Box::new(RoundRobin::new()),
        ArbiterKind::WeightedShare => Box::new(WeightedShare::new()),
        ArbiterKind::EarliestDeadline => Box::new(EarliestDeadline::new()),
    }
}

/// One tenant's host-side state: its source, bounded submission queue, and
/// accounting.
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
    submitted: u64,
    completed: u64,
    rejected: u64,
    deferred: u64,
    queue_depth_high_water: u64,
    outstanding_high_water: u64,
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

    /// The queue-state facts an [`Arbiter`] is allowed to see.
    fn view(&self, tenant: TenantId) -> QueueView {
        QueueView {
            tenant,
            weight: self.config.weight,
            pending: self.pending.len(),
            outstanding: self.outstanding,
            submitted: self.submitted,
            head_arrival_ns: self.pending.front().map(|r| r.arrival_ns),
            head_deadline_ns: self
                .pending
                .front()
                .map(|r| r.arrival_ns.saturating_add(self.config.deadline_ns)),
        }
    }
}

/// The multi-tenant host interface: N submission queues merged into one
/// simulated drive through a pluggable [`Arbiter`]. See the [module
/// docs](crate::host) for the model and a usage example.
pub struct HostInterface<'w> {
    queues: Vec<TenantQueue<'w>>,
    arbiter: Box<dyn Arbiter>,
    device_slots: usize,
}

impl<'w> HostInterface<'w> {
    /// A host interface running one of the built-in arbitration policies
    /// with [`DEFAULT_DEVICE_SLOTS`] device slots and no tenants yet.
    pub fn new(kind: ArbiterKind) -> HostInterface<'w> {
        HostInterface::with_arbiter(build_arbiter(kind))
    }

    /// A host interface running a custom arbitration policy.
    pub fn with_arbiter(arbiter: Box<dyn Arbiter>) -> HostInterface<'w> {
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
    /// feeding its submission queue. Returns the tenant's id (dense, in
    /// registration order — it doubles as the index into
    /// [`RunReport::tenants`]).
    pub fn add_tenant(
        &mut self,
        config: TenantConfig,
        source: impl WorkloadSource + 'w,
    ) -> TenantId {
        let id = TenantId(self.queues.len() as u16);
        self.queues.push(TenantQueue {
            config,
            source: Box::new(source),
            lookahead: None,
            exhausted: false,
            pending: VecDeque::new(),
            outstanding: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            deferred: 0,
            queue_depth_high_water: 0,
            outstanding_high_water: 0,
        });
        id
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
        let tenant_count = self.queues.len();
        // The session itself is sourceless: every request goes in through
        // admit_from_host at the host's submission clock.
        let mut sim = ssd.session(IterSource::new(std::iter::empty()));
        sim.enable_tenant_tracking(tenant_count);
        if let Some(auditor) = auditor {
            sim.attach_auditor(auditor);
        }

        // Completions the device has revealed (recorded at dispatch time)
        // but the host has not yet retired, ordered by completion time.
        let mut completions: BinaryHeap<Reverse<(u64, u16)>> = BinaryHeap::new();
        let mut drained: Vec<(u64, u16)> = Vec::new();
        // The arbiter's view of every queue, refilled in place each round.
        let mut views: Vec<QueueView> = Vec::with_capacity(tenant_count);
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
            let Some(t) = next_host else {
                if outstanding_total == 0 {
                    // Sources drained, queues empty, nothing outstanding.
                    break;
                }
                // Backpressured everywhere with no known completion yet:
                // advance the device until it reveals one (dispatch of the
                // oldest outstanding request is always reachable).
                if !sim.step() {
                    break;
                }
                sim.drain_host_completions(&mut drained);
                for &(at, tenant) in &drained {
                    completions.push(Reverse((at, tenant)));
                }
                drained.clear();
                continue;
            };

            // Let the device catch up: after processing every internal
            // event strictly before t, all completions at or before t are
            // known (completed_at is recorded at dispatch, which precedes
            // it).
            while sim.next_event_at().is_some_and(|at| at < t) {
                sim.step();
                sim.drain_host_completions(&mut drained);
                for &(at, tenant) in &drained {
                    completions.push(Reverse((at, tenant)));
                }
                drained.clear();
            }

            // Retire completions due at t, freeing their device slots.
            while let Some(&Reverse((at, tenant))) = completions.peek() {
                if at > t {
                    break;
                }
                completions.pop();
                let queue = &mut self.queues[tenant as usize];
                queue.outstanding = queue.outstanding.saturating_sub(1);
                queue.completed += 1;
                outstanding_total = outstanding_total.saturating_sub(1);
            }

            // Submit and enqueue to a fixpoint: submissions free queue
            // credits, which can admit same-instant arrivals, which can
            // themselves submit while device slots remain.
            loop {
                let mut progressed = false;
                // Arbitrate pending requests into free device slots.
                while outstanding_total < self.device_slots {
                    views.clear();
                    views.extend(
                        self.queues
                            .iter()
                            .enumerate()
                            .map(|(i, q)| q.view(TenantId(i as u16))),
                    );
                    let Some(pick) = self.arbiter.pick(t, &views) else {
                        break;
                    };
                    let Some(queue) = self.queues.get_mut(pick) else {
                        debug_assert!(false, "arbiter picked tenant {pick} of {tenant_count}");
                        break;
                    };
                    let Some(request) = queue.pending.pop_front() else {
                        debug_assert!(false, "arbiter picked an empty queue");
                        break;
                    };
                    sim.admit_from_host(request, pick as u16, t);
                    queue.outstanding += 1;
                    queue.submitted += 1;
                    queue.outstanding_high_water =
                        queue.outstanding_high_water.max(queue.outstanding as u64);
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
                                queue.deferred += 1;
                            }
                            queue.pending.push_back(request);
                            queue.queue_depth_high_water =
                                queue.queue_depth_high_water.max(queue.pending.len() as u64);
                            progressed = true;
                        } else if queue.config.on_full == QueueFullPolicy::Reject {
                            if queue.pull().is_some() {
                                queue.rejected += 1;
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
        // erases) and take the final report, then fill in the host-side
        // half of each tenant slice.
        let mut report = sim.run_to_end();
        for (slot, queue) in self.queues.iter().enumerate() {
            debug_assert_eq!(
                queue.completed, queue.submitted,
                "tenant {slot}: submitted requests must all complete"
            );
            if let Some(tenant_report) = report.tenants.get_mut(slot) {
                tenant_report.name = queue.config.name.clone();
                tenant_report.submitted = queue.submitted;
                tenant_report.rejected = queue.rejected;
                tenant_report.deferred = queue.deferred;
                tenant_report.queue_depth_high_water = queue.queue_depth_high_water;
                tenant_report.outstanding_high_water = queue.outstanding_high_water;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use aero_core::SchemeKind;
    use aero_workloads::request::IoOp;
    use aero_workloads::SyntheticWorkload;

    fn view(tenant: u16, weight: u32, pending: usize, submitted: u64) -> QueueView {
        QueueView {
            tenant: TenantId(tenant),
            weight,
            pending,
            outstanding: 0,
            submitted,
            head_arrival_ns: Some(0),
            head_deadline_ns: Some(0),
        }
    }

    /// Round-robin over always-busy equal tenants serves them within ±1
    /// request at every prefix of the pick sequence.
    #[test]
    fn round_robin_is_fair_within_one_request() {
        let mut arbiter = RoundRobin::new();
        let mut counts = [0u64; 3];
        for _ in 0..301 {
            let views: Vec<QueueView> = (0..3).map(|i| view(i, 1, 5, counts[i as usize])).collect();
            let pick = arbiter.pick(0, &views).expect("queues are non-empty");
            counts[pick] += 1;
            let max = counts.iter().max().unwrap();
            let min = counts.iter().min().unwrap();
            assert!(max - min <= 1, "unfair prefix: {counts:?}");
        }
        assert_eq!(counts.iter().sum::<u64>(), 301);
    }

    /// Round-robin skips empty queues without losing its cursor fairness.
    #[test]
    fn round_robin_skips_empty_queues() {
        let mut arbiter = RoundRobin::new();
        let views = vec![view(0, 1, 0, 0), view(1, 1, 1, 0), view(2, 1, 0, 0)];
        assert_eq!(arbiter.pick(0, &views), Some(1));
        assert_eq!(arbiter.pick(0, &views), Some(1));
        let empty = vec![view(0, 1, 0, 0)];
        assert_eq!(arbiter.pick(0, &empty), None);
    }

    /// Weighted share converges to the exact weight ratio when every queue
    /// always has work: with weights 3:1, 400 picks split 300/100.
    #[test]
    fn weighted_share_converges_to_weight_ratio() {
        let mut arbiter = WeightedShare::new();
        let weights = [3u32, 1];
        let mut submitted = [0u64; 2];
        for _ in 0..400 {
            let views: Vec<QueueView> = (0..2)
                .map(|i| view(i as u16, weights[i], 5, submitted[i]))
                .collect();
            let pick = arbiter.pick(0, &views).expect("queues are non-empty");
            submitted[pick] += 1;
        }
        assert_eq!(submitted, [300, 100]);
    }

    /// Earliest-deadline picks the queue whose head expires first,
    /// breaking ties toward the lower tenant index.
    #[test]
    fn earliest_deadline_orders_by_deadline() {
        let mut arbiter = EarliestDeadline::new();
        let mut a = view(0, 1, 1, 0);
        a.head_deadline_ns = Some(9_000);
        let mut b = view(1, 1, 1, 0);
        b.head_deadline_ns = Some(2_000);
        let mut c = view(2, 1, 1, 0);
        c.head_deadline_ns = Some(2_000);
        assert_eq!(arbiter.pick(0, &[a, b, c]), Some(1), "earliest deadline");
        let mut empty = view(0, 1, 0, 0);
        empty.head_deadline_ns = None;
        assert_eq!(arbiter.pick(0, &[empty, c]), Some(1), "skips empty");
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
