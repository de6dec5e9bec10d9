//! Multi-tenant host-interface policy descriptions.
//!
//! A real drive serves many tenants multiplexed onto one device through
//! per-tenant NVMe submission queues. This module holds the *descriptive*
//! half of that picture — the [`ArbiterKind`] naming a queue-arbitration
//! policy, and the [`QueueFullPolicy`] describing what happens when a
//! tenant saturates its submission queue — so workload generators and the
//! scenario fuzzer can talk about multi-tenant plans without depending on
//! the simulator. The executable half (the `HostInterface` that owns the
//! queues and merges them into a session) lives in `aero_ssd::host`.

use std::fmt;

/// The queue-arbitration policies a host interface can run.
///
/// All three derive their decisions purely from simulated time and queue
/// state, so arbitration is deterministic at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArbiterKind {
    /// Cycle through the non-empty queues in tenant order.
    RoundRobin,
    /// Pick the eligible tenant with the smallest `submitted / weight`
    /// virtual time, so submission slots divide proportionally to weights.
    WeightedShare,
    /// Pick the eligible tenant whose queue head has the earliest deadline
    /// (its arrival time plus the tenant's configured deadline).
    EarliestDeadline,
}

impl ArbiterKind {
    /// Every policy, in sweep order.
    pub fn all() -> [ArbiterKind; 3] {
        [
            ArbiterKind::RoundRobin,
            ArbiterKind::WeightedShare,
            ArbiterKind::EarliestDeadline,
        ]
    }

    /// Short label used in tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ArbiterKind::RoundRobin => "round-robin",
            ArbiterKind::WeightedShare => "weighted-share",
            ArbiterKind::EarliestDeadline => "earliest-deadline",
        }
    }
}

impl fmt::Display for ArbiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a submission queue does with an arrival when it is already at its
/// configured depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueFullPolicy {
    /// The arrival stays in its source until a queue credit frees up; it is
    /// counted as *deferred* when it finally enqueues later than it
    /// arrived. A saturating tenant backpressures instead of flooding the
    /// device.
    Backpressure,
    /// The arrival is consumed and dropped, counted as *rejected*. Models a
    /// host that sheds load instead of queueing it.
    Reject,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbiter_kinds_have_distinct_labels() {
        let labels: Vec<&str> = ArbiterKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 3);
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(ArbiterKind::RoundRobin.to_string(), "round-robin");
    }
}
