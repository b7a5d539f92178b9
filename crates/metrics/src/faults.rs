//! Fault-injection and recovery metrics.
//!
//! Chaos runs produce a third result axis next to the job and
//! reservation metrics: how much capacity the outages took away, how
//! many job attempts failed (and why), how the retry policy resolved
//! them, and — combined with the job-side SLDwA — what the failures cost
//! the batch workload.

use serde::{Deserialize, Serialize};

/// Counters accumulated over one fault-injected run.
///
/// Every field is an exact integer so the struct is `Hash + Eq` — it
/// lives on the driver's snapshot path, where bit-identical fingerprints
/// across snapshot → restore are a hard requirement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultStats {
    /// Node-failure events processed.
    pub node_downs: u64,
    /// Node-repair events processed.
    pub node_ups: u64,
    /// Running jobs evicted because a node under them went down.
    pub evictions: u64,
    /// Job attempts killed by an application crash.
    pub crashes: u64,
    /// Job attempts killed at their runtime estimate (overrun).
    pub overruns: u64,
    /// Failed attempts that were requeued for a retry.
    pub retries: u64,
    /// Jobs that exhausted the retry budget and left the system.
    pub lost: u64,
    /// Job starts that landed on a down node — always zero; counted (not
    /// asserted) so the chaos harness can verify the invariant end to end.
    pub down_node_allocations: u64,
    /// Total node-milliseconds of downtime across all outages (exact).
    pub downtime_ms: u64,
}

impl FaultStats {
    /// True when the run saw no fault activity at all.
    pub fn is_empty(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Total failed attempts, any cause.
    pub fn failures(&self) -> u64 {
        self.evictions + self.crashes + self.overruns
    }

    /// Total node-seconds of downtime across all outages (derived view
    /// of the exact [`FaultStats::downtime_ms`] counter).
    pub(crate) fn downtime_secs(&self) -> f64 {
        self.downtime_ms as f64 / 1_000.0
    }

    /// Mean fraction of the machine unavailable over `span_secs`
    /// (node-seconds of downtime over total node-seconds offered).
    pub fn unavailability(&self, machine_size: u32, span_secs: f64) -> f64 {
        let offered = machine_size as f64 * span_secs;
        if offered <= 0.0 {
            0.0
        } else {
            self.downtime_secs() / offered
        }
    }

    /// Accumulates another run's counters into this one (for per-cell
    /// aggregation over replicated job sets).
    pub fn merge(&mut self, other: &FaultStats) {
        self.node_downs += other.node_downs;
        self.node_ups += other.node_ups;
        self.evictions += other.evictions;
        self.crashes += other.crashes;
        self.overruns += other.overruns;
        self.retries += other.retries;
        self.lost += other.lost;
        self.down_node_allocations += other.down_node_allocations;
        self.downtime_ms += other.downtime_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_no_activity() {
        let s = FaultStats::default();
        assert!(s.is_empty());
        assert_eq!(s.failures(), 0);
        assert_eq!(s.unavailability(128, 3600.0), 0.0);
    }

    #[test]
    fn derived_rates_reflect_counters() {
        let s = FaultStats {
            node_downs: 4,
            node_ups: 4,
            evictions: 3,
            crashes: 2,
            overruns: 1,
            retries: 5,
            lost: 1,
            downtime_ms: 500_000,
            ..Default::default()
        };
        assert!(!s.is_empty());
        assert_eq!(s.failures(), 6);
        // 500 node-secs down on a 100-node machine over 100 s → 5%.
        assert!((s.unavailability(100, 100.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_every_counter() {
        let mut a = FaultStats {
            node_downs: 1,
            evictions: 2,
            downtime_ms: 10_000,
            ..Default::default()
        };
        let b = FaultStats {
            node_downs: 3,
            node_ups: 3,
            crashes: 1,
            retries: 2,
            lost: 1,
            downtime_ms: 5_500,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.node_downs, 4);
        assert_eq!(a.node_ups, 3);
        assert_eq!(a.evictions, 2);
        assert_eq!(a.crashes, 1);
        assert_eq!(a.retries, 2);
        assert_eq!(a.lost, 1);
        assert_eq!(a.downtime_ms, 15_500);
        assert!((a.downtime_secs() - 15.5).abs() < 1e-12);
    }
}
