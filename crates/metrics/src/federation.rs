//! Federated (multi-cluster) metric aggregation.
//!
//! A federation run produces one [`SimMetrics`] per cluster plus routing
//! and migration counters. This module combines them into federation-wide
//! numbers the same way [`SimMetrics`] combines jobs: the headline SLDwA
//! is weighted by completed job *area*, so a cluster's contribution is
//! proportional to the work it actually ran, and utilization is total
//! area over total offered capacity (each cluster's machine size × its
//! own busy span).

use crate::aggregate::SimMetrics;
use serde::{Deserialize, Serialize};

/// One cluster's slice of a federation run: its aggregate metrics plus
/// the cross-shard traffic it saw.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Cluster index within the federation.
    pub cluster: u32,
    /// Machine size of the cluster.
    pub machine_size: u32,
    /// Aggregate metrics of the jobs that completed *on this cluster*.
    pub metrics: SimMetrics,
    /// Arriving jobs the router dispatched to this cluster.
    pub routed_in: u64,
    /// Of those, jobs submitted at a *different* cluster (they paid a
    /// transfer latency).
    pub remote_in: u64,
    /// Waiting jobs migrated away from this cluster at epoch barriers.
    pub migrated_out: u64,
    /// Waiting jobs migrated into this cluster at epoch barriers.
    pub migrated_in: u64,
    /// Jobs lost on this cluster (retry budget exhausted).
    pub lost: u64,
}

impl ClusterReport {
    /// The completed-job area this cluster ran (processor-seconds),
    /// recovered from its utilization over its own busy span.
    pub(crate) fn area(&self) -> f64 {
        let span = self.metrics.last_end_secs - self.metrics.first_submit_secs;
        self.metrics.utilization * self.machine_size as f64 * span
    }
}

/// Federation-wide aggregates over the per-cluster reports.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct FederatedMetrics {
    /// Completed jobs across all clusters.
    pub jobs: usize,
    /// Area-weighted SLDwA across clusters — each cluster contributes
    /// proportionally to the job area it completed, so this equals the
    /// SLDwA of the pooled job population.
    pub sldwa: f64,
    /// Total completed area over total offered capacity
    /// `Σ machine_size × span` (per-cluster spans).
    pub utilization: f64,
    /// Job-count-weighted average wait across clusters, seconds.
    pub avg_wait_secs: f64,
    /// Jobs that were routed to a cluster other than their submission
    /// cluster.
    pub remote_routes: u64,
    /// Waiting-job migrations performed at epoch barriers.
    pub migrations: u64,
    /// Jobs lost across all clusters.
    pub lost: u64,
}

impl FederatedMetrics {
    /// Combines per-cluster reports into federation-wide numbers.
    /// Clusters that completed no jobs contribute nothing to the weighted
    /// averages. Returns the zero value for an empty slice.
    pub fn combine(reports: &[ClusterReport]) -> FederatedMetrics {
        let mut jobs = 0usize;
        let mut area_sum = 0.0;
        let mut area_weighted_sldwa = 0.0;
        let mut capacity_sum = 0.0;
        let mut wait_sum = 0.0;
        let mut remote_routes = 0u64;
        let mut migrations = 0u64;
        let mut lost = 0u64;
        let mut active: Option<&ClusterReport> = None;
        let mut active_count = 0usize;
        for r in reports {
            remote_routes += r.remote_in;
            migrations += r.migrated_in;
            lost += r.lost;
            if r.metrics.jobs == 0 {
                continue;
            }
            active = Some(r);
            active_count += 1;
            jobs += r.metrics.jobs;
            let area = r.area();
            area_sum += area;
            area_weighted_sldwa += area * r.metrics.sldwa;
            let span = r.metrics.last_end_secs - r.metrics.first_submit_secs;
            capacity_sum += r.machine_size as f64 * span;
            wait_sum += r.metrics.avg_wait_secs * r.metrics.jobs as f64;
        }
        // With a single contributing cluster the weighted averages reduce
        // to that cluster's own numbers; take them verbatim so a
        // one-cluster federation is bit-identical to the plain driver
        // (`x·w / w` can be off by an ULP).
        if let (1, Some(only)) = (active_count, active) {
            return FederatedMetrics {
                jobs,
                sldwa: only.metrics.sldwa,
                utilization: only.metrics.utilization,
                avg_wait_secs: only.metrics.avg_wait_secs,
                remote_routes,
                migrations,
                lost,
            };
        }
        FederatedMetrics {
            jobs,
            sldwa: if area_sum > 0.0 {
                area_weighted_sldwa / area_sum
            } else {
                0.0
            },
            utilization: if capacity_sum > 0.0 {
                area_sum / capacity_sum
            } else {
                0.0
            },
            avg_wait_secs: if jobs > 0 {
                wait_sum / jobs as f64
            } else {
                0.0
            },
            remote_routes,
            migrations,
            lost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cluster: u32, machine: u32, jobs: usize, sldwa: f64, util: f64) -> ClusterReport {
        ClusterReport {
            cluster,
            machine_size: machine,
            metrics: SimMetrics {
                jobs,
                sldwa,
                utilization: util,
                avg_wait_secs: 10.0,
                first_submit_secs: 0.0,
                last_end_secs: 100.0,
                ..SimMetrics::default()
            },
            routed_in: jobs as u64,
            remote_in: 0,
            migrated_out: 0,
            migrated_in: 0,
            lost: 0,
        }
    }

    #[test]
    fn single_cluster_combine_is_the_identity() {
        let r = report(0, 16, 10, 2.5, 0.5);
        let f = FederatedMetrics::combine(&[r]);
        assert_eq!(f.jobs, 10);
        assert!((f.sldwa - 2.5).abs() < 1e-12);
        assert!((f.utilization - 0.5).abs() < 1e-12);
        assert!((f.avg_wait_secs - 10.0).abs() < 1e-12);
    }

    #[test]
    fn combine_weights_sldwa_by_area() {
        // Cluster 0: machine 10, util 0.8 over span 100 → area 800.
        // Cluster 1: machine 10, util 0.2 over span 100 → area 200.
        let a = report(0, 10, 5, 4.0, 0.8);
        let b = report(1, 10, 5, 1.0, 0.2);
        let f = FederatedMetrics::combine(&[a, b]);
        // (800·4 + 200·1) / 1000 = 3.4
        assert!((f.sldwa - 3.4).abs() < 1e-12);
        // (800 + 200) / (1000 + 1000) = 0.5
        assert!((f.utilization - 0.5).abs() < 1e-12);
        assert_eq!(f.jobs, 10);
    }

    #[test]
    fn idle_clusters_and_empty_input_are_benign() {
        let idle = ClusterReport {
            metrics: SimMetrics::default(),
            ..report(1, 8, 0, 0.0, 0.0)
        };
        let busy = report(0, 16, 4, 2.0, 0.5);
        let f = FederatedMetrics::combine(&[busy, idle]);
        assert_eq!(f.jobs, 4);
        assert!((f.sldwa - 2.0).abs() < 1e-12);
        let zero = FederatedMetrics::combine(&[]);
        assert_eq!(zero.jobs, 0);
        assert_eq!(zero.sldwa, 0.0);
        assert_eq!(zero.utilization, 0.0);
    }

    #[test]
    fn traffic_counters_sum_across_clusters() {
        let mut a = report(0, 8, 2, 1.0, 0.1);
        a.remote_in = 3;
        a.migrated_in = 1;
        a.lost = 2;
        let mut b = report(1, 8, 2, 1.0, 0.1);
        b.remote_in = 2;
        b.migrated_in = 4;
        let f = FederatedMetrics::combine(&[a, b]);
        assert_eq!(f.remote_routes, 5);
        assert_eq!(f.migrations, 5);
        assert_eq!(f.lost, 2);
    }
}
