//! Distributional views of per-job outcomes.
//!
//! Averages (even weighted ones) hide the tail; schedulers are often
//! judged on their 95th-percentile wait. This module summarizes the full
//! per-job distributions of a finished run.

use crate::job_metrics::JobOutcome;
use dynp_rms::CompletedJob;
use serde::{Deserialize, Serialize};

/// Quantile summary of one per-job quantity.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct QuantileStats {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl QuantileStats {
    /// Computes quantiles of `values` (empty → all zeros). Uses the
    /// nearest-rank definition on a sorted copy.
    pub(crate) fn of(mut values: Vec<f64>) -> QuantileStats {
        if values.is_empty() {
            return QuantileStats::default();
        }
        values.sort_by(f64::total_cmp);
        let pick = |q: f64| -> f64 {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            values[rank - 1]
        };
        QuantileStats {
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: *values.last().unwrap(),
        }
    }
}

/// Per-job outcome distributions of one run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct OutcomeDistributions {
    /// Wait time in seconds.
    pub wait_secs: QuantileStats,
    /// Slowdown.
    pub slowdown: QuantileStats,
    /// Bounded slowdown s⁶⁰.
    pub bounded_slowdown: QuantileStats,
    /// Response time in seconds.
    pub response_secs: QuantileStats,
}

impl OutcomeDistributions {
    /// Measures the distributions over the completed jobs of one run.
    pub fn measure(completed: &[CompletedJob]) -> OutcomeDistributions {
        let outcomes: Vec<JobOutcome> = completed.iter().map(JobOutcome::of).collect();
        OutcomeDistributions {
            wait_secs: QuantileStats::of(outcomes.iter().map(|o| o.wait_secs).collect()),
            slowdown: QuantileStats::of(outcomes.iter().map(|o| o.slowdown).collect()),
            bounded_slowdown: QuantileStats::of(
                outcomes.iter().map(|o| o.bounded_slowdown).collect(),
            ),
            response_secs: QuantileStats::of(outcomes.iter().map(|o| o.response_secs).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::{SimDuration, SimTime};
    use dynp_workload::{Job, JobId};

    #[test]
    fn nearest_rank_quantiles() {
        let q = QuantileStats::of((1..=100).map(|i| i as f64).collect());
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.p90, 90.0);
        assert_eq!(q.p99, 99.0);
        assert_eq!(q.max, 100.0);
    }

    #[test]
    fn small_samples_are_sane() {
        let q = QuantileStats::of(vec![7.0]);
        assert_eq!(q.p50, 7.0);
        assert_eq!(q.p99, 7.0);
        assert_eq!(q.max, 7.0);
        let empty = QuantileStats::of(vec![]);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn quantiles_are_order_invariant() {
        let a = QuantileStats::of(vec![3.0, 1.0, 2.0]);
        let b = QuantileStats::of(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn distributions_from_completed_jobs() {
        let mk = |id: u32, wait_s: u64, run_s: u64| CompletedJob {
            job: Job::new(
                JobId(id),
                SimTime::ZERO,
                1,
                SimDuration::from_secs(run_s),
                SimDuration::from_secs(run_s),
            ),
            start: SimTime::from_secs(wait_s),
            end: SimTime::from_secs(wait_s + run_s),
        };
        // Waits 0, 100, 1000 over 100-second jobs.
        let jobs = [mk(0, 0, 100), mk(1, 100, 100), mk(2, 1_000, 100)];
        let d = OutcomeDistributions::measure(&jobs);
        assert_eq!(d.wait_secs.p50, 100.0);
        assert_eq!(d.wait_secs.max, 1_000.0);
        assert_eq!(d.slowdown.p50, 2.0); // (100+100)/100
        assert_eq!(d.slowdown.max, 11.0); // (1000+100)/100
        assert_eq!(d.response_secs.max, 1_100.0);
        // Bounded slowdown with runtime 100 > 60 equals plain slowdown.
        assert_eq!(d.bounded_slowdown.max, 11.0);
    }
}
