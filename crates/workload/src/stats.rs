//! Trace statistics — the quantities the paper reports in its Table 2.

use crate::job::JobSet;
use serde::{Deserialize, Serialize};

/// min / mean / max summary of one column.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Smallest observed value.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest observed value.
    pub max: f64,
}

impl ColumnStats {
    fn measure(values: impl Iterator<Item = f64>) -> ColumnStats {
        let mut n = 0u64;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            n += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        if n == 0 {
            return ColumnStats::default();
        }
        ColumnStats {
            min,
            mean: sum / n as f64,
            max,
        }
    }
}

/// The Table-2 statistics of one job set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceStats {
    /// Job-set name.
    pub name: String,
    /// Number of jobs.
    pub jobs: usize,
    /// Machine size (available resources).
    pub machine_size: u32,
    /// Requested resources (width).
    pub width: ColumnStats,
    /// Estimated run time, seconds.
    pub estimate: ColumnStats,
    /// Actual run time, seconds.
    pub actual: ColumnStats,
    /// Average overestimation factor: mean(estimate) / mean(actual),
    /// exactly as Table 2 defines it (ratio of the column averages).
    pub overestimation_factor: f64,
    /// Interarrival time, seconds.
    pub interarrival: ColumnStats,
    /// Offered load: total area / (machine × submission span).
    pub offered_load: f64,
}

impl TraceStats {
    /// Measures a job set.
    pub fn measure(set: &JobSet) -> TraceStats {
        let jobs = set.jobs();
        let width = ColumnStats::measure(jobs.iter().map(|j| j.width as f64));
        let estimate = ColumnStats::measure(jobs.iter().map(|j| j.estimate.as_secs_f64()));
        let actual = ColumnStats::measure(jobs.iter().map(|j| j.actual.as_secs_f64()));
        let interarrival = ColumnStats::measure(
            jobs.windows(2)
                .map(|w| (w[1].submit - w[0].submit).as_secs_f64()),
        );
        TraceStats {
            name: set.name.clone(),
            jobs: jobs.len(),
            machine_size: set.machine_size,
            width,
            estimate,
            actual,
            overestimation_factor: if actual.mean > 0.0 {
                estimate.mean / actual.mean
            } else {
                0.0
            },
            interarrival,
            offered_load: set.offered_load(),
        }
    }

    /// Formats the statistics as two Table-2-style rows (resources block
    /// and run-times block).
    pub fn table2_rows(&self) -> String {
        format!(
            "{:<6} {:>7} | width {:>5.0}/{:>7.2}/{:>6.0} of {:>5} | est [s] {:>6.0}/{:>8.0}/{:>8.0} | actual [s] {:>6.0}/{:>8.0}/{:>8.0} | overest {:>5.3} | interarr [s] {:>3.0}/{:>6.0}/{:>8.0} | load {:>5.3}",
            self.name,
            self.jobs,
            self.width.min,
            self.width.mean,
            self.width.max,
            self.machine_size,
            self.estimate.min,
            self.estimate.mean,
            self.estimate.max,
            self.actual.min,
            self.actual.mean,
            self.actual.max,
            self.overestimation_factor,
            self.interarrival.min,
            self.interarrival.mean,
            self.interarrival.max,
            self.offered_load,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId};
    use dynp_des::{SimDuration, SimTime};

    fn j(id: u32, submit_s: u64, width: u32, est_s: u64, act_s: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(submit_s),
            width,
            SimDuration::from_secs(est_s),
            SimDuration::from_secs(act_s),
        )
    }

    #[test]
    fn measures_hand_checked_values() {
        let set = JobSet::new(
            "t",
            16,
            vec![
                j(0, 0, 2, 100, 50),
                j(1, 10, 4, 200, 100),
                j(2, 40, 6, 300, 150),
            ],
        );
        let s = TraceStats::measure(&set);
        assert_eq!(s.jobs, 3);
        assert_eq!(s.width.min, 2.0);
        assert_eq!(s.width.mean, 4.0);
        assert_eq!(s.width.max, 6.0);
        assert_eq!(s.estimate.mean, 200.0);
        assert_eq!(s.actual.mean, 100.0);
        assert!((s.overestimation_factor - 2.0).abs() < 1e-12);
        // gaps: 10, 30 → min 10, mean 20, max 30
        assert_eq!(s.interarrival.min, 10.0);
        assert_eq!(s.interarrival.mean, 20.0);
        assert_eq!(s.interarrival.max, 30.0);
    }

    #[test]
    fn empty_set_yields_defaults() {
        let set = JobSet::new("t", 4, vec![]);
        let s = TraceStats::measure(&set);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.width.mean, 0.0);
        assert_eq!(s.overestimation_factor, 0.0);
    }

    #[test]
    fn table2_rows_render() {
        let set = JobSet::new("t", 4, vec![j(0, 0, 1, 60, 30)]);
        let row = TraceStats::measure(&set).table2_rows();
        assert!(row.contains("overest"));
        assert!(row.starts_with("t"));
    }
}
