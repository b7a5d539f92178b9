//! Multi-set result combination.
//!
//! §4.2: "ten synthetic job sets … are generated for each trace and are
//! used as input for the simulations. After the simulation run is
//! completed and all schedules are analyzed, the results are combined.
//! This is done by neglecting the maximum and minimum value, so that the
//! average is computed from the remaining eight results."

use crate::aggregate::SimMetrics;
use serde::{Deserialize, Serialize};

/// Averages `values` after dropping one minimum and one maximum (the
/// paper's combiner). With two or fewer values nothing can be dropped and
/// the plain average is returned; an empty slice yields 0.
pub(crate) fn combine_drop_extremes(values: &[f64]) -> f64 {
    match values.len() {
        0 => 0.0,
        1 | 2 => values.iter().sum::<f64>() / values.len() as f64,
        n => {
            let min_idx = values
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            // Pick the max among the remaining indices so a slice of
            // identical values drops two distinct elements.
            let max_idx = values
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != min_idx)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            let sum: f64 = values
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != min_idx && i != max_idx)
                .map(|(_, v)| v)
                .sum();
            sum / (n - 2) as f64
        }
    }
}

/// Combined (drop-min/max averaged) metrics over the K runs of one
/// experiment cell, with the per-run values kept for inspection.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CombinedMetrics {
    /// Combined SLDwA.
    pub sldwa: f64,
    /// Combined utilization.
    pub utilization: f64,
    /// Combined plain average slowdown.
    pub avg_slowdown: f64,
    /// Combined average bounded slowdown.
    pub avg_bounded_slowdown: f64,
    /// Combined ARTwW (seconds).
    pub artww: f64,
    /// Combined average response time (seconds).
    pub avg_response_secs: f64,
    /// Combined average wait time (seconds).
    pub avg_wait_secs: f64,
    /// The per-run SLDwA values that went into the combination.
    pub per_run_sldwa: Vec<f64>,
    /// The per-run utilization values.
    pub per_run_utilization: Vec<f64>,
    /// Number of runs combined.
    pub runs: usize,
}

impl CombinedMetrics {
    /// Combines the per-run metrics of one experiment cell, dropping the
    /// extreme run per metric as the paper prescribes.
    pub fn combine(runs: &[SimMetrics]) -> CombinedMetrics {
        let take = |f: &dyn Fn(&SimMetrics) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
        let sldwa_values = take(&|m| m.sldwa);
        let util_values = take(&|m| m.utilization);
        CombinedMetrics {
            sldwa: combine_drop_extremes(&sldwa_values),
            utilization: combine_drop_extremes(&util_values),
            avg_slowdown: combine_drop_extremes(&take(&|m| m.avg_slowdown)),
            avg_bounded_slowdown: combine_drop_extremes(&take(&|m| m.avg_bounded_slowdown)),
            artww: combine_drop_extremes(&take(&|m| m.artww)),
            avg_response_secs: combine_drop_extremes(&take(&|m| m.avg_response_secs)),
            avg_wait_secs: combine_drop_extremes(&take(&|m| m.avg_wait_secs)),
            per_run_sldwa: sldwa_values,
            per_run_utilization: util_values,
            runs: runs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn drops_min_and_max() {
        // 10 values: drop 0 and 90, average the rest.
        let v = [10.0, 0.0, 20.0, 30.0, 90.0, 40.0, 50.0, 60.0, 70.0, 80.0];
        let expected = (10.0 + 20.0 + 30.0 + 40.0 + 50.0 + 60.0 + 70.0 + 80.0) / 8.0;
        assert!((combine_drop_extremes(&v) - expected).abs() < 1e-12);
    }

    #[test]
    fn small_slices_average_plainly() {
        assert_eq!(combine_drop_extremes(&[]), 0.0);
        assert_eq!(combine_drop_extremes(&[7.0]), 7.0);
        assert_eq!(combine_drop_extremes(&[4.0, 8.0]), 6.0);
    }

    #[test]
    fn three_values_keep_the_median() {
        assert_eq!(combine_drop_extremes(&[1.0, 100.0, 5.0]), 5.0);
    }

    #[test]
    fn identical_values_are_stable() {
        assert_eq!(combine_drop_extremes(&[3.0; 10]), 3.0);
    }

    #[test]
    fn combined_metrics_take_per_metric_extremes() {
        let mut runs = vec![SimMetrics::default(); 4];
        // sldwa: 1, 2, 3, 100 → drop 1 & 100 → (2+3)/2 = 2.5
        // util: 0.9, 0.1, 0.5, 0.6 → drop 0.1 & 0.9 → 0.55
        let sld = [1.0, 2.0, 3.0, 100.0];
        let util = [0.9, 0.1, 0.5, 0.6];
        for i in 0..4 {
            runs[i].sldwa = sld[i];
            runs[i].utilization = util[i];
        }
        let c = CombinedMetrics::combine(&runs);
        assert!((c.sldwa - 2.5).abs() < 1e-12);
        assert!((c.utilization - 0.55).abs() < 1e-12);
        assert_eq!(c.runs, 4);
        assert_eq!(c.per_run_sldwa, sld.to_vec());
    }

    proptest! {
        /// The combined value always lies within [min, max] of the inputs
        /// and is invariant under permutation.
        #[test]
        fn combine_is_bounded_and_permutation_invariant(
            mut v in proptest::collection::vec(-1e6f64..1e6, 1..20)
        ) {
            let c = combine_drop_extremes(&v);
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(c >= lo - 1e-9 && c <= hi + 1e-9, "{c} outside [{lo},{hi}]");
            v.reverse();
            let c2 = combine_drop_extremes(&v);
            prop_assert!((c - c2).abs() < 1e-9);
        }
    }
}
