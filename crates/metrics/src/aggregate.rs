//! Job-set level results measured from a finished simulation.

use crate::job_metrics::JobOutcome;
use dynp_des::SimTime;
use dynp_rms::CompletedJob;
use serde::{Deserialize, Serialize};

/// The aggregate metrics of one simulation run — everything Figures 1–4
/// and Tables 3–5 of the paper are built from.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Number of completed jobs.
    pub jobs: usize,
    /// **SLDwA** — slowdown weighted by job area, the paper's headline
    /// metric: `(Σ aᵢ·sᵢ) / (Σ aᵢ)`.
    pub sldwa: f64,
    /// Plain average slowdown (unweighted).
    pub avg_slowdown: f64,
    /// Average bounded slowdown `s⁶⁰`.
    pub avg_bounded_slowdown: f64,
    /// **ARTwW** — average response time weighted by job width:
    /// `(Σ wᵢ·rᵢ) / (Σ wᵢ)`, seconds.
    pub artww: f64,
    /// Plain average response time, seconds.
    pub avg_response_secs: f64,
    /// Plain average wait time, seconds.
    pub avg_wait_secs: f64,
    /// Utilization: total actual area / (machine size × span), where span
    /// runs from the first submission to the last completion.
    pub utilization: f64,
    /// First submission time (seconds).
    pub first_submit_secs: f64,
    /// Last completion time — the makespan end (seconds).
    pub last_end_secs: f64,
}

impl SimMetrics {
    /// Measures the completed jobs of one simulation on a machine of
    /// `machine_size` processors. Returns the zero value when no job
    /// completed.
    pub fn measure(machine_size: u32, completed: &[CompletedJob]) -> SimMetrics {
        if completed.is_empty() {
            return SimMetrics::default();
        }
        let mut area_sum = 0.0;
        let mut area_weighted_slowdown = 0.0;
        let mut slowdown_sum = 0.0;
        let mut bounded_sum = 0.0;
        let mut width_sum = 0.0;
        let mut width_weighted_response = 0.0;
        let mut response_sum = 0.0;
        let mut wait_sum = 0.0;
        let mut first_submit = SimTime::MAX;
        let mut last_end = SimTime::ZERO;

        for done in completed {
            let o = JobOutcome::of(done);
            area_sum += o.area;
            area_weighted_slowdown += o.area * o.slowdown;
            slowdown_sum += o.slowdown;
            bounded_sum += o.bounded_slowdown;
            width_sum += o.width as f64;
            width_weighted_response += o.width as f64 * o.response_secs;
            response_sum += o.response_secs;
            wait_sum += o.wait_secs;
            first_submit = first_submit.min(done.job.submit);
            last_end = last_end.max(done.end);
        }

        let n = completed.len() as f64;
        // Saturating for the empty run, whose first submit is still MAX.
        let span = last_end.saturating_since(first_submit).as_secs_f64();
        SimMetrics {
            jobs: completed.len(),
            sldwa: area_weighted_slowdown / area_sum,
            avg_slowdown: slowdown_sum / n,
            avg_bounded_slowdown: bounded_sum / n,
            artww: width_weighted_response / width_sum,
            avg_response_secs: response_sum / n,
            avg_wait_secs: wait_sum / n,
            utilization: if span > 0.0 {
                area_sum / (machine_size as f64 * span)
            } else {
                0.0
            },
            first_submit_secs: first_submit.as_secs_f64(),
            last_end_secs: last_end.as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimDuration;
    use dynp_workload::{Job, JobId};

    fn done(id: u32, submit_s: u64, start_s: u64, width: u32, actual_s: u64) -> CompletedJob {
        let job = Job::new(
            JobId(id),
            SimTime::from_secs(submit_s),
            width,
            SimDuration::from_secs(actual_s),
            SimDuration::from_secs(actual_s),
        );
        CompletedJob {
            job,
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(start_s + actual_s),
        }
    }

    #[test]
    fn empty_run_measures_zero() {
        let m = SimMetrics::measure(16, &[]);
        assert_eq!(m.jobs, 0);
        assert_eq!(m.sldwa, 0.0);
        assert_eq!(m.utilization, 0.0);
    }

    #[test]
    fn sldwa_matches_papers_weighting() {
        // Paper example: both jobs width 1, waits 600 s;
        // job A runs 0.5 s (slowdown 1201), job B runs 20 s (slowdown 31).
        // SLDwA = (600.5 + 620) / (0.5 + 20) = 1220.5 / 20.5.
        let a = done(0, 0, 600, 1, 1); // placeholder; sub-second needs ms
        let _ = a;
        let job_a = Job::new(
            JobId(0),
            SimTime::ZERO,
            1,
            SimDuration::from_millis(500),
            SimDuration::from_millis(500),
        );
        let a = CompletedJob {
            job: job_a,
            start: SimTime::from_secs(600),
            end: SimTime::from_secs(600) + SimDuration::from_millis(500),
        };
        let job_b = Job::new(
            JobId(1),
            SimTime::ZERO,
            1,
            SimDuration::from_secs(20),
            SimDuration::from_secs(20),
        );
        let b = CompletedJob {
            job: job_b,
            start: SimTime::from_secs(600),
            end: SimTime::from_secs(620),
        };
        let m = SimMetrics::measure(1, &[a, b]);
        let expected = (600.5 + 620.0) / 20.5;
        assert!(
            (m.sldwa - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.sldwa
        );
        // Unweighted average is dominated by the short job instead.
        assert!((m.avg_slowdown - (1_201.0 + 31.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn artww_weights_by_width() {
        // Job 0: width 1, response 100; job 1: width 3, response 200.
        let a = done(0, 0, 50, 1, 50); // response 100
        let b = done(1, 0, 100, 3, 100); // response 200
        let m = SimMetrics::measure(4, &[a, b]);
        assert!((m.artww - (1.0 * 100.0 + 3.0 * 200.0) / 4.0).abs() < 1e-9);
        assert!((m.avg_response_secs - 150.0).abs() < 1e-9);
        assert!((m.avg_wait_secs - 75.0).abs() < 1e-9);
    }

    #[test]
    fn sldwa_equals_artww_identity_for_unit_area_over_width() {
        // The paper notes SLDwA equals ARTwW up to the job-dependent
        // factor wᵢ/aᵢ; for jobs with IDENTICAL run time r the identity
        // is exact: SLDwA = ARTwW / r.
        let jobs = [
            done(0, 0, 10, 2, 100),
            done(1, 5, 120, 3, 100),
            done(2, 9, 230, 1, 100),
        ];
        let m = SimMetrics::measure(4, &jobs);
        assert!(
            (m.sldwa - m.artww / 100.0).abs() < 1e-9,
            "sldwa {} vs artww/r {}",
            m.sldwa,
            m.artww / 100.0
        );
    }

    #[test]
    fn utilization_of_back_to_back_run() {
        // One width-4 job on a 4-proc machine, no wait: utilization 1.
        let m = SimMetrics::measure(4, &[done(0, 0, 0, 4, 100)]);
        assert!((m.utilization - 1.0).abs() < 1e-12);
        // Same job on an 8-proc machine: 0.5.
        let m = SimMetrics::measure(8, &[done(0, 0, 0, 4, 100)]);
        assert!((m.utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_span_runs_from_first_submit_to_last_end() {
        // Submit at 0, idle until 100, run 100..200 on full machine:
        // area = 4×100, span = 200 ⇒ utilization 0.5.
        let m = SimMetrics::measure(4, &[done(0, 0, 100, 4, 100)]);
        assert!((m.utilization - 0.5).abs() < 1e-12);
        assert_eq!(m.first_submit_secs, 0.0);
        assert_eq!(m.last_end_secs, 200.0);
    }

    #[test]
    fn slowdown_floors_at_one_for_no_wait() {
        let m = SimMetrics::measure(4, &[done(0, 0, 0, 1, 100)]);
        assert_eq!(m.sldwa, 1.0);
        assert_eq!(m.avg_slowdown, 1.0);
        assert_eq!(m.avg_bounded_slowdown, 1.0);
    }
}
