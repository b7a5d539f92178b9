//! Per-job metrics, straight from §4.1 of the paper.

use dynp_rms::CompletedJob;

/// The bound (seconds) used by the bounded slowdown `s⁶⁰`, "defined in
/// [Feitelson 2001] in order to exclude very short jobs, which might be
/// the result of an error".
pub(crate) const SLOWDOWN_BOUND_SECS: f64 = 60.0;

/// Job slowdown `s = response / run time = 1 + wait / run time`.
///
/// Run times are at least 1 ms by the workload invariant, so the ratio is
/// finite (short jobs produce huge slowdowns — which is exactly why the
/// paper weights by area or bounds the run time).
pub fn slowdown(response_secs: f64, runtime_secs: f64) -> f64 {
    response_secs / runtime_secs
}

/// Bounded slowdown `s⁶⁰ = max(response / max(run time, 60), 1)`.
pub fn bounded_slowdown(response_secs: f64, runtime_secs: f64) -> f64 {
    (response_secs / runtime_secs.max(SLOWDOWN_BOUND_SECS)).max(1.0)
}

/// All per-job quantities derived from one completed job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct JobOutcome {
    /// Wait time in seconds.
    pub wait_secs: f64,
    /// Response time in seconds.
    pub response_secs: f64,
    /// Actual run time in seconds.
    pub runtime_secs: f64,
    /// Slowdown `s`.
    pub slowdown: f64,
    /// Bounded slowdown `s⁶⁰`.
    pub bounded_slowdown: f64,
    /// Area = actual run time × width (processor-seconds).
    pub area: f64,
    /// Width (requested processors).
    pub width: u32,
}

impl JobOutcome {
    /// Derives the outcome of a completed job.
    pub(crate) fn of(done: &CompletedJob) -> JobOutcome {
        let wait = done.wait_secs();
        let response = done.response_secs();
        let runtime = done.job.actual.as_secs_f64();
        JobOutcome {
            wait_secs: wait,
            response_secs: response,
            runtime_secs: runtime,
            slowdown: slowdown(response, runtime),
            bounded_slowdown: bounded_slowdown(response, runtime),
            area: done.job.area(),
            width: done.job.width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::{SimDuration, SimTime};
    use dynp_workload::{Job, JobId};

    #[test]
    fn papers_worked_example() {
        // "a job that runs for 0.5 seconds and has to wait for 10 minutes,
        // suffers a slowdown of 1201. A job with the same wait time but a
        // length of 20 seconds has a slowdown of only 31."
        let s_short = slowdown(600.0 + 0.5, 0.5);
        assert!((s_short - 1_201.0).abs() < 1e-9);
        let s_long = slowdown(600.0 + 20.0, 20.0);
        assert!((s_long - 31.0).abs() < 1e-9);
        // "the 0.5 second job has a slowdown weighted by area of
        // 1201 · 0.5 = 600.5 and the 20 second job 31 · 20 = 620."
        assert!((s_short * 0.5 - 600.5).abs() < 1e-9);
        assert!((s_long * 20.0 - 620.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_is_one_plus_wait_over_runtime() {
        // s = response/runtime = 1 + wait/runtime
        let (wait, runtime) = (30.0, 10.0);
        assert!((slowdown(wait + runtime, runtime) - (1.0 + wait / runtime)).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_clamps_short_jobs_and_floors_at_one() {
        // 0.5s job waiting 10 min: bounded uses max(0.5, 60) = 60.
        assert!((bounded_slowdown(600.5, 0.5) - 600.5 / 60.0).abs() < 1e-12);
        // A job with zero wait has bounded slowdown exactly 1.
        assert_eq!(bounded_slowdown(10.0, 10.0), 1.0);
        // Long jobs with no wait also floor at 1.
        assert_eq!(bounded_slowdown(120.0, 120.0), 1.0);
    }

    #[test]
    fn outcome_of_completed_job() {
        let job = Job::new(
            JobId(0),
            SimTime::from_secs(100),
            4,
            SimDuration::from_secs(50),
            SimDuration::from_secs(40),
        );
        let done = dynp_rms::CompletedJob {
            job,
            start: SimTime::from_secs(160),
            end: SimTime::from_secs(200),
        };
        let o = JobOutcome::of(&done);
        assert_eq!(o.wait_secs, 60.0);
        assert_eq!(o.response_secs, 100.0);
        assert_eq!(o.runtime_secs, 40.0);
        assert!((o.slowdown - 2.5).abs() < 1e-12);
        assert!((o.bounded_slowdown - 100.0 / 60.0).abs() < 1e-12);
        assert_eq!(o.area, 160.0);
        assert_eq!(o.width, 4);
    }
}
