//! Workload transforms, foremost the paper's *shrinking factor*.
//!
//! §4.2: "We multiply every submission time by the shrinking factor. With
//! shrinking factors smaller than one, jobs are submitted with shorter
//! interarrival times and the workload to be processed is increased." The
//! key property — and the reason the paper picks this of the three
//! possible ways to increase load — is that it "does not change the
//! outlook (i.e. area) of all processed jobs".

use crate::job::{Job, JobId, JobSet};
use dynp_des::SimTime;

/// Scales every submission time by `factor` (> 0). Factors below one
/// compress arrivals and increase the offered load by `1/factor`; run
/// times, widths — and hence job areas — are untouched.
///
/// # Panics
/// Panics if `factor` is not strictly positive.
pub fn shrink(set: &JobSet, factor: f64) -> JobSet {
    assert!(factor > 0.0, "shrinking factor must be positive");
    let jobs = set
        .jobs()
        .iter()
        .map(|j| Job {
            submit: SimTime::from_secs_f64(j.submit.as_secs_f64() * factor),
            ..*j
        })
        .collect();
    JobSet::new(format!("{}@{factor}", set.name), set.machine_size, jobs)
}

/// Keeps only the first `n` jobs (by submission order).
pub fn truncate(set: &JobSet, n: usize) -> JobSet {
    let jobs = set.jobs().iter().take(n).copied().collect();
    JobSet::new(set.name.clone(), set.machine_size, jobs)
}

/// Concatenates two job sets for the same machine size, offsetting the
/// second set's submissions to start `gap_secs` after the first set's
/// last submission. Useful for building phase-change workloads in
/// examples and tests.
///
/// # Panics
/// Panics if the machine sizes differ.
pub fn concat(a: &JobSet, b: &JobSet, gap_secs: f64) -> JobSet {
    assert_eq!(
        a.machine_size, b.machine_size,
        "cannot concatenate sets for different machines"
    );
    let offset = a.last_submit().as_secs_f64() + gap_secs;
    let mut jobs: Vec<Job> = a.jobs().to_vec();
    for j in b.jobs() {
        jobs.push(Job {
            id: JobId(jobs.len() as u32),
            submit: SimTime::from_secs_f64(j.submit.as_secs_f64() + offset),
            ..*j
        });
    }
    JobSet::new(format!("{}+{}", a.name, b.name), a.machine_size, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimDuration;
    use proptest::prelude::*;

    fn j(id: u32, submit_s: u64, width: u32, est_s: u64, act_s: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(submit_s),
            width,
            SimDuration::from_secs(est_s),
            SimDuration::from_secs(act_s),
        )
    }

    fn sample_set() -> JobSet {
        JobSet::new(
            "s",
            32,
            vec![
                j(0, 100, 2, 600, 300),
                j(1, 250, 8, 1_200, 1_200),
                j(2, 900, 1, 60, 60),
            ],
        )
    }

    #[test]
    fn shrink_scales_submits_only() {
        let set = sample_set();
        let s = shrink(&set, 0.6);
        assert_eq!(s.len(), set.len());
        for (a, b) in set.jobs().iter().zip(s.jobs()) {
            assert_eq!(b.submit.as_secs_f64(), a.submit.as_secs_f64() * 0.6);
            assert_eq!(a.width, b.width);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.actual, b.actual);
        }
        assert_eq!(s.name, "s@0.6");
    }

    #[test]
    fn shrink_by_one_is_identity_on_times() {
        let set = sample_set();
        let s = shrink(&set, 1.0);
        for (a, b) in set.jobs().iter().zip(s.jobs()) {
            assert_eq!(a.submit, b.submit);
        }
    }

    #[test]
    fn shrink_increases_offered_load_inversely() {
        let set = sample_set();
        let s = shrink(&set, 0.5);
        assert!((s.offered_load() - set.offered_load() * 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn shrink_rejects_zero() {
        let _ = shrink(&sample_set(), 0.0);
    }

    #[test]
    fn truncate_takes_prefix() {
        let set = sample_set();
        let t = truncate(&set, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.jobs()[1].submit, SimTime::from_secs(250));
    }

    #[test]
    fn concat_offsets_second_set() {
        let a = sample_set();
        let b = sample_set();
        let c = concat(&a, &b, 1_000.0);
        assert_eq!(c.len(), 6);
        // First job of b lands at last_submit(a) + gap + its own submit.
        assert_eq!(c.jobs()[3].submit.as_secs_f64(), 900.0 + 1_000.0 + 100.0);
    }

    proptest! {
        /// The defining property from the paper: shrinking changes no job
        /// area and scales the total submission span by the factor.
        #[test]
        fn shrink_preserves_areas(
            submits in proptest::collection::vec(0u64..500_000, 1..50),
            factor in 0.1f64..1.5,
        ) {
            let jobs: Vec<Job> = submits
                .iter()
                .enumerate()
                .map(|(i, &s)| j(i as u32, s, (i as u32 % 7) + 1, 100 + i as u64, 50 + i as u64))
                .collect();
            let set = JobSet::new("p", 8, jobs);
            let shrunk = shrink(&set, factor);
            prop_assert!((shrunk.total_area() - set.total_area()).abs() < 1e-9);
            // Submission span scales by the factor (up to ms rounding per job).
            let span0 = set.last_submit().as_secs_f64() - set.first_submit().as_secs_f64();
            let span1 = shrunk.last_submit().as_secs_f64() - shrunk.first_submit().as_secs_f64();
            prop_assert!((span1 - span0 * factor).abs() < 0.01, "{span1} vs {}", span0 * factor);
            // Order of jobs is preserved.
            let ids0: Vec<u32> = set.jobs().iter().map(|x| x.width).collect();
            let ids1: Vec<u32> = shrunk.jobs().iter().map(|x| x.width).collect();
            prop_assert_eq!(ids0, ids1);
        }
    }
}
