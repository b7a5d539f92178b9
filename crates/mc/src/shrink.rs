//! Greedy delta-debugging shrinker for violating scenarios.
//!
//! Given a scenario whose exploration found a violation, repeatedly try
//! deleting one element (a job, a reservation request, an outage, a
//! planned job fault) and re-explore the smaller scenario. If the same
//! invariant still fails, keep the deletion; otherwise put the element
//! back. Iterate to a fixpoint: the result is 1-minimal — removing any
//! single remaining element makes the violation disappear.

use crate::explore::{explore, ExploreConfig, Violation};
use crate::scenario::Scenario;
use dynp_rms::Scheduler;

/// The outcome of shrinking one violating scenario.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The 1-minimal scenario that still violates.
    pub scenario: Scenario,
    /// The violation found in the minimal scenario (same invariant as
    /// the original; schedule may differ).
    pub violation: Violation,
    /// Elements deleted, as human-readable labels.
    pub removed: Vec<String>,
    /// Explorations run while shrinking (the shrink cost).
    pub attempts: u64,
}

/// Shrinks `scenario` to a 1-minimal configuration that still violates
/// `violation.invariant` under the same exploration setup.
pub fn shrink(
    scenario: &Scenario,
    violation: &Violation,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &ExploreConfig,
) -> ShrinkResult {
    let mut current = scenario.clone();
    let mut best = violation.clone();
    let mut removed = Vec::new();
    let mut attempts = 0u64;

    loop {
        let mut improved = false;
        // Candidate deletions, re-enumerated against the current
        // scenario each pass (indices shift after every kept deletion).
        let candidates: Vec<(String, Scenario)> = (0..current.jobs.len())
            .map(|i| {
                (
                    format!("job {}", current.jobs[i].id),
                    current.without_job(i),
                )
            })
            .chain((0..current.requests.len()).map(|i| {
                (
                    format!("request {}", current.requests[i].id),
                    current.without_request(i),
                )
            }))
            .chain((0..current.outages.len()).map(|i| {
                (
                    format!("outage node {}", current.outages[i].node),
                    current.without_outage(i),
                )
            }))
            .chain((0..current.job_faults.len()).map(|i| {
                (
                    format!("fault on job {}", current.job_faults[i].0),
                    current.without_job_fault(i),
                )
            }))
            .collect();

        for (label, candidate) in candidates {
            attempts += 1;
            let result = explore(&candidate, make_scheduler, cfg);
            if let Some(v) = result.violation {
                if v.invariant == best.invariant {
                    current = candidate;
                    best = v;
                    removed.push(label);
                    improved = true;
                    break; // restart candidate enumeration on the smaller scenario
                }
            }
        }
        if !improved {
            break;
        }
    }

    ShrinkResult {
        scenario: current,
        violation: best,
        removed,
        attempts,
    }
}
