//! Model-checking scenarios: small, fully deterministic simulation
//! configurations with deliberately coinciding instants.
//!
//! A scenario is the checker's unit of input — the complete description
//! of one closed system (machine, jobs, reservation requests, fault
//! trace, admission and retry configuration). It is a plain value so the
//! shrinker can clone it and delete elements one at a time, and
//! [`Scenario::build`] derives a configuration from size knobs alone, so
//! the CI matrix is four integers per cell.
//!
//! The builder intentionally stacks events on shared instants (two jobs
//! submitting together, an outage landing exactly on a completion, a
//! reservation request tied with an arrival): same-instant ties are where
//! the dependency resolver branches, so a scenario without ties explores
//! exactly one schedule and proves nothing about commutation.

use dynp_des::{SimDuration, SimTime};
use dynp_rms::AdmissionConfig;
use dynp_workload::{
    FaultKind, FaultPlan, Job, JobId, JobSet, NodeOutage, ReservationRequest, RetryPolicy,
};

/// Size knobs for [`Scenario::build`] — the CI matrix is a list of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Machine size in nodes. At least 2 when `outages > 0` (the RMS
    /// refuses to take the last usable node down).
    pub nodes: u32,
    /// Number of batch jobs.
    pub jobs: u32,
    /// Number of node outages.
    pub outages: u32,
    /// Number of advance-reservation requests.
    pub reservations: u32,
}

/// One complete model-checking input: a closed small-world simulation
/// configuration. All fields are data; the simulation inputs
/// ([`Scenario::job_set`], [`Scenario::fault_plan`]) are derived on
/// demand so the shrinker can edit the raw vectors.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name (carried into run results and reports).
    pub name: String,
    /// Machine size in nodes.
    pub machine: u32,
    /// Jobs, sorted by submission; ids are re-densified by
    /// [`Scenario::job_set`].
    pub jobs: Vec<Job>,
    /// Advance-reservation request stream.
    pub requests: Vec<ReservationRequest>,
    /// Node outages, sorted by `down_at`, never overlapping per node.
    pub outages: Vec<NodeOutage>,
    /// Planned first-attempt failures by dense job id.
    pub job_faults: Vec<(u32, FaultKind)>,
    /// Retry policy for failed attempts.
    pub retry: RetryPolicy,
    /// Admission parameters for the reservation stream.
    pub admission: AdmissionConfig,
}

impl Scenario {
    /// Derives a deterministic scenario from size knobs.
    ///
    /// # Panics
    /// Panics if `outages > 0` with fewer than 2 nodes: a 1-node machine
    /// cannot lose a node (the RMS keeps at least one usable processor).
    pub fn build(cfg: &ScenarioConfig) -> Scenario {
        assert!(cfg.nodes >= 1, "machine needs at least one node");
        assert!(
            cfg.outages == 0 || cfg.nodes >= 2,
            "outages need at least 2 nodes (the last usable node cannot go down)"
        );
        // Jobs arrive in same-instant pairs; widths alternate 1/2 (capped
        // by the machine) so plans contend; actuals cycle 20/30/40 s so
        // completions coincide with outage and arrival instants below.
        let jobs = (0..cfg.jobs)
            .map(|i| {
                Job::new(
                    JobId(i),
                    SimTime::from_secs(10 * (i as u64 / 2)),
                    1 + (i % 2).min(cfg.nodes - 1),
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(20 + 10 * (i as u64 % 3)),
                )
            })
            .collect();
        // Outage k hits node k mod N at t = 20 + 40k (landing exactly on
        // completion instants) for 30 s. Spacing guarantees a node's
        // repair precedes its next failure and only one node is ever down.
        let outages = (0..cfg.outages)
            .map(|k| NodeOutage {
                node: k % cfg.nodes,
                down_at: SimTime::from_secs(20 + 40 * k as u64),
                up_at: SimTime::from_secs(50 + 40 * k as u64),
            })
            .collect();
        // Requests submit together with job arrivals (tie at t = 10j);
        // odd requests carry a pre-start cancellation.
        let requests = (0..cfg.reservations)
            .map(|j| {
                let start = SimTime::from_secs(40 + 30 * j as u64);
                ReservationRequest {
                    id: j,
                    submit: SimTime::from_secs(10 * j as u64),
                    start,
                    duration: SimDuration::from_secs(30),
                    width: 1,
                    cancel_at: (j % 2 == 1).then(|| start - SimDuration::from_secs(10)),
                }
            })
            .collect();
        Scenario {
            name: format!(
                "mc-n{}j{}f{}r{}",
                cfg.nodes, cfg.jobs, cfg.outages, cfg.reservations
            ),
            machine: cfg.nodes,
            jobs,
            requests,
            outages,
            job_faults: Vec::new(),
            // Short backoff so retries re-enter the queue while other
            // jobs are still live — long backoffs serialize the run and
            // hide interleavings.
            retry: RetryPolicy {
                max_retries: 1,
                backoff: SimDuration::from_secs(15),
                factor: 2.0,
            },
            admission: AdmissionConfig::default(),
        }
    }

    /// The job set this scenario simulates (ids densified by
    /// construction order, which is submission order).
    pub fn job_set(&self) -> JobSet {
        JobSet::new(self.name.clone(), self.machine, self.jobs.clone())
    }

    /// The fault trace this scenario injects.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan {
            outages: self.outages.clone(),
            job_faults: self.job_faults.clone(),
            retry: self.retry,
        }
    }

    /// Total number of deletable elements — the shrinker's candidate
    /// space.
    pub fn size(&self) -> usize {
        self.jobs.len() + self.requests.len() + self.outages.len() + self.job_faults.len()
    }

    /// The scenario with job at (submission-order) index `idx` removed.
    /// Dense job ids shift down past the gap, so planned job faults are
    /// remapped; faults of the removed job are dropped.
    pub(crate) fn without_job(&self, idx: usize) -> Scenario {
        let mut s = self.clone();
        s.jobs.remove(idx);
        s.job_faults = s
            .job_faults
            .iter()
            .filter_map(|&(id, kind)| match (id as usize).cmp(&idx) {
                std::cmp::Ordering::Less => Some((id, kind)),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some((id - 1, kind)),
            })
            .collect();
        s
    }

    /// The scenario with reservation request `idx` removed.
    pub(crate) fn without_request(&self, idx: usize) -> Scenario {
        let mut s = self.clone();
        s.requests.remove(idx);
        s
    }

    /// The scenario with outage `idx` removed.
    pub(crate) fn without_outage(&self, idx: usize) -> Scenario {
        let mut s = self.clone();
        s.outages.remove(idx);
        s
    }

    /// The scenario with planned job fault `idx` removed.
    pub(crate) fn without_job_fault(&self, idx: usize) -> Scenario {
        let mut s = self.clone();
        s.job_faults.remove(idx);
        s
    }

    /// A compact human-readable description (for counterexample dumps).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scenario {} (machine {})", self.name, self.machine);
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "  job {} submit={}s width={} est={}s actual={}s",
                j.id,
                j.submit.as_millis() / 1000,
                j.width,
                j.estimate.as_millis() / 1000,
                j.actual.as_millis() / 1000,
            );
        }
        for r in &self.requests {
            let _ = writeln!(
                out,
                "  request {} submit={}s window=[{}s,+{}s) width={} cancel_at={:?}",
                r.id,
                r.submit.as_millis() / 1000,
                r.start.as_millis() / 1000,
                r.duration.as_millis() / 1000,
                r.width,
                r.cancel_at.map(|t| t.as_millis() / 1000),
            );
        }
        for o in &self.outages {
            let _ = writeln!(
                out,
                "  outage node={} down=[{}s,{}s)",
                o.node,
                o.down_at.as_millis() / 1000,
                o.up_at.as_millis() / 1000,
            );
        }
        for (id, kind) in &self.job_faults {
            let _ = writeln!(out, "  fault job={} kind={}", id, kind.label());
        }
        let _ = writeln!(
            out,
            "  retry max={} backoff={}s factor={}",
            self.retry.max_retries,
            self.retry.backoff.as_millis() / 1000,
            self.retry.factor,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic_and_sized() {
        let cfg = ScenarioConfig {
            nodes: 2,
            jobs: 3,
            outages: 1,
            reservations: 1,
        };
        let a = Scenario::build(&cfg);
        let b = Scenario::build(&cfg);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.size(), 5);
        assert_eq!(a.job_set().len(), 3);
        assert_eq!(a.fault_plan().outages.len(), 1);
        // Ties exist by construction: jobs 0 and 1 submit together.
        assert_eq!(a.jobs[0].submit, a.jobs[1].submit);
    }

    #[test]
    fn outages_never_overlap_per_node() {
        let s = Scenario::build(&ScenarioConfig {
            nodes: 2,
            jobs: 0,
            outages: 4,
            reservations: 0,
        });
        for w in s.outages.windows(2) {
            assert!(w[0].down_at <= w[1].down_at, "sorted by down_at");
        }
        for (i, a) in s.outages.iter().enumerate() {
            for b in &s.outages[i + 1..] {
                if a.node == b.node {
                    assert!(a.up_at <= b.down_at, "repair precedes next failure");
                }
            }
        }
    }

    #[test]
    fn without_job_remaps_faults() {
        let mut s = Scenario::build(&ScenarioConfig {
            nodes: 2,
            jobs: 4,
            outages: 0,
            reservations: 0,
        });
        s.job_faults = vec![
            (0, FaultKind::Overrun),
            (2, FaultKind::Crash { fraction: 0.5 }),
            (3, FaultKind::Overrun),
        ];
        let t = s.without_job(2);
        assert_eq!(t.jobs.len(), 3);
        assert_eq!(
            t.job_faults,
            vec![(0, FaultKind::Overrun), (2, FaultKind::Overrun)]
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn single_node_outages_are_rejected() {
        Scenario::build(&ScenarioConfig {
            nodes: 1,
            jobs: 1,
            outages: 1,
            reservations: 0,
        });
    }
}
