//! A full schedule: a planned start time for every waiting job.
//!
//! "For all waiting jobs the scheduler computes a full schedule, which
//! contains planned start times for every waiting job in the system.
//! With this information it is possible to measure the schedule by means
//! of a performance metrics" — the object the dynP decider compares
//! across policies.

use crate::state::RunningJob;
use dynp_des::SimTime;
use dynp_workload::Job;

/// A waiting job with its planned start time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedJob {
    /// The job being planned.
    pub job: Job,
    /// Planned start time (never before submission or `now`).
    pub start: SimTime,
}

impl PlannedJob {
    /// Planned completion, assuming the job runs to its estimate (the
    /// planner reserves estimates; jobs are killed at the estimate).
    pub fn planned_end(&self) -> SimTime {
        self.start + self.job.estimate
    }
}

/// A full schedule in planning order.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Planned entries, in the order the planner placed them (policy
    /// order).
    pub entries: Vec<PlannedJob>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule {
            entries: Vec::new(),
        }
    }

    /// Number of planned jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is planned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Jobs whose planned start is at or before `now` — the jobs the RMS
    /// must start right away, in planning order.
    pub fn due(&self, now: SimTime) -> impl Iterator<Item = &PlannedJob> {
        self.entries.iter().filter(move |e| e.start <= now)
    }

    /// The latest planned completion ([`SimTime::ZERO`] when empty).
    pub fn horizon(&self) -> SimTime {
        self.entries
            .iter()
            .map(PlannedJob::planned_end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Validates the no-overcommit invariant of this schedule against the
    /// machine and the currently running jobs: at no instant may the sum
    /// of running widths (until their estimated ends) and planned widths
    /// exceed `machine_size`; no job may start before `max(now, submit)`.
    ///
    /// Used by tests and debug assertions — O(n²) in the number of
    /// entries.
    pub(crate) fn validate(
        &self,
        machine_size: u32,
        running: &[RunningJob],
        now: SimTime,
    ) -> Result<(), String> {
        for e in &self.entries {
            if e.start < e.job.submit {
                return Err(format!(
                    "job {} planned before submission ({:?} < {:?})",
                    e.job.id, e.start, e.job.submit
                ));
            }
            if e.start < now {
                return Err(format!(
                    "job {} planned in the past ({:?} < now {:?})",
                    e.job.id, e.start, now
                ));
            }
        }
        // Check capacity at every planned start (usage is piecewise
        // constant and only increases at starts).
        for e in &self.entries {
            let t = e.start;
            let mut used: u64 = 0;
            for r in running {
                if r.estimated_end() > t {
                    used += r.job.width as u64;
                }
            }
            for o in &self.entries {
                if o.start <= t && o.planned_end() > t {
                    used += o.job.width as u64;
                }
            }
            if used > machine_size as u64 {
                return Err(format!(
                    "overcommit at {:?}: {used} used of {machine_size}",
                    t
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimDuration;
    use dynp_workload::JobId;

    fn j(id: u32, submit_s: u64, width: u32, est_s: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(submit_s),
            width,
            SimDuration::from_secs(est_s),
            SimDuration::from_secs(est_s),
        )
    }

    fn planned(job: Job, start_s: u64) -> PlannedJob {
        PlannedJob {
            job,
            start: SimTime::from_secs(start_s),
        }
    }

    #[test]
    fn planned_end_adds_the_estimate() {
        let e = planned(j(0, 10, 2, 100), 40);
        assert_eq!(e.planned_end(), SimTime::from_secs(140));
    }

    #[test]
    fn due_filters_by_start() {
        let s = Schedule {
            entries: vec![planned(j(0, 0, 1, 10), 5), planned(j(1, 0, 1, 10), 50)],
        };
        let due: Vec<u32> = s.due(SimTime::from_secs(5)).map(|e| e.job.id.0).collect();
        assert_eq!(due, vec![0]);
        assert_eq!(s.horizon(), SimTime::from_secs(60));
    }

    #[test]
    fn validate_accepts_feasible_schedule() {
        let s = Schedule {
            entries: vec![
                planned(j(0, 0, 3, 100), 0),
                planned(j(1, 0, 1, 50), 0),
                planned(j(2, 0, 4, 10), 100),
            ],
        };
        assert!(s.validate(4, &[], SimTime::ZERO).is_ok());
    }

    #[test]
    fn validate_catches_overcommit() {
        let s = Schedule {
            entries: vec![planned(j(0, 0, 3, 100), 0), planned(j(1, 0, 2, 50), 0)],
        };
        let err = s.validate(4, &[], SimTime::ZERO).unwrap_err();
        assert!(err.contains("overcommit"), "{err}");
    }

    #[test]
    fn validate_counts_running_jobs() {
        let running = vec![RunningJob {
            job: j(9, 0, 3, 100),
            start: SimTime::ZERO,
        }];
        let s = Schedule {
            entries: vec![planned(j(0, 0, 2, 10), 0)],
        };
        assert!(s.validate(4, &running, SimTime::ZERO).is_err());
        // After the running job's estimated end it fits.
        let s2 = Schedule {
            entries: vec![planned(j(0, 0, 2, 10), 100)],
        };
        assert!(s2.validate(4, &running, SimTime::ZERO).is_ok());
    }

    #[test]
    fn validate_catches_start_before_submit_and_past() {
        let s = Schedule {
            entries: vec![planned(j(0, 100, 1, 10), 50)],
        };
        assert!(s
            .validate(4, &[], SimTime::ZERO)
            .unwrap_err()
            .contains("before submission"));
        let s2 = Schedule {
            entries: vec![planned(j(0, 0, 1, 10), 5)],
        };
        assert!(s2
            .validate(4, &[], SimTime::from_secs(10))
            .unwrap_err()
            .contains("past"));
    }
}
