//! Evaluation of *planned* schedules — the decider's objective function.
//!
//! "The self-tuning dynP scheduler computes full schedules for each
//! available policy … These schedules are evaluated by means of a
//! performance metrics. Thereby, the performance of each policy is
//! expressed by a single value."
//!
//! All objectives are normalized so that **lower is better** (utilization
//! is negated), which keeps every decider a pure argmin.

use dynp_des::SimTime;
use dynp_rms::{DelayWeight, PlannedJob, Schedule};
use dynp_workload::Job;
use serde::{Deserialize, Serialize};

/// The metric a planned schedule is scored with. The paper names
/// "response time, slowdown, or utilization" as candidates and evaluates
/// with the slowdown weighted by area.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Planned slowdown weighted by estimated job area (default — matches
    /// the paper's SLDwA evaluation metric).
    SlowdownWeightedByArea,
    /// Plain average planned slowdown.
    AvgSlowdown,
    /// Average planned response time (seconds).
    AvgResponseTime,
    /// Planned response time weighted by width (ARTwW on the plan).
    ResponseTimeWeightedByWidth,
    /// Negated planned utilization over the plan's horizon (lower =
    /// better ⇒ higher utilization wins).
    Utilization,
}

impl Objective {
    /// All implemented objectives.
    pub const ALL: [Objective; 5] = [
        Objective::SlowdownWeightedByArea,
        Objective::AvgSlowdown,
        Objective::AvgResponseTime,
        Objective::ResponseTimeWeightedByWidth,
        Objective::Utilization,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Objective::SlowdownWeightedByArea => "SLDwA",
            Objective::AvgSlowdown => "AvgSLD",
            Objective::AvgResponseTime => "ART",
            Objective::ResponseTimeWeightedByWidth => "ARTwW",
            Objective::Utilization => "UTIL",
        }
    }

    /// For the objectives that are a weighted mean over the planned jobs,
    /// `Σ term / Σ weight`: how a job's term grows with its start — by
    /// [`DelayWeight::delay`] for every instant the start is put off.
    /// Every policy plans the same jobs, so this is what lets a plan's
    /// score be bounded from below before the plan is complete. `None`
    /// for [`Objective::Utilization`], whose denominator is the plan's
    /// horizon.
    pub fn delay_weight(self) -> Option<DelayWeight> {
        match self {
            // area · (response / estimate) is width · response.
            Objective::SlowdownWeightedByArea | Objective::ResponseTimeWeightedByWidth => {
                Some(DelayWeight::Width)
            }
            Objective::AvgSlowdown => Some(DelayWeight::PerEstimate),
            Objective::AvgResponseTime => Some(DelayWeight::Unit),
            Objective::Utilization => None,
        }
    }

    /// What `job` adds to the numerator of a weighted-mean objective when
    /// planned to start at `start`.
    ///
    /// Planned quantities use the *estimate* as the run time — the actual
    /// run time is unknown to the scheduler at planning time.
    #[inline]
    fn term(self, job: &Job, start: SimTime) -> f64 {
        let est = job.estimate.as_secs_f64();
        let response = (start - job.submit).as_secs_f64() + est;
        match self {
            Objective::SlowdownWeightedByArea => job.estimated_area() * (response / est),
            Objective::AvgSlowdown => response / est,
            Objective::AvgResponseTime => response,
            Objective::ResponseTimeWeightedByWidth => job.width as f64 * response,
            Objective::Utilization => panic!("utilization has no per-job terms"),
        }
    }

    /// What `job` adds to the denominator of a weighted-mean objective.
    ///
    /// # Panics
    /// Panics for [`Objective::Utilization`].
    #[inline]
    pub(crate) fn weight(self, job: &Job) -> f64 {
        match self {
            Objective::SlowdownWeightedByArea => job.estimated_area(),
            Objective::AvgSlowdown | Objective::AvgResponseTime => 1.0,
            Objective::ResponseTimeWeightedByWidth => job.width as f64,
            Objective::Utilization => panic!("utilization has no per-job weights"),
        }
    }

    /// Scores a planned schedule at time `now`; lower is better. An empty
    /// schedule scores 0 for every objective (all policies tie, and the
    /// deciders then keep the running policy).
    pub fn evaluate(self, schedule: &Schedule, now: SimTime) -> f64 {
        if schedule.is_empty() {
            return 0.0;
        }
        if self == Objective::Utilization {
            // Planned area over the span from now to the horizon (none
            // for a plan already behind `now`); the denser the plan
            // packs, the higher the value. Negated so lower is better.
            let span = schedule.horizon().saturating_since(now).as_secs_f64();
            if span <= 0.0 {
                return 0.0;
            }
            let area: f64 = schedule
                .entries
                .iter()
                .map(|e| e.job.estimated_area())
                .sum();
            return -(area / span);
        }
        let (num, den) = self.sums(schedule, |_| {});
        num / den
    }

    /// Numerator and denominator of a weighted-mean objective over a
    /// planned schedule, `(Σ term, Σ weight)`, each summed in schedule
    /// order; [`Objective::evaluate`] is their quotient. `beside` sees
    /// every entry on the way, for a caller with a sum of its own to take
    /// over the same plan.
    ///
    /// # Panics
    /// Panics for [`Objective::Utilization`].
    #[inline]
    pub fn sums(self, schedule: &Schedule, mut beside: impl FnMut(&PlannedJob)) -> (f64, f64) {
        let mut num = 0.0;
        let mut den = 0.0;
        for e in &schedule.entries {
            num += self.term(&e.job, e.start);
            den += self.weight(&e.job);
            beside(e);
        }
        (num, den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimDuration;
    use dynp_workload::{Job, JobId};

    fn entry(id: u32, submit_s: u64, width: u32, est_s: u64, start_s: u64) -> PlannedJob {
        PlannedJob {
            job: Job::new(
                JobId(id),
                SimTime::from_secs(submit_s),
                width,
                SimDuration::from_secs(est_s),
                SimDuration::from_secs(est_s),
            ),
            start: SimTime::from_secs(start_s),
        }
    }

    #[test]
    fn empty_schedule_scores_zero_everywhere() {
        let s = Schedule::new();
        for o in Objective::ALL {
            assert_eq!(o.evaluate(&s, SimTime::ZERO), 0.0, "{}", o.name());
        }
    }

    #[test]
    fn sldwa_on_plan_hand_computed() {
        // Job 0: submit 0, start 0, est 100, width 2 → slowdown 1, area 200.
        // Job 1: submit 0, start 100, est 50, width 1 → slowdown 3, area 50.
        let s = Schedule {
            entries: vec![entry(0, 0, 2, 100, 0), entry(1, 0, 1, 50, 100)],
        };
        let v = Objective::SlowdownWeightedByArea.evaluate(&s, SimTime::ZERO);
        let expected = (200.0 * 1.0 + 50.0 * 3.0) / 250.0;
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn avg_metrics_hand_computed() {
        let s = Schedule {
            entries: vec![entry(0, 0, 2, 100, 0), entry(1, 0, 1, 50, 100)],
        };
        assert!(
            (Objective::AvgSlowdown.evaluate(&s, SimTime::ZERO) - (1.0 + 3.0) / 2.0).abs() < 1e-12
        );
        assert!(
            (Objective::AvgResponseTime.evaluate(&s, SimTime::ZERO) - (100.0 + 150.0) / 2.0).abs()
                < 1e-12
        );
        let artww = (2.0 * 100.0 + 1.0 * 150.0) / 3.0;
        assert!(
            (Objective::ResponseTimeWeightedByWidth.evaluate(&s, SimTime::ZERO) - artww).abs()
                < 1e-12
        );
    }

    #[test]
    fn delay_weight_is_the_growth_of_a_term() {
        // A term at a later start exceeds the term at an earlier one by
        // the weighted delay between them — the closed form the planner
        // sums where a score sums terms.
        let mut checked = 0;
        for o in Objective::ALL {
            let Some(weight) = o.delay_weight() else {
                assert_eq!(o, Objective::Utilization);
                continue;
            };
            for (width, est_s, submit_s, floor_s, start_s) in [
                (1, 10, 0, 0, 0),
                (3, 250, 7, 7, 1_000),
                (64, 86_400, 5, 900, 900),
                (7, 1, 100, 3_600, 250_000),
            ] {
                let e = entry(0, submit_s, width, est_s, start_s);
                let floor = SimTime::from_secs(floor_s);
                let grown = o.term(&e.job, e.start) - o.term(&e.job, floor);
                let delay = weight.delay(&e.job, floor, e.start);
                assert!(delay >= 0.0);
                assert!(
                    (grown - delay).abs() <= 1e-12 * o.term(&e.job, e.start),
                    "{}: {grown} vs {delay}",
                    o.name()
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 16);
    }

    #[test]
    fn scores_are_weighted_means_of_terms() {
        let s = Schedule {
            entries: vec![entry(0, 0, 2, 100, 0), entry(1, 3, 1, 50, 100)],
        };
        for o in Objective::ALL {
            if o.delay_weight().is_none() {
                continue;
            }
            let num: f64 = s.entries.iter().map(|e| o.term(&e.job, e.start)).sum();
            let den: f64 = s.entries.iter().map(|e| o.weight(&e.job)).sum();
            assert_eq!(o.evaluate(&s, SimTime::ZERO), num / den, "{}", o.name());
            let mut seen = Vec::new();
            assert_eq!(
                o.sums(&s, |e| seen.push(e.job.id)),
                (num, den),
                "{}",
                o.name()
            );
            assert_eq!(seen, [JobId(0), JobId(1)]);
        }
    }

    #[test]
    fn utilization_prefers_denser_packing() {
        // Same two jobs; plan A packs them concurrently (horizon 100),
        // plan B serializes them (horizon 150).
        let a = Schedule {
            entries: vec![entry(0, 0, 2, 100, 0), entry(1, 0, 1, 50, 0)],
        };
        let b = Schedule {
            entries: vec![entry(0, 0, 2, 100, 0), entry(1, 0, 1, 50, 100)],
        };
        let va = Objective::Utilization.evaluate(&a, SimTime::ZERO);
        let vb = Objective::Utilization.evaluate(&b, SimTime::ZERO);
        assert!(
            va < vb,
            "denser plan must score lower (better): {va} vs {vb}"
        );
        // A plan whose horizon is behind `now` spans nothing.
        let behind = Objective::Utilization.evaluate(&b, SimTime::from_secs(150));
        assert_eq!(behind, 0.0);
        assert_eq!(Objective::Utilization.evaluate(&b, SimTime::MAX), 0.0);
    }

    #[test]
    fn better_plans_score_lower_on_slowdown() {
        // Identical jobs, one plan starts the short job later.
        let early = Schedule {
            entries: vec![entry(0, 0, 1, 10, 0), entry(1, 0, 1, 100, 10)],
        };
        let late = Schedule {
            entries: vec![entry(1, 0, 1, 100, 0), entry(0, 0, 1, 10, 100)],
        };
        let ve = Objective::SlowdownWeightedByArea.evaluate(&early, SimTime::ZERO);
        let vl = Objective::SlowdownWeightedByArea.evaluate(&late, SimTime::ZERO);
        assert!(ve < vl, "{ve} vs {vl}");
    }
}
