//! Deterministic fault-injection models.
//!
//! A planning-based RMS lives on an imperfect machine: nodes fail and
//! come back, jobs crash, runtime estimates are overrun. This module
//! produces the *offered* fault load for one simulation run — exactly as
//! [`crate::reservation::ReservationModel`] produces the offered booking
//! pressure — so that a chaos run stays fully reproducible:
//!
//! * [`NodeOutage`] — one node-loss interval `[down_at, up_at)`;
//! * [`FaultKind`] — a per-job failure (mid-run crash or walltime
//!   overrun) applied to the job's *first* execution attempt;
//! * [`RetryPolicy`] — bounded retries with exponential backoff on the
//!   resubmission instant; a job whose retry budget is exhausted ends in
//!   the typed `Lost` terminal state (tracked by the RMS state);
//! * [`FaultModel`] — the seeded generator: per-node alternating renewal
//!   processes (exponential up-times and repair times)
//!   plus independent per-job crash/overrun draws;
//! * [`FaultPlan`] — the generated, fully deterministic fault trace the
//!   simulation driver replays.
//!
//! What the faults *do* to the schedule — eviction, capacity shrinking,
//! schedule repair, reservation downgrades — is the RMS side's business
//! (`dynp-rms` / the `dynp-sim` driver); this module only decides *when*
//! and *where* lightning strikes.

use crate::job::JobSet;
use dynp_des::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One node-loss interval: the node is unavailable over `[down_at, up_at)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeOutage {
    /// Node index in `0..machine_size`.
    pub node: u32,
    /// Instant the node fails.
    pub down_at: SimTime,
    /// Instant the node returns to service (strictly after `down_at`).
    pub up_at: SimTime,
}

impl NodeOutage {
    /// Length of the outage.
    pub fn downtime(&self) -> SimDuration {
        self.up_at.saturating_since(self.down_at)
    }
}

/// A per-job failure, applied to the job's first execution attempt only
/// (retried attempts run clean — the model is of *transient* failures).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The job crashes after `fraction` (in `(0, 1)`) of its actual run
    /// time has elapsed.
    Crash {
        /// Elapsed fraction of the actual run time at the crash instant.
        fraction: f64,
    },
    /// The job overruns its runtime estimate and is walltime-killed at
    /// `start + estimate` (the planning RMS's hard limit).
    Overrun,
}

impl FaultKind {
    /// Trace/report label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Overrun => "overrun",
        }
    }
}

/// Bounded-retry policy with exponential backoff: after the `n`-th failed
/// attempt (1-based) the job is resubmitted `backoff × factor^(n−1)`
/// later, until `max_retries` resubmissions have been spent; the next
/// failure makes the job `Lost`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum number of resubmissions after the initial attempt.
    pub max_retries: u32,
    /// Backoff delay after the first failure.
    pub backoff: SimDuration,
    /// Multiplier applied to the delay on every further failure.
    pub factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: SimDuration::from_secs(300),
            factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// True when a job that has failed `failures` times (1-based count of
    /// failed attempts) has exhausted its budget and becomes `Lost`.
    pub fn exhausted(&self, failures: u32) -> bool {
        failures > self.max_retries
    }

    /// Resubmission delay after the `failures`-th failure (1-based):
    /// `backoff × factor^(failures−1)`, exponential backoff.
    pub fn delay_after(&self, failures: u32) -> SimDuration {
        debug_assert!(failures >= 1);
        let scale = self.factor.powi(failures.saturating_sub(1).min(30) as i32);
        SimDuration::from_secs_f64(self.backoff.as_secs_f64() * scale)
    }
}

/// The deterministic fault trace one run replays: node outages in
/// chronological order plus the per-job first-attempt failures.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Node-loss intervals, sorted by `down_at` (ties by node).
    pub outages: Vec<NodeOutage>,
    /// `(dense job id, fault)` pairs, sorted by job id.
    pub job_faults: Vec<(u32, FaultKind)>,
    /// Retry policy applied to every failed attempt.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no outages, no job faults. A run driven by it is
    /// bit-identical to a fault-free run.
    pub fn none() -> Self {
        FaultPlan {
            outages: Vec::new(),
            job_faults: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.job_faults.is_empty()
    }

    /// The fault planned for a job's first attempt, if any.
    pub fn fault_of(&self, job: u32) -> Option<FaultKind> {
        self.job_faults
            .binary_search_by_key(&job, |(id, _)| *id)
            .ok()
            .map(|i| self.job_faults[i].1)
    }

    /// Largest number of simultaneously down nodes anywhere in the plan:
    /// the oracle of the unit test of the outage cap.
    #[cfg(test)]
    pub(crate) fn max_concurrent_down(&self) -> u32 {
        let mut events: Vec<(SimTime, i32)> = Vec::with_capacity(self.outages.len() * 2);
        for o in &self.outages {
            events.push((o.down_at, 1));
            events.push((o.up_at, -1));
        }
        // Up before down at equal instants: `[down_at, up_at)` intervals.
        events.sort_by_key(|&(t, d)| (t, d));
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as u32
    }
}

/// Seeded fault-trace generator, calibrated against a job set.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Mean per-node up-time in seconds (exponential); `<= 0` disables
    /// node outages.
    pub mtbf_secs: f64,
    /// Mean repair time in seconds (exponential).
    pub mttr_secs: f64,
    /// Probability a job crashes mid-run on its first attempt; it
    /// overruns its estimate at half this rate.
    pub crash_prob: f64,
}

impl FaultModel {
    /// A representative chaos mix: exponential node failures at the given
    /// MTBF/MTTR, the given crash probability, and half as many overruns.
    pub fn typical(mtbf_secs: f64, mttr_secs: f64, crash_prob: f64) -> Self {
        FaultModel {
            mtbf_secs,
            mttr_secs,
            crash_prob,
        }
    }

    /// True when the model can never inject a fault.
    pub fn is_disabled(&self) -> bool {
        self.mtbf_secs <= 0.0 && self.crash_prob <= 0.0
    }

    fn sample_uptime(&self, rng: &mut StdRng) -> f64 {
        self.mtbf_secs * -(1.0 - rng.gen::<f64>()).ln()
    }

    fn sample_repair(&self, rng: &mut StdRng) -> f64 {
        (-self.mttr_secs * (1.0 - rng.gen::<f64>()).ln()).max(1.0)
    }

    /// Generates the fault trace for `set`: per-node alternating renewal
    /// processes over the submission span (plus a drain tail), capped so
    /// that at most `machine_size − 1` nodes are ever down at once (the
    /// planner requires capacity ≥ 1), and independent per-job
    /// crash/overrun draws. Deterministic in `(model, set, seed)`.
    pub fn generate(&self, set: &JobSet, seed: u64) -> FaultPlan {
        if self.is_disabled() || set.is_empty() {
            return FaultPlan::none();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E6F_6465_4C6F_7373); // "NodeLoss"
        let machine = set.machine_size;
        let t0 = set.first_submit().as_secs_f64();
        let span = (set.last_submit() - set.first_submit())
            .as_secs_f64()
            .max(1.0);
        // Outages cover the drain phase after the last submission too.
        let horizon = t0 + span * 1.5 + self.mttr_secs.max(0.0);

        let mut outages: Vec<NodeOutage> = Vec::new();
        if self.mtbf_secs > 0.0 && machine > 1 {
            for node in 0..machine {
                let mut t = t0 + self.sample_uptime(&mut rng);
                while t < horizon {
                    let repair = self.sample_repair(&mut rng);
                    outages.push(NodeOutage {
                        node,
                        down_at: SimTime::from_secs_f64(t),
                        up_at: SimTime::from_secs_f64(t + repair),
                    });
                    t += repair + self.sample_uptime(&mut rng);
                }
            }
            outages.sort_by_key(|o| (o.down_at, o.node));
            outages = capacity_floor(outages, machine);
        }

        let mut job_faults: Vec<(u32, FaultKind)> = Vec::new();
        for job in set.jobs() {
            let u = rng.gen::<f64>();
            if u < self.crash_prob {
                let fraction = 0.05 + 0.90 * rng.gen::<f64>();
                job_faults.push((job.id.0, FaultKind::Crash { fraction }));
            } else if u < self.crash_prob + self.crash_prob / 2.0 {
                job_faults.push((job.id.0, FaultKind::Overrun));
            }
        }

        FaultPlan {
            outages,
            job_faults,
            retry: RetryPolicy::default(),
        }
    }
}

/// The capacity floor: drops every outage that would take the last node
/// (the planner's profile requires at least one processor). `outages` is
/// sorted by `down_at`; an outage is kept iff fewer than `machine − 1` of
/// the outages kept before it are still down when it starts.
fn capacity_floor(outages: Vec<NodeOutage>, machine: u32) -> Vec<NodeOutage> {
    // Repair instants of the kept outages still down at the current
    // `down_at`, earliest first: `down_at` only grows, so an outage that
    // has ended for one candidate has ended for every later one.
    let mut down_until: BinaryHeap<Reverse<SimTime>> = BinaryHeap::new();
    let mut accepted = Vec::with_capacity(outages.len());
    for o in outages {
        while down_until.peek().is_some_and(|up| up.0 <= o.down_at) {
            down_until.pop();
        }
        if down_until.len() as u32 + 1 < machine {
            down_until.push(Reverse(o.up_at));
            accepted.push(o);
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces;

    fn set() -> JobSet {
        traces::kth().generate(300, 13)
    }

    #[test]
    fn generate_is_deterministic_in_seed() {
        let s = set();
        let m = FaultModel::typical(50_000.0, 3_600.0, 0.05);
        let a = m.generate(&s, 3);
        let b = m.generate(&s, 3);
        assert_eq!(a, b);
        let c = m.generate(&s, 4);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn disabled_model_gives_an_empty_plan() {
        let m = FaultModel::typical(0.0, 3_600.0, 0.0);
        assert!(m.is_disabled());
        let plan = m.generate(&set(), 1);
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn outages_are_ordered_and_well_formed() {
        let s = set();
        let m = FaultModel::typical(20_000.0, 7_200.0, 0.0);
        let plan = m.generate(&s, 9);
        assert!(!plan.outages.is_empty());
        let mut last = SimTime::ZERO;
        for o in &plan.outages {
            assert!(o.node < s.machine_size);
            assert!(o.up_at > o.down_at, "empty outage {o:?}");
            assert!(o.down_at >= last, "outages out of order");
            last = o.down_at;
        }
    }

    #[test]
    fn concurrent_outages_never_take_the_whole_machine() {
        let s = set();
        // Brutally unreliable nodes: MTBF on the order of the repair time.
        let m = FaultModel::typical(4_000.0, 8_000.0, 0.0);
        let plan = m.generate(&s, 5);
        assert!(plan.max_concurrent_down() < s.machine_size);
        assert!(plan.max_concurrent_down() >= 1, "cap test needs pressure");
    }

    #[test]
    fn capacity_floor_equals_its_quadratic_definition() {
        // Three traces of the same brutal model laid over each other, so
        // that the floor bites at the full machine size and, on a
        // two-node machine, on almost every outage. The quadratic
        // definition lives on here only.
        let s = set();
        let m = FaultModel::typical(4_000.0, 8_000.0, 0.0);
        let mut raw = Vec::new();
        for seed in [5u64, 6, 7] {
            raw.extend(m.generate(&s, seed).outages);
        }
        raw.sort_by_key(|o| (o.down_at, o.node));
        for machine in [s.machine_size, 2] {
            let input = raw.clone();
            let mut expected: Vec<NodeOutage> = Vec::new();
            for o in &input {
                let active = expected.iter().filter(|a| a.up_at > o.down_at).count() as u32;
                if active + 1 < machine {
                    expected.push(*o);
                }
            }
            assert!(expected.len() < input.len(), "floor never bit");
            assert_eq!(capacity_floor(input, machine), expected);
        }
    }

    #[test]
    fn job_faults_are_sorted_and_probabilities_roughly_hold() {
        let s = set();
        let m = FaultModel::typical(0.0, 0.0, 0.2);
        let plan = m.generate(&s, 21);
        assert!(plan.outages.is_empty());
        let mut last = None;
        let mut crashes = 0usize;
        for &(id, kind) in &plan.job_faults {
            assert!(Some(id) > last, "job faults not strictly sorted");
            last = Some(id);
            if let FaultKind::Crash { fraction } = kind {
                assert!(fraction > 0.0 && fraction < 1.0);
                crashes += 1;
            }
        }
        // 20% crash + 10% overrun over 300 jobs: allow wide slack.
        let total = plan.job_faults.len();
        assert!(
            (30..=150).contains(&total),
            "implausible fault count {total}"
        );
        assert!(crashes >= total / 4);
        assert_eq!(plan.fault_of(u32::MAX), None);
        let &(first, kind) = plan.job_faults.first().unwrap();
        assert_eq!(plan.fault_of(first), Some(kind));
    }

    #[test]
    fn retry_policy_backs_off_exponentially() {
        let r = RetryPolicy::default();
        assert_eq!(r.delay_after(1), SimDuration::from_secs(300));
        assert_eq!(r.delay_after(2), SimDuration::from_secs(600));
        assert_eq!(r.delay_after(3), SimDuration::from_secs(1_200));
        assert!(!r.exhausted(3));
        assert!(r.exhausted(4));
    }
}
