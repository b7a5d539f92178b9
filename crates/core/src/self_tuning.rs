//! The self-tuning dynP scheduler: plan per policy → score → decide.

use crate::compare::EPSILON;
use crate::decider::DeciderKind;
use dynp_des::SimTime;
use dynp_metrics::Objective;
use dynp_obs::{TraceClass, TraceEvent, Tracer};
use dynp_rms::{
    PlanCounters, PlanTiming, Planner, Policy, Prune, QueueChange, ReferencePlanner, ReplanReason,
    RmsState, Schedule, Scheduler, SchedulerSnapshot, SwitchStats, RETAIN_MIN_DEPTH,
};
use dynp_workload::Job;
use serde::{Deserialize, Serialize};

/// Which events trigger a self-tuning step. "An option for the
/// self-tuning dynP scheduler is to do the self-tuning dynP step only
/// e.g. when new jobs are submitted" — the paper names the option but
/// studies the all-events variant; both are implemented (ablation A3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecideOn {
    /// Decide at every scheduling event (paper default).
    AllEvents,
    /// Decide only when jobs are submitted; completions replan with the
    /// active policy without reconsidering it.
    SubmissionsOnly,
}

/// Configuration of a self-tuning dynP scheduler.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DynPConfig {
    /// Candidate policies in canonical order (ties break towards earlier
    /// entries). Defaults to the paper's FCFS, SJF, LJF.
    pub policies: Vec<Policy>,
    /// The decider mechanism.
    pub decider: DeciderKind,
    /// The metric planned schedules are scored with.
    pub objective: Objective,
    /// Policy active before the first decision.
    pub initial_policy: Policy,
    /// Which events trigger a decision.
    pub decide_on: DecideOn,
    /// Worker threads for the per-policy plan fan-out (default 1: plan
    /// on the calling thread; 0 counts as 1). Whatever the count,
    /// schedules are bit-identical to a single-threaded run — each
    /// candidate policy plans independently against the same immutable
    /// base profile, and results merge in policy order.
    pub planner_threads: usize,
}

impl DynPConfig {
    /// The paper's configuration with the given decider: FCFS/SJF/LJF
    /// candidates, SLDwA objective, FCFS initial policy, decisions at
    /// every event.
    pub fn paper(decider: DeciderKind) -> Self {
        DynPConfig {
            policies: Policy::BASIC.to_vec(),
            decider,
            objective: Objective::SlowdownWeightedByArea,
            initial_policy: Policy::Fcfs,
            decide_on: DecideOn::AllEvents,
            planner_threads: 1,
        }
    }
}

/// The self-tuning dynP scheduler.
///
/// Implements [`Scheduler`], so the simulation driver treats it exactly
/// like a static policy: at every event it returns a full schedule — it
/// merely chooses anew, each time, *which policy's* schedule that is.
pub struct SelfTuningScheduler {
    config: DynPConfig,
    active: Policy,
    planner: Planner,
    /// From-scratch planner used when [`reference_mode`] is on.
    reference_planner: ReferencePlanner,
    /// When true, every step re-sorts every queue and rebuilds every
    /// profile from scratch (the pre-incremental algorithm), bypassing all
    /// incremental state. Kept as the correctness oracle: incremental and
    /// reference runs must produce bit-identical schedules and stats.
    reference_mode: bool,
    /// Scratch queue for reference-mode planning.
    queue_buf: Vec<Job>,
    /// Persistent sorted waiting-queue view per candidate policy (parallel
    /// to `config.policies`), maintained incrementally across events.
    orders: Vec<Vec<Job>>,
    /// The number of the first queue change the orders have not seen;
    /// `None` until they are built (new or restored scheduler).
    log_cursor: Option<usize>,
    /// Per policy: how many leading jobs of its order the last
    /// `sync_orders` left as they were, once the jobs that left the
    /// queue are taken out — what the planner's retained plans may keep.
    first_changed: Vec<usize>,
    /// The jobs that left the queue in the changes the last
    /// `sync_orders` replayed, in log order.
    departed: Vec<Job>,
    /// Per-policy schedule of the current step (parallel to
    /// `config.policies`); reused across steps. Unused while the queue
    /// is deep enough for the planner to retain the schedules itself.
    plan_schedules: Vec<Schedule>,
    /// Per-policy objective score of the current step.
    plan_scores: Vec<f64>,
    /// Per-policy wall-clock timing of the current step's planning pass
    /// (filled by the batch fan-out when span tracing is on).
    plan_timings: Vec<PlanTiming>,
    /// Worker cap for the plan fan-out (≥ 1).
    max_workers: usize,
    /// Total queue depth below which planning stays sequential.
    parallel_min_depth: usize,
    /// Scratch score vector handed to the decider; reused across steps.
    scores: Vec<(Policy, f64)>,
    /// Observability tracer (disabled by default: one branch per step).
    tracer: Tracer,
    /// Decision bookkeeping.
    pub stats: SwitchStats,
}

impl SelfTuningScheduler {
    /// Creates a scheduler from a configuration.
    ///
    /// # Panics
    /// Panics if the candidate list is empty or the initial policy is not
    /// a candidate.
    pub fn new(config: DynPConfig) -> Self {
        assert!(!config.policies.is_empty(), "dynP needs candidate policies");
        assert!(
            config.policies.contains(&config.initial_policy),
            "initial policy must be a candidate"
        );
        let n = config.policies.len();
        SelfTuningScheduler {
            active: config.initial_policy,
            planner: Planner::new(),
            reference_planner: ReferencePlanner::new(),
            reference_mode: false,
            queue_buf: Vec::new(),
            orders: vec![Vec::new(); n],
            log_cursor: None,
            first_changed: vec![0; n],
            departed: Vec::new(),
            plan_schedules: vec![Schedule::default(); n],
            plan_scores: vec![0.0; n],
            plan_timings: vec![PlanTiming::default(); n],
            max_workers: config.planner_threads.max(1),
            parallel_min_depth: dynp_rms::PARALLEL_MIN_DEPTH,
            scores: Vec::new(),
            tracer: Tracer::disabled(),
            config,
            stats: SwitchStats::default(),
        }
    }

    /// Overrides the fan-out worker cap the config set (tests force
    /// specific counts).
    pub fn set_planner_threads(&mut self, workers: usize) {
        self.max_workers = workers.max(1);
    }

    /// Overrides the queue depth below which planning stays sequential.
    /// Equivalence tests set `0` so tiny queues still exercise the
    /// threaded path; production keeps
    /// [`dynp_rms::PARALLEL_MIN_DEPTH`].
    pub fn set_parallel_min_depth(&mut self, depth: usize) {
        self.parallel_min_depth = depth;
    }

    /// Switches between the incremental engine (default) and the
    /// from-scratch reference algorithm. Both produce bit-identical
    /// schedules and stats; the reference exists as the oracle the
    /// equivalence tests check the incremental engine against.
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
        // Reference steps do not sync the orders, so what the next
        // incremental step learns about the queue is not relative to the
        // retained plans.
        self.planner.drop_retained();
    }

    /// What the planner's retained passes did (see
    /// [`Planner::counters`]).
    #[doc(hidden)]
    pub fn plan_counters(&self) -> PlanCounters {
        self.planner.counters()
    }

    /// Brings the per-policy sorted queue views in sync with the RMS
    /// waiting queue by replaying the queue changes logged since the
    /// last sync: newly submitted jobs are binary-inserted into every
    /// policy order, jobs that started are binary-search removed. Cost is
    /// O(changes × policies × queue) per event instead of a full
    /// O(policies × queue log queue) copy-and-re-sort. Leaves in
    /// `departed` the jobs that left, and in `first_changed` the length
    /// of each order's prefix that is the old order without them.
    ///
    /// When the changes since the last sync are no longer all in the log
    /// — a new or restored scheduler, or one whose state was cleared
    /// while it did not read (reference mode) — every order is rebuilt
    /// by sorting the waiting queue instead. Every policy comparator is
    /// a total order with a (submit, id) tail, so that is the order the
    /// replay would have reached.
    fn sync_orders(&mut self, state: &RmsState) {
        let log = state.queue_log();
        self.departed.clear();
        let Some(from) = self
            .log_cursor
            .filter(|&c| (log.dropped()..=log.end()).contains(&c))
        else {
            for (policy, order) in self.config.policies.iter().zip(&mut self.orders) {
                order.clear();
                order.extend_from_slice(state.waiting());
                policy.sort_queue(order);
            }
            self.first_changed.fill(0);
            self.log_cursor = Some(log.end());
            return;
        };
        for (first, order) in self.first_changed.iter_mut().zip(&self.orders) {
            *first = order.len();
        }
        for change in &log.changes()[from - log.dropped()..] {
            let slots = self
                .config
                .policies
                .iter()
                .zip(&mut self.orders)
                .zip(&mut self.first_changed);
            match change {
                QueueChange::Entered(job) => {
                    for ((policy, order), first) in slots {
                        let pos = order
                            .binary_search_by(|probe| policy.cmp_jobs(probe, job))
                            .unwrap_err();
                        order.insert(pos, *job);
                        *first = (*first).min(pos);
                    }
                }
                QueueChange::Left(job) => {
                    self.departed.push(*job);
                    for ((policy, order), first) in slots {
                        let pos = order
                            .binary_search_by(|probe| policy.cmp_jobs(probe, job))
                            .expect("departed job must be present in every policy order");
                        order.remove(pos);
                        // The prefix loses the job and keeps the rest;
                        // whether its plan does is the planner's guard 3.
                        if pos < *first {
                            *first -= 1;
                        }
                    }
                }
            }
        }
        self.log_cursor = Some(log.end());
        debug_assert_eq!(self.orders[0].len(), state.waiting().len());
    }

    /// Records one decision's outcome in the stats and installs the
    /// winning policy.
    fn record_decision(&mut self, now: SimTime, next: Policy) {
        self.stats.decisions += 1;
        self.stats.chosen[next.index()] += 1;
        if next != self.active {
            self.stats.switches += 1;
            self.stats.switched_to[next.index()] += 1;
            self.stats.log.push((now, next));
            self.active = next;
        }
    }

    /// Emits the decision audit events (verdict + switch, if any). Must
    /// run *before* [`record_decision`](Self::record_decision) installs
    /// the verdict, while `self.active` is still the old policy.
    fn trace_decision(&self, now: SimTime, next: Policy, rule: &'static str) {
        if !self.tracer.wants(TraceClass::Decision) {
            return;
        }
        self.tracer.record(
            now,
            TraceEvent::Decision {
                old: self.active.name(),
                verdict: next.name(),
                rule,
                scores: self.scores.iter().map(|&(p, v)| (p.name(), v)).collect(),
            },
        );
        if next != self.active {
            self.tracer.record(
                now,
                TraceEvent::PolicySwitch {
                    from: self.active.name(),
                    to: next.name(),
                },
            );
        }
    }

    /// Plans the waiting queue under one policy, from scratch (reference
    /// algorithm: copy the queue, sort it, rebuild the profile).
    fn plan_policy_reference(
        &mut self,
        policy: Policy,
        state: &RmsState,
        now: SimTime,
    ) -> Schedule {
        self.queue_buf.clear();
        self.queue_buf.extend_from_slice(state.waiting());
        policy.sort_queue(&mut self.queue_buf);
        self.reference_planner.plan_with_reservations(
            state.plan_capacity(),
            now,
            state.running(),
            state.reservation_slice(),
            &self.queue_buf,
        )
    }

    /// Plans the active policy's queue without a decision (the
    /// SubmissionsOnly completion path).
    fn plan_active(&mut self, state: &RmsState, now: SimTime) -> Schedule {
        if self.reference_mode {
            return self.plan_policy_reference(self.active, state, now);
        }
        self.sync_orders(state);
        self.planner.prepare(
            state.plan_capacity(),
            now,
            state.running(),
            state.reservation_slice(),
        );
        let slot = self
            .config
            .policies
            .iter()
            .position(|&p| p == self.active)
            .expect("active policy is always a candidate");
        self.planner.plan_prepared(&self.orders[slot])
    }

    /// One self-tuning dynP step: full schedule per policy, score each,
    /// decide, install.
    fn self_tuning_step(&mut self, state: &RmsState, now: SimTime) -> Schedule {
        if self.reference_mode {
            return self.self_tuning_step_reference(state, now);
        }
        self.sync_orders(state);

        // Fast path: an empty queue plans to the empty schedule under
        // every policy, so every score is the objective's empty value
        // (0.0) and the decision is whatever the decider does on uniform
        // scores — identical to the general path, without planning.
        if state.waiting().is_empty() {
            self.planner.drop_retained();
            self.scores.clear();
            self.scores
                .extend(self.config.policies.iter().map(|&p| (p, 0.0)));
            let (next, rule) =
                self.config
                    .decider
                    .decide_explained(&self.scores, self.active, EPSILON);
            self.trace_decision(now, next, rule);
            self.record_decision(now, next);
            return Schedule::default();
        }

        // The base profile (running jobs + admitted reservation windows)
        // is identical for every candidate policy: build it once, restore
        // per policy. This is where the incremental endpoint sweep folds
        // reservation endpoints in. Capacity is the *usable* machine:
        // down nodes shrink every candidate plan identically.
        self.planner.prepare(
            state.plan_capacity(),
            now,
            state.running(),
            state.reservation_slice(),
        );

        // Fast path: with a single candidate every decider returns it
        // regardless of score (argmin of one; the advanced/preferred
        // variants degenerate likewise), so skip scoring and plan once.
        if let [policy] = self.config.policies[..] {
            if self.tracer.wants(TraceClass::Decision) {
                self.scores.clear();
                self.scores.push((policy, 0.0));
                self.trace_decision(now, policy, "single-candidate");
            }
            self.record_decision(now, policy);
            return self.planner.plan_prepared(&self.orders[0]);
        }

        // Fan the independent per-policy planning passes across workers
        // once the queue is deep enough to amortize thread hand-off.
        // Schedules land in policy order regardless of worker count, and
        // scoring stays on this thread in that same order, so the step
        // is bit-identical for every `max_workers`.
        let workers = if state.waiting().len() >= self.parallel_min_depth {
            self.max_workers
        } else {
            1
        };
        // A deep queue's schedules stay in the planner, which re-places
        // only what this event changed; a shallow one is cheaper planned
        // from scratch into `plan_schedules`.
        let retain = state.waiting().len() >= RETAIN_MIN_DEPTH;
        let workers_used = if retain {
            self.plan_retained(now, workers)
        } else {
            let used = self.planner.plan_prepared_batch(
                &self.orders,
                &mut self.plan_schedules,
                &mut self.plan_timings,
                workers,
            );
            for (score, schedule) in self.plan_scores.iter_mut().zip(&self.plan_schedules) {
                *score = self.config.objective.evaluate(schedule, now);
            }
            used
        };
        if self.tracer.wants(TraceClass::Span) {
            for (i, &policy) in self.config.policies.iter().enumerate() {
                self.tracer.record_at(
                    now,
                    self.plan_timings[i].start_ns,
                    TraceEvent::PlanBuilt {
                        policy: policy.name(),
                        queue_depth: self.orders[i].len() as u32,
                        profile_points: self.planner.base_points() as u32,
                        workers: workers_used as u32,
                        dur_ns: self.plan_timings[i].dur_ns,
                    },
                );
            }
        }
        self.scores.clear();
        self.scores.extend(
            self.config
                .policies
                .iter()
                .zip(&self.plan_scores)
                .map(|(&p, &v)| (p, v)),
        );
        let (next, rule) = self
            .config
            .decider
            .decide_explained(&self.scores, self.active, EPSILON);
        self.trace_decision(now, next, rule);
        self.record_decision(now, next);

        let idx = self
            .config
            .policies
            .iter()
            .position(|&p| p == next)
            .expect("decider returned a non-candidate policy");
        if retain {
            assert!(
                self.planner.retained_excess(idx).is_none(),
                "decider chose {next}, whose plan was stopped as lost"
            );
            self.planner.retained_schedule(idx).clone()
        } else {
            std::mem::take(&mut self.plan_schedules[idx])
        }
    }

    /// Plans every policy order through the planner's retained entry and
    /// leaves their scores in `plan_scores`; returns the worker count
    /// used.
    ///
    /// The deciders consume a score only through how it compares with
    /// the best one, the active policy's and (preferred decider) the
    /// preferred policy's. So those two policies are planned first and
    /// completely, and every other pass stops once its plan cannot come
    /// within `1e3 · EPSILON` of the better of them: a weighted-mean
    /// objective scores a plan `(floor + excess) / den` with `floor` and
    /// `den` the same for every policy, and the excess of a partial plan
    /// is a lower bound on the finished plan's (see [`Prune`]). A stopped
    /// policy is scored with that lower bound — past the best score by
    /// more than any decider's tolerance, which is all they ask of a
    /// loser. The margin is three orders above `EPSILON` and six above
    /// what rounding adds: `den` is summed in the best plan's order, not
    /// the stopped one's, and the excess in closed form.
    ///
    /// Every pass is complete, and every score exact, when the scores are
    /// recorded (a `Decision` trace record lists them all) and under
    /// [`Objective::Utilization`], which a partial plan does not bound.
    fn plan_retained(&mut self, now: SimTime, workers: usize) -> usize {
        let objective = self.config.objective;
        let weight = objective
            .delay_weight()
            .filter(|_| !self.tracer.wants(TraceClass::Decision));
        let preferred = match self.config.decider {
            DeciderKind::Preferred { policy, .. } => Some(policy),
            _ => None,
        };
        let (active, policies) = (self.active, &self.config.policies);
        let first = |i: usize| policies[i] == active || Some(policies[i]) == preferred;
        let scores = &mut self.plan_scores;
        let margin = 1e3 * EPSILON;
        // Of the best plan among the first: score, excess, denominator.
        let (mut best, mut best_excess, mut den) = (f64::INFINITY, 0.0, 0.0);
        let mut limit = |planner: &Planner| {
            let Some(weight) = weight else {
                return f64::INFINITY;
            };
            // One walk per plan: its score, and beside it the excess.
            for i in (0..scores.len()).filter(|&i| first(i)) {
                let plan = planner.retained_schedule(i);
                let mut excess = 0.0;
                let (num, plan_den) = objective.sums(plan, |e| excess += weight.excess_of(e, now));
                // What `Objective::evaluate` scores it.
                scores[i] = if plan.is_empty() { 0.0 } else { num / plan_den };
                if scores[i] < best {
                    (best, best_excess, den) = (scores[i], excess, plan_den);
                }
            }
            // The tolerance of `compare::approx_eq` is relative to the
            // larger of the score and 1; so is the margin.
            best_excess + margin * best.max(1.0) * den
        };
        let used = self.planner.plan_retained_batch(
            &self.orders,
            &self.first_changed,
            &self.departed,
            weight.map(|weight| Prune {
                weight,
                first: &first,
                limit: &mut limit,
            }),
            &mut self.plan_timings,
            workers,
        );
        for (i, score) in scores.iter_mut().enumerate() {
            if weight.is_some() && first(i) {
                continue; // scored for the limit
            }
            *score = match self.planner.retained_excess(i) {
                Some(excess) => best + (excess - best_excess) / den,
                None => objective.evaluate(self.planner.retained_schedule(i), now),
            };
        }
        used
    }

    /// The pre-incremental step: re-sort every queue, rebuild every
    /// profile, score, decide. Kept verbatim as the correctness oracle.
    fn self_tuning_step_reference(&mut self, state: &RmsState, now: SimTime) -> Schedule {
        let policies = self.config.policies.clone();
        for (i, policy) in policies.into_iter().enumerate() {
            let schedule = self.plan_policy_reference(policy, state, now);
            self.plan_scores[i] = self.config.objective.evaluate(&schedule, now);
            self.plan_schedules[i] = schedule;
        }
        self.scores.clear();
        self.scores.extend(
            self.config
                .policies
                .iter()
                .zip(&self.plan_scores)
                .map(|(&p, &v)| (p, v)),
        );
        let (next, rule) = self
            .config
            .decider
            .decide_explained(&self.scores, self.active, EPSILON);
        self.trace_decision(now, next, rule);
        self.record_decision(now, next);

        let idx = self
            .config
            .policies
            .iter()
            .position(|&p| p == next)
            .expect("decider returned a non-candidate policy");
        std::mem::take(&mut self.plan_schedules[idx])
    }
}

impl Scheduler for SelfTuningScheduler {
    fn replan(&mut self, state: &RmsState, now: SimTime, reason: ReplanReason) -> Schedule {
        let _span = self.tracer.span(now, "replan");
        match (self.config.decide_on, reason) {
            // SubmissionsOnly: completions, reservation-book changes and
            // fault events replan with the active policy, without
            // reconsidering it (only submissions trigger a decision).
            (DecideOn::SubmissionsOnly, ReplanReason::Completion)
            | (DecideOn::SubmissionsOnly, ReplanReason::Reservation)
            | (DecideOn::SubmissionsOnly, ReplanReason::Fault) => self.plan_active(state, now),
            _ => self.self_tuning_step(state, now),
        }
    }

    fn active_policy(&self) -> Policy {
        self.active
    }

    fn name(&self) -> String {
        format!("dynP[{}]", self.config.decider.name())
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.planner.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Captures the active policy and the switch statistics. The
    /// per-policy queue orders and `log_cursor` are NOT captured: every
    /// policy comparator is a *total* order with a (submit, id) tail, so
    /// `restore` resets the cursor and the next `sync_orders` re-sorts the
    /// waiting queue. Nor are the planner's retained plans, a cache checked
    /// before every reuse: `restore` drops them, and the first replan plans
    /// every queue in full, bit-identical to the suffix pass the
    /// snapshotted scheduler would have taken.
    fn snapshot(&self) -> Option<SchedulerSnapshot> {
        Some(SchedulerSnapshot::DynP {
            active: self.active,
            stats: self.stats.clone(),
        })
    }

    /// A dynP snapshot whose active policy is one of the candidates:
    /// every replan looks the active policy up among them.
    fn accepts(&self, snap: &SchedulerSnapshot) -> bool {
        matches!(snap, SchedulerSnapshot::DynP { active, .. } if self.config.policies.contains(active))
    }

    fn restore(&mut self, snap: &SchedulerSnapshot) {
        let SchedulerSnapshot::DynP { active, stats } = snap else {
            panic!("snapshot from a different scheduler");
        };
        self.active = *active;
        self.stats = stats.clone();
        self.log_cursor = None;
        self.planner.drop_retained();
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

    fn dynp(decider: DeciderKind) -> SelfTuningScheduler {
        SelfTuningScheduler::new(DynPConfig::paper(decider))
    }

    #[test]
    fn empty_queue_keeps_the_active_policy() {
        let state = RmsState::new(4);
        let mut s = dynp(DeciderKind::Advanced);
        let schedule = s.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        assert!(schedule.is_empty());
        assert_eq!(s.active_policy(), Policy::Fcfs);
        assert_eq!(s.stats.decisions, 1);
        assert_eq!(s.stats.switches, 0);
    }

    #[test]
    fn switches_to_sjf_when_short_jobs_benefit() {
        // Machine 2. A long wide job and a short narrow job contend:
        // SJF's plan scores better than FCFS's.
        let mut state = RmsState::new(2);
        state.submit(j(0, 0, 2, 10_000)); // long, submitted first
        state.submit(j(1, 1, 2, 10)); // short
        let mut s = dynp(DeciderKind::Advanced);
        let schedule = s.replan(&state, SimTime::from_secs(1), ReplanReason::Submission);
        assert_eq!(s.active_policy(), Policy::Sjf);
        assert_eq!(s.stats.switches, 1);
        // The installed schedule is SJF's: the short job starts first.
        assert_eq!(schedule.entries[0].job.id, JobId(1));
    }

    #[test]
    fn single_candidate_dynp_equals_static_policy() {
        let mut config = DynPConfig::paper(DeciderKind::Advanced);
        config.policies = vec![Policy::Ljf];
        config.initial_policy = Policy::Ljf;
        let mut dynp1 = SelfTuningScheduler::new(config);
        let mut stat = dynp_rms::StaticScheduler::new(Policy::Ljf);

        let mut state = RmsState::new(4);
        for i in 0..6 {
            state.submit(j(i, i as u64, (i % 3) + 1, 100 * (i as u64 + 1)));
        }
        let now = SimTime::from_secs(10);
        let a = dynp1.replan(&state, now, ReplanReason::Submission);
        let b = stat.replan(&state, now, ReplanReason::Submission);
        assert_eq!(a.entries, b.entries);
        assert_eq!(dynp1.active_policy(), Policy::Ljf);
    }

    #[test]
    fn submissions_only_skips_decisions_on_completions() {
        let mut state = RmsState::new(2);
        state.submit(j(0, 0, 2, 10_000));
        state.submit(j(1, 1, 2, 10));
        let mut config = DynPConfig::paper(DeciderKind::Advanced);
        config.decide_on = DecideOn::SubmissionsOnly;
        let mut s = SelfTuningScheduler::new(config);
        let _ = s.replan(&state, SimTime::from_secs(1), ReplanReason::Completion);
        // No decision happened: still on the initial FCFS policy.
        assert_eq!(s.stats.decisions, 0);
        assert_eq!(s.active_policy(), Policy::Fcfs);
        let _ = s.replan(&state, SimTime::from_secs(1), ReplanReason::Submission);
        assert_eq!(s.stats.decisions, 1);
        assert_eq!(s.active_policy(), Policy::Sjf);
    }

    #[test]
    fn preferred_decider_reports_its_name() {
        let s = dynp(DeciderKind::Preferred {
            policy: Policy::Sjf,
            threshold: 0.0,
        });
        assert_eq!(s.name(), "dynP[SJF-preferred]");
    }

    #[test]
    fn stats_track_chosen_policies() {
        let mut state = RmsState::new(2);
        state.submit(j(0, 0, 2, 10_000));
        state.submit(j(1, 1, 2, 10));
        let mut s = dynp(DeciderKind::Advanced);
        let now = SimTime::from_secs(1);
        let _ = s.replan(&state, now, ReplanReason::Submission);
        let _ = s.replan(&state, now, ReplanReason::Completion);
        assert_eq!(s.stats.decisions, 2);
        assert!(s.stats.share(Policy::Sjf) > 0.99);
        assert_eq!(s.stats.log.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must be a candidate")]
    fn initial_policy_must_be_candidate() {
        let mut config = DynPConfig::paper(DeciderKind::Simple);
        config.policies = vec![Policy::Sjf];
        let _ = SelfTuningScheduler::new(config);
    }

    #[test]
    fn empty_queue_fast_path_still_decides() {
        // The empty-queue fast path must go through the decider: a
        // preferred decider switches to its preferred policy on uniform
        // (all-zero) scores even with nothing to plan.
        let state = RmsState::new(4);
        let mut s = dynp(DeciderKind::Preferred {
            policy: Policy::Sjf,
            threshold: 0.1,
        });
        let _ = s.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        assert_eq!(s.active_policy(), Policy::Sjf);
        assert_eq!(s.stats.decisions, 1);
        assert_eq!(s.stats.switches, 1);
        assert_eq!(s.stats.log, vec![(SimTime::ZERO, Policy::Sjf)]);
    }

    #[test]
    fn single_candidate_fast_path_counts_stats() {
        let mut config = DynPConfig::paper(DeciderKind::Advanced);
        config.policies = vec![Policy::Sjf];
        config.initial_policy = Policy::Sjf;
        let mut s = SelfTuningScheduler::new(config);
        let mut state = RmsState::new(4);
        state.submit(j(0, 0, 2, 100));
        let _ = s.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        let _ = s.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        assert_eq!(s.stats.decisions, 2);
        assert_eq!(s.stats.switches, 0);
        assert!((s.stats.share(Policy::Sjf) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_matches_reference_across_events() {
        // Drive incremental and reference schedulers through the same
        // event sequence (submissions, starts, completions) and demand
        // bit-identical schedules and stats at every step.
        for decider in [
            DeciderKind::Simple,
            DeciderKind::Advanced,
            DeciderKind::Preferred {
                policy: Policy::Ljf,
                threshold: 0.05,
            },
        ] {
            let mut incremental = dynp(decider);
            let mut reference = dynp(decider);
            reference.set_reference_mode(true);

            let mut state = RmsState::new(4);
            let check = |state: &RmsState,
                         now: SimTime,
                         reason: ReplanReason,
                         a: &mut SelfTuningScheduler,
                         b: &mut SelfTuningScheduler| {
                let x = a.replan(state, now, reason);
                let y = b.replan(state, now, reason);
                assert_eq!(x.entries, y.entries, "{decider:?} at {now:?}");
                assert_eq!(a.stats, b.stats, "{decider:?} at {now:?}");
                assert_eq!(a.active_policy(), b.active_policy());
                x
            };

            // Event 1: empty queue.
            check(
                &state,
                SimTime::ZERO,
                ReplanReason::Submission,
                &mut incremental,
                &mut reference,
            );
            // Events 2..5: staggered submissions.
            for i in 0..4u32 {
                let now = SimTime::from_secs(10 * (i as u64 + 1));
                state.submit(j(i, 10 * (i as u64 + 1), (i % 3) + 1, 50 * (4 - i as u64)));
                check(
                    &state,
                    now,
                    ReplanReason::Submission,
                    &mut incremental,
                    &mut reference,
                );
            }
            // Event 6: the first planned job starts, then one completes.
            let now = SimTime::from_secs(60);
            let sched = check(
                &state,
                now,
                ReplanReason::Submission,
                &mut incremental,
                &mut reference,
            );
            let first = sched.entries[0].job.id;
            state.start(first, now);
            check(
                &state,
                now,
                ReplanReason::Submission,
                &mut incremental,
                &mut reference,
            );
            let end = state.running()[0].actual_end();
            state.complete(first, end);
            check(
                &state,
                end,
                ReplanReason::Completion,
                &mut incremental,
                &mut reference,
            );
        }
    }

    #[test]
    fn incremental_matches_reference_with_reservations() {
        // A reservation-bearing state: both engines must fold the admitted
        // windows into their base profiles and stay bit-identical.
        for decider in [DeciderKind::Simple, DeciderKind::Advanced] {
            let mut incremental = dynp(decider);
            let mut reference = dynp(decider);
            reference.set_reference_mode(true);

            let mut state = RmsState::new(4);
            state.admit_reservation(SimTime::from_secs(120), SimDuration::from_secs(60), 3);
            for i in 0..4u32 {
                let now = SimTime::from_secs(10 * (i as u64 + 1));
                state.submit(j(i, 10 * (i as u64 + 1), (i % 3) + 1, 50 * (4 - i as u64)));
                let x = incremental.replan(&state, now, ReplanReason::Submission);
                let y = reference.replan(&state, now, ReplanReason::Submission);
                assert_eq!(x.entries, y.entries, "{decider:?} at {now:?}");
                assert_eq!(incremental.stats, reference.stats);
            }
            // Admitting another window mid-stream is a Reservation replan.
            state.admit_reservation(SimTime::from_secs(300), SimDuration::from_secs(50), 4);
            let now = SimTime::from_secs(45);
            let x = incremental.replan(&state, now, ReplanReason::Reservation);
            let y = reference.replan(&state, now, ReplanReason::Reservation);
            assert_eq!(x.entries, y.entries, "{decider:?} post-admit");
            assert_eq!(incremental.active_policy(), reference.active_policy());
            // The schedules actually avoid the windows.
            for e in &x.entries {
                let end = e.start.saturating_add(e.job.estimate);
                if e.job.width > 1 {
                    let w_start = SimTime::from_secs(120);
                    let w_end = SimTime::from_secs(180);
                    assert!(
                        end <= w_start || e.start >= w_end,
                        "width-{} job at {:?} overlaps the 3-wide window",
                        e.job.width,
                        e.start
                    );
                }
            }
        }
    }

    #[test]
    fn installed_schedule_matches_decided_policy_plan() {
        // The schedule dynP returns must be exactly the plan of the
        // policy it decided for (not a stale or mixed plan).
        let mut state = RmsState::new(2);
        state.submit(j(0, 0, 2, 500));
        state.submit(j(1, 1, 2, 100));
        state.submit(j(2, 2, 2, 300));
        let mut s = dynp(DeciderKind::Advanced);
        let now = SimTime::from_secs(2);
        let got = s.replan(&state, now, ReplanReason::Submission);
        let decided = s.active_policy();
        let mut reference = dynp_rms::StaticScheduler::new(decided);
        let want = reference.replan(&state, now, ReplanReason::Submission);
        assert_eq!(got.entries, want.entries);
    }
}
