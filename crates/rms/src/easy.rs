//! EASY backfilling — the *queueing* counterpart to the planning RMS.
//!
//! The paper's introduction notes that "most commonly used is first come
//! first serve (FCFS) combined with backfilling [Lifka 1995, Skovira
//! 1996, Mu'alem & Feitelson 2001]". Planning-based systems backfill
//! implicitly; queueing systems run the explicit EASY algorithm instead:
//!
//! 1. start queue-head jobs while they fit;
//! 2. when the head does not fit, give it a *reservation* at the shadow
//!    time (the earliest instant enough processors free up, assuming
//!    running jobs hold their estimate);
//! 3. scan the rest of the queue and start ("backfill") any job that
//!    fits now and does not delay the reservation — either because it
//!    ends before the shadow time, or because it only uses the extra
//!    processors the head job will not need.
//!
//! Including EASY lets the harness compare queueing against planning on
//! identical workloads (ablation A4) — the contrast the dynP line of
//! work builds on (Hovestadt et al., "Queuing vs. Planning").

use crate::planner::RUNNING_PAD;
use crate::policy::Policy;
use crate::profile::Profile;
use crate::schedule::{PlannedJob, Schedule};
use crate::scheduler::{ReplanReason, Scheduler, SchedulerSnapshot};
use crate::state::RmsState;
use dynp_des::SimTime;
use dynp_workload::Job;

/// Queueing scheduler with EASY backfilling.
///
/// The queue is kept in the order of `policy` (EASY is traditionally
/// FCFS, but any total order works — an SJF-ordered EASY is the queueing
/// analogue of the planning SJF baseline).
///
/// "Fits" is read off one free-capacity profile: a job may start now only
/// if its whole estimated run fits alongside the running jobs, the head
/// job's shadow reservation *and* every admitted reservation window, so
/// queueing-vs-planning ablations stay comparable on mixed batch +
/// guaranteed-start traffic. Without windows this is the classic
/// algorithm, whose extra processors count every job that ends at the
/// shadow time.
#[derive(Debug)]
pub struct EasyBackfillScheduler {
    policy: Policy,
    queue_buf: Vec<Job>,
    /// Free capacity after the running jobs and admitted windows.
    profile: Profile,
    /// Scratch span list for the profile sweep.
    spans: Vec<(SimTime, SimTime, u32)>,
    /// Scratch endpoint buffer for the profile sweep.
    events: Vec<(SimTime, i64)>,
    /// Number of jobs started by backfilling rather than at the head.
    pub backfilled: u64,
}

impl EasyBackfillScheduler {
    /// Creates an EASY scheduler ordering its queue by `policy`.
    pub fn new(policy: Policy) -> Self {
        EasyBackfillScheduler {
            policy,
            queue_buf: Vec::new(),
            profile: Profile::new(1, SimTime::ZERO),
            spans: Vec::new(),
            events: Vec::new(),
            backfilled: 0,
        }
    }

    /// The classic EASY configuration (FCFS order).
    pub fn fcfs() -> Self {
        Self::new(Policy::Fcfs)
    }
}

impl Scheduler for EasyBackfillScheduler {
    /// Returns a schedule containing exactly the jobs to start *now*
    /// (queueing systems assign no future start times; the driver keeps
    /// the rest waiting). The running jobs are padded exactly as the
    /// planner pads them, and a job fits when its whole estimated run
    /// fits the profile starting now:
    ///
    /// 1. start head jobs whose full run fits now;
    /// 2. give the first stuck head a shadow reservation at its earliest
    ///    profile fit;
    /// 3. backfill any later job whose full run still fits now — by
    ///    construction it delays neither the shadow reservation nor any
    ///    admitted window.
    fn replan(&mut self, state: &RmsState, now: SimTime, _reason: ReplanReason) -> Schedule {
        if state.nothing_fits() {
            return Schedule::default();
        }
        self.queue_buf.clear();
        self.queue_buf.extend_from_slice(state.waiting());
        self.policy.sort_queue(&mut self.queue_buf);

        let capacity = state.plan_capacity();
        self.spans.clear();
        for r in state.running() {
            let end = r.estimated_end().max(now + RUNNING_PAD);
            self.spans.push((now, end, r.job.width));
        }
        for res in state.reservations().active(now) {
            self.spans
                .push((res.start.max(now + RUNNING_PAD), res.end(), res.width));
        }
        self.profile
            .rebuild_from_spans(capacity, now, &self.spans, &mut self.events);

        let mut entries: Vec<PlannedJob> = Vec::new();
        let mut idx = 0;

        // Phase 1: start head jobs while their whole run fits now. A job
        // wider than the degraded machine gets stuck here (it cannot run
        // until node repair).
        while idx < self.queue_buf.len() {
            let job = self.queue_buf[idx];
            if job.width > capacity
                || self.profile.earliest_fit(now, job.estimate, job.width) != now
            {
                break;
            }
            self.profile.allocate(now, job.estimate, job.width);
            entries.push(PlannedJob { job, start: now });
            idx += 1;
        }
        if idx >= self.queue_buf.len() {
            return Schedule { entries };
        }

        // Phase 2: shadow reservation for the stuck head at its earliest
        // profile fit. An over-wide head has no feasible fit at any time
        // and therefore imposes no shadow constraint.
        let head = self.queue_buf[idx];
        if head.width <= capacity {
            let _shadow = self
                .profile
                .allocate_earliest(now, head.estimate, head.width);
        }

        // Phase 3: backfill later jobs that still fit now.
        for job in &self.queue_buf[idx + 1..] {
            if job.width <= capacity
                && self.profile.earliest_fit(now, job.estimate, job.width) == now
            {
                self.profile.allocate(now, job.estimate, job.width);
                entries.push(PlannedJob {
                    job: *job,
                    start: now,
                });
                self.backfilled += 1;
            }
        }
        Schedule { entries }
    }

    fn active_policy(&self) -> Policy {
        self.policy
    }

    fn name(&self) -> String {
        if self.policy == Policy::Fcfs {
            "EASY".to_string()
        } else {
            format!("EASY[{}]", self.policy.name())
        }
    }

    fn snapshot(&self) -> Option<SchedulerSnapshot> {
        Some(SchedulerSnapshot::Easy {
            backfilled: self.backfilled,
        })
    }

    fn restore(&mut self, snap: &SchedulerSnapshot) {
        let SchedulerSnapshot::Easy { backfilled } = snap else {
            panic!("snapshot from a different scheduler");
        };
        self.backfilled = *backfilled;
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

    fn started(s: &Schedule) -> Vec<u32> {
        s.entries.iter().map(|e| e.job.id.0).collect()
    }

    #[test]
    fn starts_head_jobs_that_fit() {
        let mut state = RmsState::new(8);
        state.submit(j(0, 0, 4, 100));
        state.submit(j(1, 1, 4, 100));
        state.submit(j(2, 2, 4, 100)); // does not fit
        let mut easy = EasyBackfillScheduler::fcfs();
        let s = easy.replan(&state, SimTime::from_secs(2), ReplanReason::Submission);
        assert_eq!(started(&s), vec![0, 1]);
        assert_eq!(easy.backfilled, 0);
    }

    #[test]
    fn backfills_short_jobs_under_the_reservation() {
        // Machine 4; a width-3 job runs until t=100. Queue: wide head
        // (width 4, blocked) then a short narrow job that ends before the
        // shadow time → backfilled.
        let mut state = RmsState::new(4);
        state.submit(j(9, 0, 3, 100));
        let mut easy = EasyBackfillScheduler::fcfs();
        let s0 = easy.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        for e in s0.due(SimTime::ZERO) {
            state.start(e.job.id, SimTime::ZERO);
        }
        state.submit(j(0, 1, 4, 50)); // head, blocked until t=100
        state.submit(j(1, 1, 1, 80)); // ends at 81 < 100 → backfill
        state.submit(j(2, 1, 1, 200)); // would end at 201 > 100, no extra → skip
        let now = SimTime::from_secs(1);
        let s = easy.replan(&state, now, ReplanReason::Submission);
        assert_eq!(started(&s), vec![1]);
        assert_eq!(easy.backfilled, 1);
    }

    #[test]
    fn backfills_on_extra_processors_past_the_shadow() {
        // Machine 8; width-4 running until t=100. Head needs 6 → shadow
        // t=100, extra = (4+4) - 6 = 2. A long width-2 job may run past
        // the shadow on the extra processors.
        let mut state = RmsState::new(8);
        state.submit(j(9, 0, 4, 100));
        let mut easy = EasyBackfillScheduler::fcfs();
        let s0 = easy.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        for e in s0.due(SimTime::ZERO) {
            state.start(e.job.id, SimTime::ZERO);
        }
        state.submit(j(0, 1, 6, 50)); // head, blocked
        state.submit(j(1, 1, 2, 10_000)); // long but fits the 2 extra
        state.submit(j(2, 1, 2, 10_000)); // extra exhausted → must wait
        let now = SimTime::from_secs(1);
        let s = easy.replan(&state, now, ReplanReason::Submission);
        assert_eq!(started(&s), vec![1]);
    }

    #[test]
    fn extra_counts_every_job_ending_at_the_shadow() {
        // Machine 4; two width-1 jobs run until t=100. The width-3 head
        // is blocked until both end, so extra = 4 - 3 = 1 and a long
        // width-1 job may run past the shadow.
        let mut state = RmsState::new(4);
        state.submit(j(8, 0, 1, 100));
        state.submit(j(9, 0, 1, 100));
        let mut easy = EasyBackfillScheduler::fcfs();
        let s0 = easy.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        for e in s0.due(SimTime::ZERO) {
            state.start(e.job.id, SimTime::ZERO);
        }
        state.submit(j(0, 1, 3, 50)); // head, blocked until t=100
        state.submit(j(1, 1, 1, 10_000)); // fits the one extra processor
        let s = easy.replan(&state, SimTime::from_secs(1), ReplanReason::Submission);
        assert_eq!(started(&s), vec![1]);
    }

    #[test]
    fn backfill_never_delays_the_head_reservation() {
        // End-to-end: the head job must start no later than the shadow
        // time computed when it got stuck (running estimates are upper
        // bounds, so early completions can only improve it).
        let mut state = RmsState::new(4);
        state.submit(j(9, 0, 3, 100));
        let mut easy = EasyBackfillScheduler::fcfs();
        let s = easy.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        let run9 = state.start(s.entries[0].job.id, SimTime::ZERO);
        state.submit(j(0, 1, 4, 50));
        state.submit(j(1, 1, 1, 80));
        let now = SimTime::from_secs(1);
        let s = easy.replan(&state, now, ReplanReason::Submission);
        let run1 = state.start(s.entries[0].job.id, now);
        // Completions at estimated ends.
        state.complete(run1.job.id, run1.actual_end());
        state.complete(run9.job.id, run9.actual_end());
        let s = easy.replan(&state, SimTime::from_secs(100), ReplanReason::Completion);
        assert_eq!(started(&s), vec![0]); // head starts exactly at shadow
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let state = RmsState::new(4);
        let mut easy = EasyBackfillScheduler::fcfs();
        let s = easy.replan(&state, SimTime::ZERO, ReplanReason::Completion);
        assert!(s.is_empty());
        assert_eq!(easy.name(), "EASY");
        assert_eq!(easy.active_policy(), Policy::Fcfs);
    }

    #[test]
    fn windows_block_jobs_that_would_overlap_them() {
        // Machine 4, idle, full-width window [50, 100). A job estimated
        // at 100 s would run into it → must wait; a 50 s job exactly fits
        // the gap and starts.
        let mut state = RmsState::new(4);
        state.admit_reservation(SimTime::from_secs(50), SimDuration::from_secs(50), 4);
        state.submit(j(0, 0, 4, 100));
        state.submit(j(1, 0, 2, 50));
        let mut easy = EasyBackfillScheduler::fcfs();
        let s = easy.replan(&state, SimTime::ZERO, ReplanReason::Submission);
        assert_eq!(started(&s), vec![1]);
        assert_eq!(easy.backfilled, 1);
    }

    #[test]
    fn partial_window_leaves_width_usable() {
        // Window takes 3 of 4 processors over [0+, 1000): a width-1 job
        // coexists, a width-2 job cannot.
        let mut state = RmsState::new(4);
        state.admit_reservation(SimTime::ZERO, SimDuration::from_secs(1_000), 3);
        state.submit(j(0, 1, 2, 100));
        state.submit(j(1, 1, 1, 100));
        let mut easy = EasyBackfillScheduler::fcfs();
        let now = SimTime::from_secs(1);
        let s = easy.replan(&state, now, ReplanReason::Submission);
        assert_eq!(started(&s), vec![1]);
    }

    #[test]
    fn expired_windows_stop_blocking() {
        let mut state = RmsState::new(4);
        state.admit_reservation(SimTime::ZERO, SimDuration::from_secs(10), 4);
        state.submit(j(0, 0, 4, 100));
        let mut easy = EasyBackfillScheduler::fcfs();
        // While the window holds, the job waits.
        let s = easy.replan(&state, SimTime::from_secs(1), ReplanReason::Submission);
        assert!(s.is_empty());
        // Once it ends, the job starts.
        let s = easy.replan(&state, SimTime::from_secs(10), ReplanReason::Reservation);
        assert_eq!(started(&s), vec![0]);
    }

    #[test]
    fn sjf_ordered_easy_reorders_the_queue() {
        let mut state = RmsState::new(2);
        state.submit(j(0, 0, 2, 1_000));
        state.submit(j(1, 1, 2, 10));
        let mut easy = EasyBackfillScheduler::new(Policy::Sjf);
        let s = easy.replan(&state, SimTime::from_secs(1), ReplanReason::Submission);
        assert_eq!(started(&s), vec![1]); // shortest first
        assert_eq!(easy.name(), "EASY[SJF]");
    }
}
