//! Feasibility-checked admission of advance-reservation requests.
//!
//! A planning-based RMS can answer a reservation request *exactly*,
//! because it already holds a full schedule: the request is admitted iff
//! the planner can build a schedule that (a) honors every previously
//! admitted window without overcommitting the machine and (b) does not
//! push any already-planned job start past its promised time. Both halves
//! reuse the incremental planner — the capacity check reads the shared
//! base profile (`crate::Planner::window_fits`), the guarantee check
//! replans the waiting queue once with the candidate window blocked out
//! and compares promised starts entry by entry.
//!
//! "Promised time" is the job's planned start in the current schedule
//! under the scheduler's active policy, plus the configurable
//! [`AdmissionConfig::guarantee_slack`]. With zero slack (the default) an
//! admitted window may never delay any planned start at all; a positive
//! slack trades batch-job punctuality for a higher acceptance rate.
//!
//! The decision is a pure function of the RMS state, the active policy
//! and the request — identical inputs give identical verdicts, so
//! rejection is deterministic and replayable.

use crate::planner::Planner;
use crate::policy::Policy;
use crate::reservation::Reservation;
use crate::schedule::Schedule;
use crate::state::RmsState;
use dynp_des::{SimDuration, SimTime};
use dynp_obs::Tracer;
use dynp_workload::Job;
use serde::{Deserialize, Serialize};

/// Why a reservation request was turned down.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Zero width, or wider than the machine.
    InvalidWidth,
    /// The window is empty or starts before the decision instant —
    /// advance reservations must lie in the future.
    InPast,
    /// Honoring the window alongside the running jobs and the already
    /// admitted reservations would overcommit the machine.
    NoCapacity,
    /// The window fits, but planning around it would push an
    /// already-promised job start past its guarantee.
    BreaksGuarantee,
}

impl RejectReason {
    /// Short display label (for logs and reports).
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::InvalidWidth => "invalid-width",
            RejectReason::InPast => "in-past",
            RejectReason::NoCapacity => "no-capacity",
            RejectReason::BreaksGuarantee => "breaks-guarantee",
        }
    }
}

/// Admission parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// How far an admitted window may push a currently planned job start
    /// past its promised time. Zero (the default) means admission must
    /// leave every promised start untouched.
    pub guarantee_slack: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            guarantee_slack: SimDuration::ZERO,
        }
    }
}

/// The admission controller: owns its own planner (so feasibility probes
/// never disturb the scheduler's prepared state) and reusable buffers, and
/// evaluates one request at a time against the live RMS state.
#[derive(Debug, Default)]
pub struct AdmissionController {
    config: AdmissionConfig,
    planner: Planner,
    queue_buf: Vec<Job>,
    trial_book: Vec<Reservation>,
    baseline: Schedule,
    trial: Schedule,
    tracer: Tracer,
}

impl AdmissionController {
    /// Creates a controller with the given parameters.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            ..Default::default()
        }
    }

    /// Installs an observability tracer; each [`evaluate`]
    /// (feasibility probe + guarantee replan) is then measured as an
    /// `"admission"` wall-clock span.
    ///
    /// [`evaluate`]: AdmissionController::evaluate
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.planner.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Decides one reservation request for the window
    /// `[start, start + duration)` of `width` processors at decision
    /// instant `now`. `policy` is the scheduler's active policy — the
    /// order under which the waiting queue's promised starts are read.
    ///
    /// Returns `Ok(())` when the request is admissible; the caller then
    /// records it via [`RmsState::admit_reservation`]. On `Err` the state
    /// is untouched and the reason says which feasibility half failed.
    pub fn evaluate(
        &mut self,
        state: &RmsState,
        now: SimTime,
        policy: Policy,
        start: SimTime,
        duration: SimDuration,
        width: u32,
    ) -> Result<(), RejectReason> {
        let _span = self.tracer.span(now, "admission");
        // Width is judged against the *currently usable* machine: while
        // nodes are down, a window as wide as the nominal machine cannot
        // be guaranteed.
        if width == 0 || width > state.plan_capacity() {
            return Err(RejectReason::InvalidWidth);
        }
        if duration.is_zero() || start < now {
            return Err(RejectReason::InPast);
        }

        // Capacity: the window must fit the base profile (running jobs +
        // already admitted windows) as-is — admitted reservations are
        // guarantees and can never be displaced by a newcomer.
        self.planner.prepare(
            state.plan_capacity(),
            now,
            state.running(),
            state.reservation_slice(),
        );
        if !self.planner.window_fits(start, duration, width) {
            return Err(RejectReason::NoCapacity);
        }

        // Guarantees: replan the waiting queue with the candidate blocked
        // out and compare promised starts. An empty queue has nothing to
        // promise.
        if state.waiting().is_empty() {
            return Ok(());
        }
        self.queue_buf.clear();
        self.queue_buf.extend_from_slice(state.waiting());
        policy.sort_queue(&mut self.queue_buf);
        self.planner
            .plan_prepared_into(&self.queue_buf, &mut self.baseline);

        self.trial_book.clear();
        self.trial_book.extend_from_slice(state.reservation_slice());
        self.trial_book.push(Reservation {
            id: u32::MAX, // probe id; never enters the book
            start,
            duration,
            width,
        });
        self.planner.prepare(
            state.plan_capacity(),
            now,
            state.running(),
            &self.trial_book,
        );
        self.planner
            .plan_prepared_into(&self.queue_buf, &mut self.trial);

        // Same sorted queue in both plans, so entries align by index.
        for (promised, shifted) in self.baseline.entries.iter().zip(&self.trial.entries) {
            debug_assert_eq!(promised.job.id, shifted.job.id);
            if shifted.start > promised.start.saturating_add(self.config.guarantee_slack) {
                return Err(RejectReason::BreaksGuarantee);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }
    fn d(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    fn controller() -> AdmissionController {
        AdmissionController::new(AdmissionConfig::default())
    }

    #[test]
    fn rejects_invalid_and_past_windows() {
        let state = RmsState::new(4);
        let mut adm = controller();
        let now = t(100);
        assert_eq!(
            adm.evaluate(&state, now, Policy::Fcfs, t(200), d(10), 0),
            Err(RejectReason::InvalidWidth)
        );
        assert_eq!(
            adm.evaluate(&state, now, Policy::Fcfs, t(200), d(10), 5),
            Err(RejectReason::InvalidWidth)
        );
        assert_eq!(
            adm.evaluate(&state, now, Policy::Fcfs, t(50), d(10), 2),
            Err(RejectReason::InPast)
        );
        assert_eq!(
            adm.evaluate(&state, now, Policy::Fcfs, t(200), SimDuration::ZERO, 2),
            Err(RejectReason::InPast)
        );
    }

    #[test]
    fn admits_on_an_idle_machine() {
        let state = RmsState::new(4);
        let mut adm = controller();
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Fcfs, t(100), d(50), 4),
            Ok(())
        );
    }

    #[test]
    fn rejects_overcommit_against_admitted_windows() {
        let mut state = RmsState::new(4);
        state.admit_reservation(t(100), d(100), 3);
        let mut adm = controller();
        // One processor left over [100, 200).
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Fcfs, t(120), d(30), 1),
            Ok(())
        );
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Fcfs, t(120), d(30), 2),
            Err(RejectReason::NoCapacity)
        );
    }

    #[test]
    fn rejects_overcommit_against_running_jobs() {
        let mut state = RmsState::new(4);
        state.submit(j(0, 0, 3, 100));
        state.start(JobId(0), t(0));
        let mut adm = controller();
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Fcfs, t(50), d(10), 2),
            Err(RejectReason::NoCapacity)
        );
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Fcfs, t(100), d(10), 4),
            Ok(())
        );
    }

    #[test]
    fn rejects_windows_that_delay_promised_starts() {
        // Machine 4, idle; one waiting full-width job promised to start
        // now. Any window overlapping its run pushes it — rejected with
        // zero slack, admitted once the slack covers the shift.
        let mut state = RmsState::new(4);
        state.submit(j(0, 0, 4, 100));
        let mut adm = controller();
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Fcfs, t(50), d(20), 1),
            Err(RejectReason::BreaksGuarantee)
        );
        // Behind the promised run: harmless.
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Fcfs, t(100), d(20), 4),
            Ok(())
        );
        // With enough slack the same delaying window becomes admissible:
        // the job is pushed from 0 to 70 (window end), within 120 s.
        let mut lax = AdmissionController::new(AdmissionConfig {
            guarantee_slack: SimDuration::from_secs(120),
        });
        assert_eq!(
            lax.evaluate(&state, t(0), Policy::Fcfs, t(50), d(20), 1),
            Ok(())
        );
    }

    #[test]
    fn guarantees_are_read_under_the_active_policy_order() {
        // Two jobs contending for a machine of 2; SJF promises the short
        // one first. A window that delays only the *later* (long) job's
        // promised start under SJF must be judged against SJF's order.
        let mut state = RmsState::new(2);
        state.submit(j(0, 0, 2, 1_000)); // long, submitted first
        state.submit(j(1, 0, 2, 10)); // short
        let mut adm = controller();
        // Under SJF: short at 0, long at 10. A window at [5, 8) delays
        // the short job under SJF → reject.
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Sjf, t(5), d(3), 2),
            Err(RejectReason::BreaksGuarantee)
        );
        // Under FCFS the same window lands inside the long job's run and
        // delays it → also rejected, but the probed plans differ; a
        // window after FCFS's makespan but inside SJF's tail shows the
        // order matters.
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Fcfs, t(1_005), d(3), 2),
            Err(RejectReason::BreaksGuarantee)
        );
        assert_eq!(
            adm.evaluate(&state, t(0), Policy::Sjf, t(1_010), d(3), 2),
            Ok(())
        );
    }

    #[test]
    fn verdicts_are_deterministic() {
        let mut state = RmsState::new(8);
        for i in 0..5 {
            state.submit(j(i, 0, (i % 3) + 1, 100 * (i as u64 + 1)));
        }
        state.admit_reservation(t(500), d(200), 4);
        let mut a = controller();
        let mut b = controller();
        for probe in 0..20u64 {
            let start = t(50 * probe);
            let va = a.evaluate(&state, t(0), Policy::Sjf, start, d(150), 3);
            let vb = b.evaluate(&state, t(0), Policy::Sjf, start, d(150), 3);
            assert_eq!(va, vb, "probe {probe}");
        }
    }
}
