//! The scheduler abstraction the simulation driver calls at every event,
//! plus the static single-policy baseline of the paper.

use crate::planner::Planner;
use crate::policy::Policy;
use crate::schedule::Schedule;
use crate::state::RmsState;
use dynp_des::SimTime;
use dynp_obs::Tracer;
use dynp_workload::Job;

/// Reasons the RMS asks for a new schedule. "Such a self-tuning dynP step
/// is done each time the planning based RMS has to compute a new schedule,
/// that is when jobs are submitted and when executed jobs finish." The
/// paper also mentions restricting self-tuning to submissions only; the
/// reason lets schedulers implement that option.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplanReason {
    /// One or more jobs were just submitted.
    Submission,
    /// A running job just finished.
    Completion,
    /// The reservation book changed (a window was admitted, ended or was
    /// cancelled) — capacity shifted without any job event.
    Reservation,
    /// A fault event changed the machine itself: a node went down or came
    /// back, or a running job failed and was evicted. Capacity (and
    /// possibly the queue) shifted, so the schedule must be repaired.
    Fault,
}

/// An opaque value capture of a scheduler's cross-event state.
///
/// Planners and scratch buffers are rebuilt from the [`RmsState`] on the
/// next replan, so a snapshot only needs the state that *survives*
/// events: the active policy, switch statistics, counters. Each
/// implementation encodes those into `words` however it likes; `tag`
/// guards against restoring into the wrong implementation. `Hash + Eq`
/// let the snapshot participate directly in model-checker fingerprints.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SchedulerSnapshot {
    /// Implementation marker — restore panics on a mismatch.
    pub tag: &'static str,
    /// Implementation-defined encoding of the mutable state.
    pub words: Vec<u64>,
}

impl SchedulerSnapshot {
    /// Tags every scheduler implementation in the workspace uses. The
    /// decoder interns against this list so a decoded snapshot carries
    /// the same `&'static str` a live one would — an unknown tag in a
    /// checkpoint is a typed error, not a dangling reference.
    const KNOWN_TAGS: &'static [&'static str] = &["static", "dynp"];

    /// Appends the snapshot to a checkpoint buffer.
    pub fn encode_into(&self, w: &mut dynp_des::ByteWriter) {
        w.str(self.tag);
        w.list(&self.words, |word, w| w.u64(*word));
    }

    /// Decodes a snapshot written by [`SchedulerSnapshot::encode_into`],
    /// interning the tag against the known implementations.
    pub fn decode_from(r: &mut dynp_des::ByteReader<'_>) -> Result<Self, dynp_des::CodecError> {
        let raw = r.str()?;
        let tag = Self::KNOWN_TAGS.iter().copied().find(|t| *t == raw).ok_or(
            dynp_des::CodecError::Invalid {
                what: "scheduler snapshot tag",
            },
        )?;
        let words = r.list(|r| r.u64())?;
        Ok(SchedulerSnapshot { tag, words })
    }
}

/// A scheduler: turns the current RMS state into a full schedule.
///
/// Called by the driver after every event; the driver then starts every
/// job whose planned start is due and keeps the rest waiting.
///
/// `Send` so a federation can move each cluster's scheduler onto a shard
/// worker thread; every scheduler in the workspace is plain owned data.
pub trait Scheduler: Send {
    /// Computes a full schedule for the waiting queue at `now`.
    fn replan(&mut self, state: &RmsState, now: SimTime, reason: ReplanReason) -> Schedule;

    /// The policy currently in force (for switch statistics/logging).
    fn active_policy(&self) -> Policy;

    /// Display name, e.g. `"SJF"` or `"dynP(preferred=SJF)"`.
    fn name(&self) -> String;

    /// Installs an observability tracer. Schedulers that emit trace
    /// events (plan timings, decider verdicts, policy switches) override
    /// this; the default ignores the tracer, so plain schedulers need no
    /// changes and tracing can never alter scheduling behavior.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Captures the scheduler's cross-event state as a value, or `None`
    /// when the implementation does not support snapshotting (the model
    /// checker refuses such schedulers up front).
    fn snapshot(&self) -> Option<SchedulerSnapshot> {
        None
    }

    /// Restores state captured by [`Scheduler::snapshot`] on the same
    /// implementation. Implementations must guarantee that a restored
    /// scheduler replans bit-identically to the snapshotted one.
    ///
    /// # Panics
    /// The default panics: restoring into a scheduler that never
    /// produced a snapshot is a caller bug.
    fn restore(&mut self, _snap: &SchedulerSnapshot) {
        panic!("{} does not support snapshot/restore", self.name());
    }
}

/// The paper's baseline: a single fixed policy (with the implicit
/// backfilling every planning-based RMS provides).
#[derive(Debug)]
pub struct StaticScheduler {
    policy: Policy,
    planner: Planner,
    queue_buf: Vec<Job>,
}

impl StaticScheduler {
    /// Creates a static scheduler for `policy`.
    pub fn new(policy: Policy) -> Self {
        StaticScheduler {
            policy,
            planner: Planner::new(),
            queue_buf: Vec::new(),
        }
    }
}

impl Scheduler for StaticScheduler {
    fn replan(&mut self, state: &RmsState, now: SimTime, _reason: ReplanReason) -> Schedule {
        self.queue_buf.clear();
        self.queue_buf.extend_from_slice(state.waiting());
        self.policy.sort_queue(&mut self.queue_buf);
        self.planner.plan_with_reservations(
            state.plan_capacity(),
            now,
            state.running(),
            state.reservation_slice(),
            &self.queue_buf,
        )
    }

    fn active_policy(&self) -> Policy {
        self.policy
    }

    fn name(&self) -> String {
        self.policy.name().to_string()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.planner.set_tracer(tracer);
    }

    fn snapshot(&self) -> Option<SchedulerSnapshot> {
        // Everything a static scheduler computes is a pure function of
        // the RmsState handed to `replan`; the policy is immutable config
        // and the planner/queue buffers are rebuilt every call.
        Some(SchedulerSnapshot {
            tag: "static",
            words: Vec::new(),
        })
    }

    fn restore(&mut self, snap: &SchedulerSnapshot) {
        assert_eq!(snap.tag, "static", "snapshot from a different scheduler");
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

    #[test]
    fn static_scheduler_orders_by_its_policy() {
        let mut state = RmsState::new(2);
        state.submit(j(0, 0, 2, 100));
        state.submit(j(1, 1, 2, 10));

        let mut sjf = StaticScheduler::new(Policy::Sjf);
        let s = sjf.replan(&state, SimTime::from_secs(1), ReplanReason::Submission);
        assert_eq!(s.entries[0].job.id, JobId(1));
        assert_eq!(sjf.name(), "SJF");
        assert_eq!(sjf.active_policy(), Policy::Sjf);

        let mut ljf = StaticScheduler::new(Policy::Ljf);
        let s = ljf.replan(&state, SimTime::from_secs(1), ReplanReason::Submission);
        assert_eq!(s.entries[0].job.id, JobId(0));
    }

    #[test]
    fn static_scheduler_plans_around_admitted_windows() {
        let mut state = RmsState::new(4);
        state.submit(j(0, 0, 4, 100));
        state.admit_reservation(SimTime::from_secs(50), SimDuration::from_secs(50), 4);
        let mut sched = StaticScheduler::new(Policy::Fcfs);
        let s = sched.replan(&state, SimTime::ZERO, ReplanReason::Reservation);
        // The full-width job cannot finish before the window: it waits it out.
        assert_eq!(s.entries[0].start, SimTime::from_secs(100));
    }

    #[test]
    fn snapshot_codec_interns_tags_and_rejects_unknown_ones() {
        let snap = SchedulerSnapshot {
            tag: "dynp",
            words: vec![1, 2, u64::MAX],
        };
        let mut w = dynp_des::ByteWriter::new();
        snap.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = dynp_des::ByteReader::new(&bytes);
        let restored = SchedulerSnapshot::decode_from(&mut r).unwrap();
        assert_eq!(restored, snap);
        assert!(r.is_exhausted());

        let mut w = dynp_des::ByteWriter::new();
        w.str("mystery-scheduler");
        w.u32(0);
        let bytes = w.into_bytes();
        let mut r = dynp_des::ByteReader::new(&bytes);
        assert_eq!(
            SchedulerSnapshot::decode_from(&mut r),
            Err(dynp_des::CodecError::Invalid {
                what: "scheduler snapshot tag"
            })
        );
    }

    #[test]
    fn replan_is_idempotent_on_unchanged_state() {
        let mut state = RmsState::new(4);
        for i in 0..5 {
            state.submit(j(i, i as u64, (i % 3) + 1, 50 + i as u64));
        }
        let mut sched = StaticScheduler::new(Policy::Fcfs);
        let now = SimTime::from_secs(10);
        let a = sched.replan(&state, now, ReplanReason::Submission);
        let b = sched.replan(&state, now, ReplanReason::Completion);
        assert_eq!(a.entries, b.entries);
    }
}
