//! The scheduler abstraction the simulation driver calls at every event,
//! plus the static single-policy baseline of the paper.

use crate::planner::Planner;
use crate::policy::Policy;
use crate::schedule::Schedule;
use crate::state::RmsState;
use dynp_des::{ByteReader, ByteWriter, CodecError, SimTime};
use dynp_obs::Tracer;
use dynp_workload::Job;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

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

/// Bookkeeping of the decisions a dynP run made.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchStats {
    /// Number of self-tuning steps (decisions) taken.
    pub decisions: u64,
    /// Number of decisions that changed the active policy.
    pub switches: u64,
    /// Decisions won per policy, indexed by [`Policy::index`].
    pub chosen: [u64; Policy::COUNT],
    /// Switches *into* each policy, indexed by [`Policy::index`]. Sums to
    /// [`SwitchStats::switches`], exact even when switches share a
    /// timestamp (a `PolicyHistory`'s segments collapse them).
    pub switched_to: [u64; Policy::COUNT],
    /// The switch log: (time, new policy), recorded only on change.
    pub log: Vec<(SimTime, Policy)>,
}

impl SwitchStats {
    /// Fraction of decisions the given policy won.
    pub fn share(&self, policy: Policy) -> f64 {
        if self.decisions == 0 {
            return 0.0;
        }
        self.chosen[policy.index()] as f64 / self.decisions as f64
    }

    /// Number of switches that installed the given policy (exact).
    pub fn switches_into(&self, policy: Policy) -> u64 {
        self.switched_to[policy.index()]
    }
}

/// A scheduler's cross-event state, one variant per implementation:
/// planners and buffers are rebuilt from the [`RmsState`] on the next
/// replan. `Hash + Eq` let the snapshot join model-checker fingerprints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulerSnapshot {
    /// [`StaticScheduler`]: its plan is a function of the state alone.
    Static,
    /// [`EasyBackfillScheduler`](crate::EasyBackfillScheduler).
    Easy {
        /// Jobs started out of queue order so far.
        backfilled: u64,
    },
    /// The self-tuning dynP scheduler.
    DynP {
        /// The policy in force.
        active: Policy,
        /// Its decision bookkeeping.
        stats: SwitchStats,
    },
}

impl SchedulerSnapshot {
    /// The layout, and what `Hash` hashes: a tag, then words. dynP's are
    /// active, decisions, switches, log length, `chosen`, `switched_to`,
    /// then `(ms, policy)` per log entry.
    fn parts(&self) -> (&'static str, Vec<u64>) {
        match self {
            SchedulerSnapshot::Static => ("static", Vec::new()),
            SchedulerSnapshot::Easy { backfilled } => ("easy", vec![*backfilled]),
            SchedulerSnapshot::DynP { active, stats } => {
                let mut words = vec![active.index() as u64, stats.decisions, stats.switches];
                words.push(stats.log.len() as u64);
                words.extend(stats.chosen.iter().chain(&stats.switched_to));
                for (t, p) in &stats.log {
                    words.extend([t.as_millis(), p.index() as u64]);
                }
                ("dynp", words)
            }
        }
    }

    /// The inverse of [`SchedulerSnapshot::parts`], or `None`.
    fn from_parts(tag: &str, words: &[u64]) -> Option<Self> {
        let policy = |p| Policy::ALL.into_iter().find(|q| q.index() as u64 == p);
        match (tag, words) {
            ("static", []) => Some(SchedulerSnapshot::Static),
            ("easy", &[backfilled]) => Some(SchedulerSnapshot::Easy { backfilled }),
            ("dynp", &[active, decisions, switches, len, ref rest @ ..]) => {
                let (&chosen, rest) = rest.split_first_chunk()?;
                let (&switched_to, rest) = rest.split_first_chunk()?;
                let log = match rest.as_chunks() {
                    (log, []) if log.len() as u64 == len => log,
                    _ => return None,
                };
                let entry = |&[ms, p]: &[u64; 2]| Some((SimTime::from_millis(ms), policy(p)?));
                let log = log.iter().map(entry).collect::<Option<_>>()?;
                let stats = SwitchStats {
                    decisions,
                    switches,
                    chosen,
                    switched_to,
                    log,
                };
                policy(active).map(|active| SchedulerSnapshot::DynP { active, stats })
            }
            _ => None,
        }
    }

    /// Appends the snapshot to a checkpoint buffer.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        let (tag, words) = self.parts();
        w.str(tag);
        w.list(&words, |word, w| w.u64(*word));
    }

    /// Decodes a snapshot written by [`SchedulerSnapshot::encode_into`]:
    /// an unknown tag, or words that do not fit it, is `Invalid`.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let (tag, words) = (r.str()?, r.list(|r| r.u64())?);
        Self::from_parts(tag, &words).ok_or(CodecError::Invalid {
            what: "scheduler snapshot",
        })
    }
}

impl Hash for SchedulerSnapshot {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (tag, words) = self.parts();
        tag.hash(state);
        words.hash(state);
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

    /// Whether [`Scheduler::restore`] takes `snap` and the scheduler then
    /// replans: what a caller holding decoded bytes asks before it
    /// restores them. The default accepts the kind of snapshot this
    /// scheduler takes of itself, and nothing from one that takes none.
    fn accepts(&self, snap: &SchedulerSnapshot) -> bool {
        let own = self.snapshot();
        own.is_some_and(|own| std::mem::discriminant(&own) == std::mem::discriminant(snap))
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
        if state.nothing_fits() {
            return Schedule::default();
        }
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
        Some(SchedulerSnapshot::Static)
    }

    fn restore(&mut self, snap: &SchedulerSnapshot) {
        assert_eq!(
            *snap,
            SchedulerSnapshot::Static,
            "snapshot from a different scheduler"
        );
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
    fn snapshot_codec_round_trips_every_variant_and_refuses_bad_words() {
        let raw = |tag: &str, words: &[u64]| {
            let mut w = ByteWriter::new();
            w.str(tag);
            w.list(words, |word, w| w.u64(*word));
            w.into_bytes()
        };
        fn hash<T: Hash>(value: &T) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            value.hash(&mut h);
            h.finish()
        }
        // active SJF, 9 decisions, 2 switches, 2 log entries, `chosen`,
        // `switched_to`, then (ms, policy) per entry.
        let dynp = [1, 9, 2, 2, 3, 6, 0, 0, 0, 1, 1, 0, 0, 0, 500, 1, 900, 0];
        let stats = SwitchStats {
            decisions: 9,
            switches: 2,
            chosen: [3, 6, 0, 0, 0],
            switched_to: [1, 1, 0, 0, 0],
            log: vec![
                (SimTime::from_millis(500), Policy::Sjf),
                (SimTime::from_millis(900), Policy::Fcfs),
            ],
        };
        for (snap, tag, words) in [
            (SchedulerSnapshot::Static, "static", &[][..]),
            (SchedulerSnapshot::Easy { backfilled: 7 }, "easy", &[7]),
            (
                SchedulerSnapshot::DynP {
                    active: Policy::Sjf,
                    stats,
                },
                "dynp",
                &dynp,
            ),
        ] {
            let mut w = ByteWriter::new();
            snap.encode_into(&mut w);
            assert_eq!(w.into_bytes(), raw(tag, words), "{tag}");
            let bytes = raw(tag, words);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(SchedulerSnapshot::decode_from(&mut r), Ok(snap.clone()));
            assert!(r.is_exhausted());
            assert_eq!(hash(&snap), hash(&(tag, words.to_vec())), "{tag}");
        }

        let with = |at: usize, word: u64| {
            let mut words = dynp.to_vec();
            words[at] = word;
            words
        };
        for (tag, words) in [
            ("mystery", vec![]),
            ("static", vec![0]),
            ("easy", vec![]),
            ("easy", vec![1, 2]),
            ("dynp", dynp[..dynp.len() - 1].to_vec()),
            ("dynp", [&dynp[..], &[0]].concat()),
            ("dynp", with(0, 99)),       // active
            ("dynp", with(15, 99)),      // a log entry's policy
            ("dynp", with(3, u64::MAX)), // log length
        ] {
            let bytes = raw(tag, &words);
            let decoded = SchedulerSnapshot::decode_from(&mut ByteReader::new(&bytes));
            let what = "scheduler snapshot";
            assert_eq!(
                decoded,
                Err(CodecError::Invalid { what }),
                "{tag} {words:?}"
            );
        }
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

    #[test]
    fn a_queue_wider_than_the_up_machine_is_not_planned() {
        let mut state = RmsState::new(4);
        state.submit(j(0, 0, 4, 100));
        assert_eq!(state.node_down(3), None);
        let tracer = Tracer::enabled(dynp_obs::TraceLevel::Spans);
        let mut sched = StaticScheduler::new(Policy::Fcfs);
        sched.set_tracer(tracer.clone());
        let now = SimTime::from_secs(1);
        assert!(sched.replan(&state, now, ReplanReason::Fault).is_empty());
        assert!(tracer.snapshot().records.is_empty(), "no prepare span");
        state.node_up(3);
        assert_eq!(sched.replan(&state, now, ReplanReason::Fault).len(), 1);
        assert_eq!(tracer.snapshot().records.len(), 1, "one prepare span");
    }
}
