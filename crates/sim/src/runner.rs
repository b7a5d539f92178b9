//! The single-run simulation loop.
//!
//! Drives one [`JobSet`] through one [`Scheduler`] on the discrete event
//! engine. For plain batch runs two event kinds exist — job arrival and
//! job completion — and the scheduler replans on every event, exactly the
//! paper's setup ("such a self-tuning dynP step is done … when jobs are
//! submitted and when executed jobs finish"). After replanning, every job
//! whose planned start is due is started and its completion event
//! scheduled.
//!
//! [`simulate_chaos`] adds the other exogenous streams. Reservation
//! requests are feasibility-checked at their submission instant (admit
//! iff the window fits the free capacity *and* no already-promised job
//! start slips past its guarantee), admitted windows enter the book of
//! the [`RmsState`](dynp_rms::RmsState) so every later plan routes around
//! them, and window start/end/cancel become events of their own. A
//! deterministic [`FaultPlan`] injects node outages and per-job
//! first-attempt failures. A node loss shrinks the plannable capacity,
//! evicts the node's occupant, and triggers schedule repair of the
//! reservation book (downgrade or revoke windows that no longer fit the
//! degraded machine); failed attempts are retried with exponential
//! backoff until the retry budget is spent and the job becomes `Lost`.
//! Job conservation generalizes to `completed + lost == submitted`.
//!
//! [`simulate`] is [`simulate_chaos`] with every other stream empty and
//! tracing off: the two entry points are the same driver loop.

use crate::feed::{ExoFeed, FeedCursors, Streams};
use crate::shard::{CoreSnapshot, Event, ShardCore};
use dynp_des::{CodecError, Engine, EngineSnapshot, SimTime};
use dynp_metrics::{FaultStats, ReservationStats, SimMetrics};
use dynp_obs::Tracer;
use dynp_rms::{
    AdmissionConfig, CompletedJob, RejectReason, Reservation, Scheduler, SchedulerSnapshot,
};
use dynp_workload::{FaultPlan, JobSet, ReservationRequest};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The outcome of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Aggregate metrics of the completed job set.
    pub metrics: SimMetrics,
    /// Scheduler display name.
    pub scheduler: String,
    /// Job-set name.
    pub job_set: String,
    /// Number of processed events (arrivals, completions and — when a
    /// reservation stream is present — reservation life-cycle events).
    pub events: u64,
}

/// Queue and occupancy statistics observed *during* a run (not derivable
/// from the aggregate metrics alone).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RunObservations {
    /// Largest waiting-queue depth reached.
    pub peak_queue: usize,
    /// Time-weighted mean waiting-queue depth.
    pub mean_queue: f64,
    /// Time-weighted mean busy processors.
    pub mean_busy: f64,
}

/// What happened to the reservation stream during a run.
///
/// `Hash + Eq` because the report is part of the driver state the model
/// checker snapshots and fingerprints (every counter in it is exact
/// integer arithmetic).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReservationReport {
    /// Admission and life-cycle counters.
    pub stats: ReservationStats,
    /// Admitted windows that ran to completion (neither cancelled nor
    /// displaced — admission guarantees the latter cannot happen), in
    /// admission order. These are the held capacity blocks the overlap
    /// invariant is checked against.
    pub honored: Vec<Reservation>,
    /// Rejected requests: `(request id, reason)` in decision order.
    pub rejected: Vec<(u32, RejectReason)>,
}

/// A run result together with the realized per-job records and in-run
/// observations — for timelines, histograms and debugging.
#[derive(Clone, Debug)]
pub struct DetailedRun {
    /// The aggregate result.
    pub result: RunResult,
    /// Completed-job records in completion order.
    pub completed: Vec<CompletedJob>,
    /// Queue/occupancy observations.
    pub observations: RunObservations,
    /// Reservation-stream outcome (all zeros/empty for reservation-free
    /// runs).
    pub reservations: ReservationReport,
    /// Fault and recovery counters (all zeros for fault-free runs).
    pub faults: FaultStats,
}

/// Simulates `set` under `scheduler` until every job has completed: no
/// reservation requests, no faults, no tracing.
///
/// # Panics
/// Panics if the run ends with unfinished jobs — that would be a
/// scheduler or driver bug, not a data condition (FCFS fallback ordering
/// makes every policy starvation-free in a drained system).
pub fn simulate(set: &JobSet, scheduler: &mut dyn Scheduler) -> DetailedRun {
    simulate_chaos(
        set,
        scheduler,
        &[],
        AdmissionConfig::default(),
        &FaultPlan::none(),
        Tracer::disabled(),
    )
}

/// Simulates `set` under `scheduler` with an advance-reservation request
/// stream and a deterministic fault trace interleaved with the job
/// submissions, observed by `tracer`. This is the single driver loop
/// behind [`simulate`].
///
/// Each request is decided at its submission instant by the
/// [`AdmissionController`](dynp_rms::AdmissionController): the window
/// must fit the base profile (running jobs + already admitted windows),
/// and planning around it must not push any already-promised job start
/// past its guarantee (plus `admission.guarantee_slack`). Admitted
/// windows enter the state's reservation book, so every subsequent plan —
/// incremental, reference or EASY — routes the batch jobs around them;
/// they leave the book when they end or are cancelled, and the book is
/// pruned of expired windows before every admission decision. With
/// `requests` empty the run has the same events in the same order as
/// without reservations: bit-identical schedules and metrics.
///
/// The tracer is threaded through the whole stack: the driver records
/// event dispatches and backfill moves (at
/// [`dynp_obs::TraceLevel::All`]) and admission verdicts; the scheduler
/// and admission controller receive tracer clones for their own decision
/// and span events. The tracer only observes — a run with any tracer
/// produces schedules, metrics and switch statistics bit-identical to a
/// run with [`Tracer::disabled`] (pinned by a property test in the
/// umbrella crate).
///
/// Fault semantics:
///
/// * a `NodeDown` shrinks
///   [`RmsState::plan_capacity`](dynp_rms::RmsState::plan_capacity),
///   evicts the node's occupant (if any) and repairs the reservation
///   book — windows that no longer fit the degraded machine are
///   downgraded to the widest width that still fits or revoked outright;
/// * failed attempts are resubmitted after exponential backoff
///   (`faults.retry`) until the budget is spent; the job then leaves the
///   system in the typed `Lost` state;
/// * faults strike *first* attempts only (a transient-failure model):
///   every retry runs clean, so a retried job is lost only to repeated
///   node losses.
///
/// # Panics
/// Panics if the run ends violating job conservation
/// (`completed + lost == submitted`) or with a non-empty reservation
/// book — either would be a driver bug.
pub fn simulate_chaos(
    set: &JobSet,
    scheduler: &mut dyn Scheduler,
    requests: &[ReservationRequest],
    admission: AdmissionConfig,
    faults: &FaultPlan,
    tracer: Tracer,
) -> DetailedRun {
    ChaosDriver::new(set, scheduler, requests, admission, faults, tracer).run_to_end()
}

/// A value snapshot of an entire single-cluster simulation: driver state,
/// the event heap, the positions of the exogenous feed, and the
/// scheduler's cross-event state. The exogenous events still behind the
/// feed's cursors are not copied — they are the driver's inputs.
///
/// Restoring one into a [`ChaosDriver`] built from the same inputs
/// reproduces the run bit-identically from that point — the foundation of
/// the model checker's branch-and-backtrack exploration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimSnapshot {
    /// The [`ShardCore`] run state.
    pub core: CoreSnapshot,
    /// Clock and the events in the heap.
    pub engine: EngineSnapshot<Event>,
    /// How much of each exogenous stream is not in the heap yet.
    pub feed: FeedCursors,
    /// Scheduler cross-event state.
    pub scheduler: SchedulerSnapshot,
}

impl SimSnapshot {
    /// A 128-bit fingerprint of the whole simulation state: the snapshot
    /// hashed twice with distinct prefixes. Used as the model checker's
    /// visited-set key, where 64 bits would make accidental collisions
    /// (a silently pruned branch) plausible at ~10⁵+ states.
    pub fn fingerprint(&self) -> u128 {
        let mut hi = DefaultHasher::new();
        0x9e37_79b9_7f4a_7c15u64.hash(&mut hi);
        self.hash(&mut hi);
        let mut lo = DefaultHasher::new();
        0xc2b2_ae3d_27d4_eb4fu64.hash(&mut lo);
        self.hash(&mut lo);
        ((hi.finish() as u128) << 64) | lo.finish() as u128
    }
}

/// The single-cluster chaos driver as a steppable object.
///
/// [`simulate_chaos`] is `ChaosDriver::new(..).run_to_end()` — one event
/// loop, bit-identical to the historical closure-based driver. What the
/// object form adds is *control*: step one event at a time, pick which of
/// several same-instant tied events dispatches next
/// ([`ChaosDriver::step_nth_tied`]), and capture/restore/fingerprint the
/// complete simulation state between steps. The model checker uses these
/// to explore every reachable interleaving of a small scenario without
/// ever rerunning from `t = 0`.
pub struct ChaosDriver<'a> {
    engine: Engine<Event>,
    core: ShardCore,
    scheduler: &'a mut dyn Scheduler,
    set: &'a JobSet,
    requests: &'a [ReservationRequest],
    faults: &'a FaultPlan,
    admission: AdmissionConfig,
    t0: SimTime,
    feed: ExoFeed,
}

impl<'a> ChaosDriver<'a> {
    /// Builds the driver over its three exogenous streams. Their events
    /// are fed into the heap as they come due (see `crate::feed`) with
    /// the tie-break ranks of the seeding order — arrivals first, so that
    /// at equal instants a job enters the queue before a window is judged
    /// against it; then reservation requests; then outages, `NodeDown`
    /// before `NodeUp` per outage, so that a node repaired and failed
    /// again at one instant comes up before it goes down.
    pub fn new(
        set: &'a JobSet,
        scheduler: &'a mut dyn Scheduler,
        requests: &'a [ReservationRequest],
        admission: AdmissionConfig,
        faults: &'a FaultPlan,
        tracer: Tracer,
    ) -> ChaosDriver<'a> {
        scheduler.set_tracer(tracer.clone());
        let streams = Streams {
            arrivals: set.jobs(),
            requests,
            outages: &faults.outages,
        };
        let request_rank_base = set.len() as u64;
        let outage_rank_base = request_rank_base + requests.len() as u64;
        let mut feed = ExoFeed::new(streams, request_rank_base, outage_rank_base);
        let mut engine: Engine<Event> = Engine::new();
        feed.feed(&mut engine, streams);
        // Observation clocks start at the first event of any stream — a
        // reservation request or a node failure may precede the first job
        // submission.
        let t0 = requests
            .iter()
            .map(|r| r.submit)
            .chain(faults.outages.iter().map(|o| o.down_at))
            .fold(set.first_submit(), |a, b| a.min(b));
        let core = ShardCore::new(
            set.machine_size,
            admission,
            set.len(),
            faults.retry,
            t0,
            tracer,
            0,
        );
        ChaosDriver {
            engine,
            core,
            scheduler,
            set,
            requests,
            faults,
            admission,
            t0,
            feed,
        }
    }

    fn streams(&self) -> Streams<'a> {
        Streams {
            arrivals: self.set.jobs(),
            requests: self.requests,
            outages: &self.faults.outages,
        }
    }

    /// Runs the remaining events to completion and measures the run.
    ///
    /// # Panics
    /// Panics on the driver-bug terminal checks (job conservation,
    /// undrained queue, still-booked windows) — see [`simulate_chaos`].
    pub fn run_to_end(self) -> DetailedRun {
        let streams = self.streams();
        let ChaosDriver {
            mut engine,
            mut core,
            scheduler,
            set,
            requests,
            faults,
            mut feed,
            ..
        } = self;
        engine.run(|eng, event| {
            core.handle(eng, event, &mut *scheduler, set.jobs(), requests, faults);
            feed.feed(eng, streams);
        });
        core.finish(
            &engine,
            scheduler.name(),
            set.name.clone(),
            faults,
            Some(set.len()),
        )
    }

    /// Dispatches the next pending event (FIFO among same-instant ties).
    /// Returns the dispatched event, or `None` when the run has drained.
    pub fn step(&mut self) -> Option<(SimTime, Event)> {
        self.step_nth_tied(0)
    }

    /// Dispatches the `n`-th (by FIFO rank) of the events tied at the
    /// earliest pending instant — the model checker's branching move.
    /// Returns `None` (state untouched) when `n` is out of range.
    pub fn step_nth_tied(&mut self, n: usize) -> Option<(SimTime, Event)> {
        let (t, event) = self.engine.step_nth(n)?;
        self.core.handle(
            &mut self.engine,
            event,
            &mut *self.scheduler,
            self.set.jobs(),
            self.requests,
            self.faults,
        );
        let streams = self.streams();
        self.feed.feed(&mut self.engine, streams);
        Some((t, event))
    }

    /// The events tied at the earliest pending instant, in FIFO order;
    /// empty when the run has drained. Index `n` is what
    /// [`ChaosDriver::step_nth_tied`]`(n)` would dispatch.
    pub fn tied_events(&self) -> Vec<Event> {
        self.engine.tied_events()
    }

    /// True when no events are pending — the run has drained.
    pub fn is_done(&self) -> bool {
        self.engine.peek_time().is_none()
    }

    /// The simulation clock (time of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Read access to the driver core (RMS state, fault statistics,
    /// reservation report) for invariant checks between steps.
    pub fn core(&self) -> &ShardCore {
        &self.core
    }

    /// Every event the run still has to dispatch, as `(time, seq, event)`
    /// in canonical dispatch order: the heap's entries merged with the
    /// exogenous events not fed yet. The model checker's conservation and
    /// attempt-tag invariants scan these.
    pub fn pending_events(&self) -> Vec<(SimTime, u64, Event)> {
        let mut entries = self.engine.snapshot().entries;
        entries.extend(self.feed.unfed(self.streams()));
        entries.sort_by_key(|&(t, seq, _)| (t, seq));
        entries
    }

    /// Captures the complete simulation state as a value.
    ///
    /// # Panics
    /// Panics if the scheduler does not support snapshotting.
    pub fn snapshot(&self) -> SimSnapshot {
        let scheduler = self.scheduler.snapshot().unwrap_or_else(|| {
            panic!(
                "scheduler {} does not support snapshot/restore",
                self.scheduler.name()
            )
        });
        SimSnapshot {
            core: self.core.snapshot(),
            engine: self.engine.snapshot(),
            feed: self.feed.cursors(),
            scheduler,
        }
    }

    /// Restores state captured by [`ChaosDriver::snapshot`] on a driver
    /// built from the same inputs. The clock may move backward.
    ///
    /// # Panics
    /// Panics where [`ChaosDriver::try_restore`] returns an error.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        self.try_restore(snap)
            .expect("snapshot of a driver built from other inputs");
    }

    /// [`ChaosDriver::restore`] for a snapshot that was decoded from
    /// bytes: whether the scheduler accepts its state
    /// ([`Scheduler::accepts`]) and the feed positions are checked
    /// against this driver before anything is touched.
    ///
    /// # Errors
    /// Scheduler state this scheduler refuses (another scheduler's, or a
    /// dynP policy that is not a candidate), or a feed cursor outside its
    /// stream.
    pub fn try_restore(&mut self, snap: &SimSnapshot) -> Result<(), CodecError> {
        if !self.scheduler.accepts(&snap.scheduler) {
            return Err(CodecError::Invalid {
                what: "scheduler state",
            });
        }
        let streams = self.streams();
        self.feed.restore(snap.feed, streams)?;
        self.core.restore(&snap.core);
        self.engine.restore(&snap.engine);
        self.scheduler.restore(&snap.scheduler);
        Ok(())
    }

    /// Fingerprint of the current state (see [`SimSnapshot::fingerprint`]).
    pub fn fingerprint(&self) -> u128 {
        self.snapshot().fingerprint()
    }

    /// Runs the terminal drain checks and measures the run *without*
    /// consuming the driver: the core is rebuilt from a snapshot on a
    /// throwaway copy, so exploration can restore and continue afterwards.
    /// The model checker calls this at every drained leaf to exercise the
    /// same conservation/book asserts a plain run would.
    ///
    /// # Panics
    /// Panics exactly where [`ChaosDriver::run_to_end`] would.
    pub fn finish_detached(&self) -> DetailedRun {
        let mut core = ShardCore::new(
            self.set.machine_size,
            self.admission,
            self.set.len(),
            self.faults.retry,
            self.t0,
            Tracer::disabled(),
            0,
        );
        core.restore(&self.core.snapshot());
        core.finish(
            &self.engine,
            self.scheduler.name(),
            self.set.name.clone(),
            self.faults,
            Some(self.set.len()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_core::{DeciderKind, DynPConfig, SelfTuningScheduler};
    use dynp_des::{SimDuration, SimTime};
    use dynp_rms::{Policy, StaticScheduler};
    use dynp_workload::{FaultKind, Job, JobId};

    fn j(id: u32, submit_s: u64, width: u32, est_s: u64, act_s: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(submit_s),
            width,
            SimDuration::from_secs(est_s),
            SimDuration::from_secs(act_s),
        )
    }

    #[test]
    fn single_job_runs_immediately() {
        let set = JobSet::new("t", 4, vec![j(0, 10, 2, 100, 60)]);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let r = simulate(&set, &mut s).result;
        assert_eq!(r.metrics.jobs, 1);
        assert_eq!(r.metrics.avg_wait_secs, 0.0);
        assert_eq!(r.metrics.sldwa, 1.0);
        assert_eq!(r.events, 2);
        // Runs 10..70 on 2 of 4 procs; span from submit 10 to end 70.
        assert!((r.metrics.utilization - (60.0 * 2.0) / (4.0 * 60.0)).abs() < 1e-12);
    }

    #[test]
    fn fcfs_serializes_conflicting_jobs() {
        // Machine 2, both jobs width 2: second waits for the first's
        // ACTUAL end (30), not its estimate (100) — early-completion
        // replanning pulls it forward.
        let set = JobSet::new("t", 2, vec![j(0, 0, 2, 100, 30), j(1, 0, 2, 50, 50)]);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let r = simulate(&set, &mut s).result;
        // Job 1: wait 30, run 50 → response 80, slowdown 80/50 = 1.6.
        assert!((r.metrics.avg_wait_secs - 15.0).abs() < 1e-9);
        let expected_sldwa = (30.0 * 2.0 * 1.0 + 50.0 * 2.0 * 1.6) / (30.0 * 2.0 + 50.0 * 2.0);
        assert!((r.metrics.sldwa - expected_sldwa).abs() < 1e-9);
    }

    #[test]
    fn sjf_reorders_queue_but_never_kills_running_jobs() {
        // Long job arrives first and starts; short job arrives while it
        // runs. SJF cannot preempt: the short job waits for the free
        // processor.
        let set = JobSet::new("t", 2, vec![j(0, 0, 2, 1_000, 1_000), j(1, 10, 2, 10, 10)]);
        let mut s = StaticScheduler::new(Policy::Sjf);
        let r = simulate(&set, &mut s).result;
        // Short job waits 990 s.
        assert!((r.metrics.avg_wait_secs - 495.0).abs() < 1e-9);
    }

    #[test]
    fn backfilling_uses_gaps_without_delaying_the_queue_head() {
        // Machine 4. Running: width 3 until t=100 (actual = estimate).
        // Queue: wide job (4) then a narrow short job (1×50).
        let set = JobSet::new(
            "t",
            4,
            vec![
                j(0, 0, 3, 100, 100),
                j(1, 1, 4, 100, 100),
                j(2, 2, 1, 50, 50),
            ],
        );
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let r = simulate(&set, &mut s).result;
        // Job 2 backfills at t=2 (1 proc free), finishing at 52 — before
        // job 1 starts at 100. Its wait is 0.
        let done_job2 = r.metrics.jobs == 3;
        assert!(done_job2);
        // Waits: job0 = 0, job1 = 99, job2 = 0.
        assert!((r.metrics.avg_wait_secs - 33.0).abs() < 1e-9);
    }

    #[test]
    fn early_completion_triggers_replan_and_pulls_starts_forward() {
        // Job 0 estimates 1000 but actually runs 100; job 1 (width 2)
        // must start at job 0's ACTUAL end.
        let set = JobSet::new("t", 2, vec![j(0, 0, 2, 1_000, 100), j(1, 5, 2, 10, 10)]);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let r = simulate(&set, &mut s).result;
        // Job 1 waits 95 (from submit 5 to start 100), not 995.
        assert!((r.metrics.avg_wait_secs - 47.5).abs() < 1e-9);
    }

    #[test]
    fn dynp_completes_all_jobs_and_records_decisions() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| {
                j(
                    i,
                    (i as u64) * 20,
                    (i % 4) + 1,
                    if i % 3 == 0 { 2_000 } else { 50 },
                    if i % 3 == 0 { 1_500 } else { 40 },
                )
            })
            .collect();
        let set = JobSet::new("t", 8, jobs);
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
        let r = simulate(&set, &mut s).result;
        assert_eq!(r.metrics.jobs, 50);
        assert_eq!(s.stats.decisions, 100); // one per event
        assert!(r.metrics.utilization > 0.0 && r.metrics.utilization <= 1.0);
    }

    #[test]
    fn detailed_run_observations_are_consistent() {
        // Machine 2: job 0 runs [0, 100); job 1 waits [0, 100) and runs
        // [100, 200).
        let set = JobSet::new("t", 2, vec![j(0, 0, 2, 100, 100), j(1, 0, 2, 100, 100)]);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let d = simulate(&set, &mut s);
        assert_eq!(d.completed.len(), 2);
        assert_eq!(d.observations.peak_queue, 1);
        // Queue is 1 over [0, 100) of a 200 s run → mean 0.5.
        assert!((d.observations.mean_queue - 0.5).abs() < 1e-9);
        // 2 processors busy the whole time.
        assert!((d.observations.mean_busy - 2.0).abs() < 1e-9);
    }

    #[test]
    fn completed_records_cover_every_job() {
        let set = dynp_workload::traces::ctc().generate(150, 9);
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
        let d = simulate(&set, &mut s);
        let mut ids: Vec<u32> = d.completed.iter().map(|c| c.job.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..150).collect::<Vec<_>>());
        assert!(d.observations.mean_busy > 0.0);
        assert!(d.observations.peak_queue >= 1);
    }

    fn req(
        id: u32,
        submit_s: u64,
        start_s: u64,
        dur_s: u64,
        width: u32,
        cancel_s: Option<u64>,
    ) -> ReservationRequest {
        ReservationRequest {
            id,
            submit: SimTime::from_secs(submit_s),
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
            width,
            cancel_at: cancel_s.map(SimTime::from_secs),
        }
    }

    fn with_requests(
        set: &JobSet,
        scheduler: &mut dyn Scheduler,
        requests: &[ReservationRequest],
    ) -> DetailedRun {
        simulate_chaos(
            set,
            scheduler,
            requests,
            AdmissionConfig::default(),
            &FaultPlan::none(),
            Tracer::disabled(),
        )
    }

    #[test]
    fn a_plain_run_reports_no_reservations_and_no_faults() {
        let set = dynp_workload::traces::ctc().generate(200, 5);
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
        let d = simulate(&set, &mut s);
        assert_eq!(d.reservations.stats, ReservationStats::default());
        assert!(d.reservations.honored.is_empty());
        assert!(d.faults.is_empty());
    }

    #[test]
    fn admitted_window_delays_conflicting_jobs() {
        // Machine 2. A full-width window [100, 200) is admitted at t=0;
        // a full-width job arriving at t=50 with estimate 100 cannot
        // finish before the window, so it starts when the window ends.
        let set = JobSet::new("t", 2, vec![j(0, 50, 2, 100, 100)]);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let reqs = [req(0, 0, 100, 100, 2, None)];
        let d = with_requests(&set, &mut s, &reqs);
        assert_eq!(d.reservations.stats.admitted, 1);
        assert_eq!(d.reservations.stats.honored, 1);
        assert_eq!(d.reservations.honored.len(), 1);
        // Job waits from 50 to 200.
        assert!((d.result.metrics.avg_wait_secs - 150.0).abs() < 1e-9);
    }

    #[test]
    fn cancelled_window_frees_its_capacity() {
        // Same scenario, but the window is withdrawn at t=60 — before it
        // starts — so the job runs immediately at its submission.
        let set = JobSet::new("t", 2, vec![j(0, 70, 2, 100, 100)]);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let reqs = [req(0, 0, 100, 100, 2, Some(60))];
        let d = with_requests(&set, &mut s, &reqs);
        assert_eq!(d.reservations.stats.admitted, 1);
        assert_eq!(d.reservations.stats.cancelled, 1);
        assert_eq!(d.reservations.stats.honored, 0);
        assert!(d.reservations.honored.is_empty());
        assert_eq!(d.result.metrics.avg_wait_secs, 0.0);
    }

    #[test]
    fn infeasible_window_is_rejected_for_capacity() {
        // Two overlapping full-width windows: the second cannot fit.
        let set = JobSet::new("t", 2, vec![j(0, 500, 1, 10, 10)]);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let reqs = [req(0, 0, 100, 100, 2, None), req(1, 10, 150, 100, 2, None)];
        let d = with_requests(&set, &mut s, &reqs);
        assert_eq!(d.reservations.stats.admitted, 1);
        assert_eq!(d.reservations.stats.rejected_capacity, 1);
        assert_eq!(d.reservations.rejected, vec![(1, RejectReason::NoCapacity)]);
        assert!((d.reservations.stats.acceptance_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_that_breaks_a_job_guarantee_is_rejected() {
        // Machine 2: a running-width job occupies [0, 100); a waiting
        // full-width job is promised start 100. A window over [100, 200)
        // would push that promise — rejected; a window after the job's
        // estimated end is fine.
        let set = JobSet::new("t", 2, vec![j(0, 0, 2, 100, 100), j(1, 0, 2, 100, 100)]);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let reqs = [
            req(0, 10, 120, 50, 2, None),  // overlaps promised [100, 200)
            req(1, 20, 1000, 50, 2, None), // after both jobs' estimates
        ];
        let d = with_requests(&set, &mut s, &reqs);
        assert_eq!(d.reservations.stats.rejected_guarantee, 1);
        assert_eq!(d.reservations.stats.admitted, 1);
        assert_eq!(
            d.reservations.rejected,
            vec![(0, RejectReason::BreaksGuarantee)]
        );
    }

    #[test]
    fn rejection_stream_is_deterministic() {
        let set = dynp_workload::traces::kth().generate(150, 3);
        let model = dynp_workload::ReservationModel::typical(0.4);
        let reqs = model.generate(&set, 17);
        let run = |policy| {
            let mut s = StaticScheduler::new(policy);
            with_requests(&set, &mut s, &reqs)
        };
        let a = run(Policy::Fcfs);
        let b = run(Policy::Fcfs);
        assert_eq!(a.reservations.rejected, b.reservations.rejected);
        assert_eq!(a.reservations.stats, b.reservations.stats);
        assert_eq!(
            a.result.metrics.sldwa.to_bits(),
            b.result.metrics.sldwa.to_bits()
        );
    }

    #[test]
    fn reservation_heavy_dynp_run_completes_all_jobs() {
        let set = dynp_workload::traces::sdsc().generate(250, 21);
        let model = dynp_workload::ReservationModel::typical(0.2);
        let reqs = model.generate(&set, 4);
        assert!(!reqs.is_empty());
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
        let d = with_requests(&set, &mut s, &reqs);
        assert_eq!(d.result.metrics.jobs, 250);
        let st = &d.reservations.stats;
        assert_eq!(st.requests, reqs.len() as u64);
        assert_eq!(st.admitted, st.honored + st.cancelled);
        assert_eq!(st.rejected() + st.admitted, st.requests);
        assert!(st.admitted_area_pms <= st.requested_area_pms);
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let model = dynp_workload::traces::kth();
        let set = model.generate(300, 7);
        let mut a = StaticScheduler::new(Policy::Sjf);
        let mut b = StaticScheduler::new(Policy::Sjf);
        let ra = simulate(&set, &mut a).result;
        let rb = simulate(&set, &mut b).result;
        assert_eq!(ra.metrics.sldwa, rb.metrics.sldwa);
        assert_eq!(ra.metrics.utilization, rb.metrics.utilization);
        assert_eq!(ra.events, rb.events);
    }

    fn chaos(set: &JobSet, scheduler: &mut dyn Scheduler, faults: &FaultPlan) -> DetailedRun {
        simulate_chaos(
            set,
            scheduler,
            &[],
            AdmissionConfig::default(),
            faults,
            Tracer::disabled(),
        )
    }

    #[test]
    fn node_loss_evicts_and_retries_the_occupant() {
        // Machine 2: job 0 (width 1) starts at t=0 on node 0. Node 0 dies
        // at t=50 → eviction, retry after the 300 s default backoff →
        // resubmitted at 350, runs clean 350..450.
        let set = JobSet::new("t", 2, vec![j(0, 0, 1, 100, 100)]);
        let faults = FaultPlan {
            outages: vec![dynp_workload::NodeOutage {
                node: 0,
                down_at: SimTime::from_secs(50),
                up_at: SimTime::from_secs(60),
            }],
            ..FaultPlan::none()
        };
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let d = chaos(&set, &mut s, &faults);
        assert_eq!(d.completed.len(), 1);
        assert_eq!(d.faults.node_downs, 1);
        assert_eq!(d.faults.node_ups, 1);
        assert_eq!(d.faults.evictions, 1);
        assert_eq!(d.faults.retries, 1);
        assert_eq!(d.faults.lost, 0);
        assert_eq!(d.faults.down_node_allocations, 0);
        // Wait is measured from the ORIGINAL submission: start 350.
        assert!((d.result.metrics.avg_wait_secs - 350.0).abs() < 1e-9);
        assert_eq!(d.faults.downtime_ms, 10_000);
    }

    #[test]
    fn crash_fault_kills_mid_run_and_the_retry_completes() {
        let set = JobSet::new("t", 2, vec![j(0, 0, 1, 100, 80)]);
        let faults = FaultPlan {
            job_faults: vec![(0, FaultKind::Crash { fraction: 0.5 })],
            ..FaultPlan::none()
        };
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let d = chaos(&set, &mut s, &faults);
        assert_eq!(d.faults.crashes, 1);
        assert_eq!(d.faults.retries, 1);
        assert_eq!(d.completed.len(), 1);
        // Crash at 40 (half of actual 80), resubmit at 40+300, clean run
        // of 80 → completion at 420.
        assert_eq!(d.completed[0].end, SimTime::from_secs(420));
    }

    #[test]
    fn overrun_fault_is_walltime_killed_at_the_estimate() {
        let set = JobSet::new("t", 2, vec![j(0, 0, 1, 100, 60)]);
        let faults = FaultPlan {
            job_faults: vec![(0, FaultKind::Overrun)],
            ..FaultPlan::none()
        };
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let d = chaos(&set, &mut s, &faults);
        assert_eq!(d.faults.overruns, 1);
        // Killed at start + estimate = 100, resubmitted at 400, runs its
        // actual 60 → completion at 460.
        assert_eq!(d.completed[0].end, SimTime::from_secs(460));
    }

    #[test]
    fn exhausted_retry_budget_loses_the_job_but_conserves_it() {
        let set = JobSet::new("t", 2, vec![j(0, 0, 1, 100, 80), j(1, 0, 1, 50, 50)]);
        let faults = FaultPlan {
            job_faults: vec![(0, FaultKind::Crash { fraction: 0.25 })],
            retry: dynp_workload::RetryPolicy {
                max_retries: 0,
                backoff: SimDuration::from_secs(300),
                factor: 2.0,
            },
            ..FaultPlan::none()
        };
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let d = chaos(&set, &mut s, &faults);
        // Job 0 is lost on its first failure; job 1 completes. The run
        // drains without tripping the conservation assert.
        assert_eq!(d.faults.lost, 1);
        assert_eq!(d.faults.retries, 0);
        assert_eq!(d.completed.len(), 1);
        assert_eq!(d.completed[0].job.id, JobId(1));
        assert_eq!(d.result.metrics.jobs, 1);
    }

    #[test]
    fn capacity_loss_downgrades_or_revokes_admitted_windows() {
        // Machine 3: a width-2 window [100, 200) is admitted at t=0, then
        // a width-1 job (estimate 300) starts at t=1 beside it. Nodes 2
        // and 1 die at t=10 and t=11: the first loss shrinks capacity to
        // 2 and downgrades the window to width 1; the second leaves only
        // the node under the running job, so the window fits at no width
        // and is revoked.
        let set = JobSet::new("t", 3, vec![j(0, 1, 1, 300, 300)]);
        let reqs = [req(0, 0, 100, 100, 2, None)];
        let outage = |node, down_s, up_s| dynp_workload::NodeOutage {
            node,
            down_at: SimTime::from_secs(down_s),
            up_at: SimTime::from_secs(up_s),
        };
        let faults = FaultPlan {
            outages: vec![outage(2, 10, 400), outage(1, 11, 401)],
            ..FaultPlan::none()
        };
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let d = simulate_chaos(
            &set,
            &mut s,
            &reqs,
            AdmissionConfig::default(),
            &faults,
            Tracer::disabled(),
        );
        assert_eq!(d.reservations.stats.admitted, 1);
        assert_eq!(d.reservations.stats.downgraded, 1);
        assert_eq!(d.reservations.stats.revoked, 1);
        assert_eq!(d.reservations.stats.honored, 0);
        assert!(d.reservations.honored.is_empty());
        assert_eq!(d.faults.evictions, 0);

        // Machine 2 with no job running during the window: losing the
        // idle node still forces a downgrade to width 1, and the window
        // is honored at the reduced width.
        let set = JobSet::new("t", 2, vec![j(0, 500, 1, 10, 10)]);
        let reqs = [req(0, 0, 100, 100, 2, None)];
        let faults = FaultPlan {
            outages: vec![outage(1, 10, 300)],
            ..FaultPlan::none()
        };
        let mut s = StaticScheduler::new(Policy::Fcfs);
        let d = simulate_chaos(
            &set,
            &mut s,
            &reqs,
            AdmissionConfig::default(),
            &faults,
            Tracer::disabled(),
        );
        assert_eq!(d.reservations.stats.downgraded, 1);
        assert_eq!(d.reservations.stats.revoked, 0);
        assert_eq!(d.reservations.stats.honored, 1);
        assert_eq!(d.reservations.honored[0].width, 1);
    }

    #[test]
    fn chaos_dynp_run_conserves_jobs_under_heavy_faults() {
        let set = dynp_workload::traces::kth().generate(250, 11);
        let model = dynp_workload::FaultModel::typical(30_000.0, 3_600.0, 0.1);
        let faults = model.generate(&set, 7);
        assert!(!faults.is_empty());
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
        let d = chaos(&set, &mut s, &faults);
        assert_eq!(
            d.completed.len() as u64 + d.faults.lost,
            set.len() as u64,
            "conservation"
        );
        assert_eq!(d.faults.down_node_allocations, 0);
        assert_eq!(d.faults.node_downs, faults.outages.len() as u64);
        assert_eq!(d.faults.node_ups, faults.outages.len() as u64);
    }

    #[test]
    fn all_policies_complete_every_job() {
        let model = dynp_workload::traces::sdsc();
        let set = model.generate(200, 3);
        for policy in Policy::BASIC {
            let mut s = StaticScheduler::new(policy);
            let r = simulate(&set, &mut s).result;
            assert_eq!(r.metrics.jobs, 200, "{policy} lost jobs");
            assert!(r.metrics.sldwa >= 1.0 - 1e-9);
            assert!(r.metrics.utilization <= 1.0 + 1e-9);
        }
    }
}
