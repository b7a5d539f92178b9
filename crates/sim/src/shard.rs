//! The cluster shard: one cluster's driver state behind its own event
//! queue.
//!
//! This module is the single home of the per-event driver logic that
//! every `simulate*` entry point and the federation executor share. The
//! split is:
//!
//! * [`Event`] — the cluster-local event alphabet (arrivals, finishes,
//!   reservation life-cycle, faults, plus the two migration halves),
//! * [`ShardCore`] — the mutable run state of one cluster (RMS state,
//!   admission controller, attempt counters, fault statistics,
//!   observation clocks, reservation report) and the event handler that
//!   was previously a closure inside `simulate_chaos`,
//! * `ClusterShard` — a core plus its own [`Engine`], scheduler and
//!   exogenous streams, advanced epoch-by-epoch by the federation
//!   executor.
//!
//! The single-cluster driver ([`crate::simulate_chaos`]) runs one core on
//! one engine to completion; the federation runs many shards in lockstep
//! epochs. Both call the exact same [`ShardCore::handle`], so a 1-cluster
//! federation run is bit-identical to the single-cluster driver.
//!
//! ## Seeded event ranks
//!
//! Exogenous events reach either engine through the one
//! `ExoFeed`, which pushes them with
//! [`Engine::schedule_seeded`] as they come due. The ranks are those of
//! seeding every stream up front — arrivals, then reservation requests,
//! then outages — and sort below every dynamically scheduled event at an
//! equal instant. A shard's feed carries requests and outages only, with
//! the federation's globally pre-assigned rank bases; its arrivals are
//! injected by the router at epoch barriers, ranked by the job's dense
//! global index.

use crate::feed::{ExoFeed, Streams};
use crate::runner::{DetailedRun, ReservationReport, RunObservations, RunResult};
use dynp_des::{Engine, SimDuration, SimTime, TimeWeightedCount};
use dynp_metrics::{FaultStats, SimMetrics};
use dynp_obs::{TraceClass, TraceEvent, Tracer};
use dynp_rms::{
    AdmissionConfig, AdmissionController, RejectReason, RepairAction, ReplanReason, Reservation,
    RmsState, Scheduler,
};
use dynp_workload::{FaultKind, FaultPlan, Job, JobId, ReservationRequest, RetryPolicy};

/// Events of the RMS simulation.
///
/// `Hash` because events sit inside queue snapshots that the model
/// checker fingerprints for visited-state deduplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// A job reaches the system.
    Arrive(JobId),
    /// A running job's actual run time elapses. Tagged with the execution
    /// attempt it belongs to, so a completion scheduled for an attempt
    /// that was later evicted by a node loss is recognized as stale.
    Finish(JobId, u32),
    /// A reservation request (index into the request stream) reaches the
    /// admission controller.
    ResRequest(u32),
    /// An admitted window (book id) begins.
    ResStart(u32),
    /// An admitted window (book id) ends and leaves the book.
    ResEnd(u32),
    /// The user withdraws an admitted window (book id) before its start.
    ResCancel(u32),
    /// A node fails and leaves the usable machine.
    NodeDown(u32),
    /// A failed node is repaired and rejoins the machine.
    NodeUp(u32),
    /// A planned first-attempt failure (crash or walltime overrun) kills
    /// the given execution attempt; stale if that attempt was already
    /// evicted by a node loss.
    Kill(JobId, u32),
    /// A failed job's retry backoff elapses and it re-enters the queue.
    Resubmit(JobId),
    /// A waiting job was withdrawn at the epoch barrier and is in flight
    /// to the given destination cluster; the event replans the shrunken
    /// queue (the withdrawal itself already happened at the barrier).
    Depart(JobId, u32),
    /// A migrated job arrives from the given origin cluster and enters
    /// this cluster's queue.
    MigrateIn(JobId, u32),
    /// A service-mode cancel command withdraws the job from the waiting
    /// queue (no effect if it already started, finished, or never
    /// arrived). Used by journal replay to reproduce the live daemon's
    /// cancel path, which withdraws without replanning.
    CancelCmd(JobId),
}

impl Event {
    /// Dispatch label and subject id for the trace (`sim_event` records).
    fn trace_parts(&self) -> (&'static str, u64) {
        match *self {
            Event::Arrive(id) => ("arrive", id.0 as u64),
            Event::Finish(id, _) => ("finish", id.0 as u64),
            Event::ResRequest(i) => ("res_request", i as u64),
            Event::ResStart(i) => ("res_start", i as u64),
            Event::ResEnd(i) => ("res_end", i as u64),
            Event::ResCancel(i) => ("res_cancel", i as u64),
            Event::NodeDown(n) => ("node_down", n as u64),
            Event::NodeUp(n) => ("node_up", n as u64),
            Event::Kill(id, _) => ("kill", id.0 as u64),
            Event::Resubmit(id) => ("resubmit", id.0 as u64),
            Event::Depart(id, _) => ("migrate_out", id.0 as u64),
            Event::MigrateIn(id, _) => ("migrate_in", id.0 as u64),
            Event::CancelCmd(id) => ("cancel", id.0 as u64),
        }
    }
}

/// Resolves one failed execution attempt at `now`: evicts the job from
/// the machine and either retries it (returning the resubmission instant
/// the caller must schedule) or, once the retry budget is spent, moves it
/// to the typed `Lost` terminal pool. `failures` is the 1-based count of
/// failed attempts including this one.
#[allow(clippy::too_many_arguments)]
fn resolve_failure(
    state: &mut RmsState,
    fstats: &mut FaultStats,
    tracer: &Tracer,
    retry: &RetryPolicy,
    now: SimTime,
    id: JobId,
    failures: u32,
    reason: &'static str,
) -> Option<SimTime> {
    let run = state.fail(id, now);
    tracer.record(
        now,
        TraceEvent::JobFault {
            job: id.0,
            attempt: failures,
            reason,
        },
    );
    if retry.exhausted(failures) {
        fstats.lost += 1;
        tracer.record(
            now,
            TraceEvent::JobLost {
                job: id.0,
                attempts: failures,
            },
        );
        state.mark_lost(run.job, now, failures);
        None
    } else {
        fstats.retries += 1;
        let delay = retry.delay_after(failures);
        tracer.record(
            now,
            TraceEvent::JobRetry {
                job: id.0,
                attempt: failures,
                delay_ms: delay.as_millis(),
            },
        );
        Some(now.saturating_add(delay))
    }
}

/// The mutable run state of one cluster, plus the per-event driver logic.
///
/// The engine is deliberately *not* a field: the handler receives it as a
/// parameter so `engine.run(|eng, ev| core.handle(eng, ev, ...))` borrows
/// the two halves disjointly. The same core drives batch simulation
/// (virtual clock), federation epochs, and the live service daemon, whose
/// wall clock keeps its timers on an [`Engine`] too.
pub struct ShardCore {
    pub(crate) state: RmsState,
    controller: AdmissionController,
    /// Execution attempts spent per job, indexed by *global* job id; a
    /// pending Finish/Kill whose attempt tag no longer matches is stale
    /// and ignored.
    attempts: Vec<u32>,
    pub(crate) fstats: FaultStats,
    retry: RetryPolicy,
    queue_tw: TimeWeightedCount,
    busy_tw: TimeWeightedCount,
    peak_queue: usize,
    report: ReservationReport,
    /// Admitted windows by book id (ids are dense: the book assigns them
    /// sequentially and only this driver admits).
    admitted: Vec<(Reservation, bool)>,
    pub(crate) tracer: Tracer,
    /// Cluster index within a federation (0 for the single-cluster
    /// driver).
    pub(crate) cluster: u32,
    /// Jobs that left this cluster's queue via migration.
    pub(crate) migrated_out: u64,
    /// Jobs that entered this cluster's queue via migration.
    pub(crate) migrated_in: u64,
}

/// A value capture of a [`ShardCore`]'s entire mutable run state.
///
/// Everything that changes across events is here; what is *not* here is
/// immutable run configuration (`retry`, `cluster`, the admission config
/// inside the controller) and the tracer (observation only — pinned to
/// never alter behavior). `Hash + Eq` let whole-simulation snapshots act
/// as model-checker fingerprints.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoreSnapshot {
    pub(crate) state: RmsState,
    pub(crate) attempts: Vec<u32>,
    pub(crate) fstats: FaultStats,
    pub(crate) queue_tw: TimeWeightedCount,
    pub(crate) busy_tw: TimeWeightedCount,
    pub(crate) peak_queue: usize,
    pub(crate) report: ReservationReport,
    pub(crate) admitted: Vec<(Reservation, bool)>,
    pub(crate) migrated_out: u64,
    pub(crate) migrated_in: u64,
}

impl ShardCore {
    /// Builds the run state of one cluster: an empty machine of
    /// `machine_size` processors, `n_jobs_global` pre-sized attempt
    /// counters (growable later via [`ShardCore::ensure_jobs`]), and
    /// observation clocks starting at `t0`.
    pub fn new(
        machine_size: u32,
        admission: AdmissionConfig,
        n_jobs_global: usize,
        retry: RetryPolicy,
        t0: SimTime,
        tracer: Tracer,
        cluster: u32,
    ) -> ShardCore {
        let mut controller = AdmissionController::new(admission);
        controller.set_tracer(tracer.clone());
        ShardCore {
            state: RmsState::new(machine_size),
            controller,
            attempts: vec![0; n_jobs_global],
            fstats: FaultStats::default(),
            retry,
            queue_tw: TimeWeightedCount::new(t0, 0),
            busy_tw: TimeWeightedCount::new(t0, 0),
            peak_queue: 0,
            report: ReservationReport::default(),
            admitted: Vec::new(),
            tracer,
            cluster,
            migrated_out: 0,
            migrated_in: 0,
        }
    }

    /// Execution attempts spent so far by `id` (global job id).
    pub fn attempts_of(&self, id: JobId) -> u32 {
        self.attempts[id.0 as usize]
    }

    /// Read access to the RMS state (service mode answers status queries
    /// from it between events).
    pub fn state(&self) -> &RmsState {
        &self.state
    }

    /// Admitted windows by book id, each flagged `true` once cancelled or
    /// revoked.
    pub fn admitted_windows(&self) -> &[(Reservation, bool)] {
        &self.admitted
    }

    /// Captures the core's entire mutable run state as a value.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            state: self.state.clone(),
            attempts: self.attempts.clone(),
            fstats: self.fstats,
            queue_tw: self.queue_tw.clone(),
            busy_tw: self.busy_tw.clone(),
            peak_queue: self.peak_queue,
            report: self.report.clone(),
            admitted: self.admitted.clone(),
            migrated_out: self.migrated_out,
            migrated_in: self.migrated_in,
        }
    }

    /// Restores state captured by [`ShardCore::snapshot`]. The core must
    /// have been built with the same configuration (machine, admission,
    /// retry policy) — only the mutable state is replaced.
    pub fn restore(&mut self, snap: &CoreSnapshot) {
        self.state = snap.state.clone();
        self.attempts = snap.attempts.clone();
        self.fstats = snap.fstats;
        self.queue_tw = snap.queue_tw.clone();
        self.busy_tw = snap.busy_tw.clone();
        self.peak_queue = snap.peak_queue;
        self.report = snap.report.clone();
        self.admitted = snap.admitted.clone();
        self.migrated_out = snap.migrated_out;
        self.migrated_in = snap.migrated_in;
    }

    /// Grows the per-job attempt table to cover `n` jobs. The batch
    /// driver pre-sizes it from the job set; service mode assigns ids
    /// incrementally and grows the table as submissions are accepted.
    pub fn ensure_jobs(&mut self, n: usize) {
        if self.attempts.len() < n {
            self.attempts.resize(n, 0);
        }
    }

    /// Withdraws a waiting job (service-mode cancel). Returns `None`
    /// when the job is not in the waiting queue — already started,
    /// finished, or never submitted — in which case nothing changes.
    pub fn cancel_waiting(&mut self, id: JobId) -> Option<Job> {
        if self.state.waiting().iter().any(|j| j.id == id) {
            Some(self.state.withdraw(id))
        } else {
            None
        }
    }

    /// Withdraws a waiting job at an epoch barrier for migration to
    /// cluster `to`. The caller must schedule the [`Event::Depart`]
    /// marker on this shard's engine and the [`Event::MigrateIn`] on the
    /// destination's.
    pub(crate) fn withdraw_for_migration(&mut self, id: JobId) {
        self.migrated_out += 1;
        self.state.withdraw(id);
    }

    /// Handles one event: updates the cluster state, replans, and starts
    /// every due job. This is the whole driver loop body — single-cluster
    /// runs, federated runs, and the live service daemon share it
    /// verbatim; only what advances `eng` — its own queue, or the wall
    /// clock around it — differs.
    pub fn handle(
        &mut self,
        eng: &mut Engine<Event>,
        event: Event,
        scheduler: &mut dyn Scheduler,
        jobs: &[Job],
        requests: &[ReservationRequest],
        faults: &FaultPlan,
    ) {
        let now = eng.now();
        let tracer = &self.tracer;
        if tracer.wants(TraceClass::Dispatch) {
            let (kind, id) = event.trace_parts();
            tracer.record(now, TraceEvent::SimEvent { kind, id });
        }
        let _span = tracer.span(now, "event");
        let reason = match event {
            Event::Arrive(id) => {
                self.state.submit(jobs[id.0 as usize]);
                ReplanReason::Submission
            }
            Event::Finish(id, attempt) => {
                // Stale when the attempt it was scheduled for has been
                // evicted by a node loss (the job is waiting out a retry
                // backoff, running a later attempt, or lost).
                //
                // The `mc-mutant-stale-finish` feature is a *seeded bug*
                // for the model checker's sanity test: it drops the
                // attempt-tag half of the check, so a Finish left over
                // from an evicted attempt completes the job's *current*
                // attempt at the wrong instant. Never enabled in normal
                // builds.
                #[cfg(not(feature = "mc-mutant-stale-finish"))]
                let stale = self.attempts[id.0 as usize] != attempt
                    || !self.state.running().iter().any(|r| r.job.id == id);
                #[cfg(feature = "mc-mutant-stale-finish")]
                let stale = {
                    let _ = attempt;
                    !self.state.running().iter().any(|r| r.job.id == id)
                };
                if stale {
                    return;
                }
                self.state.complete(id, now);
                ReplanReason::Completion
            }
            Event::NodeDown(node) => {
                self.fstats.node_downs += 1;
                tracer.record(now, TraceEvent::NodeDown { node });
                if let Some(id) = self.state.node_down(node) {
                    self.fstats.evictions += 1;
                    let failures = self.attempts[id.0 as usize];
                    if let Some(at) = resolve_failure(
                        &mut self.state,
                        &mut self.fstats,
                        tracer,
                        &self.retry,
                        now,
                        id,
                        failures,
                        "node-loss",
                    ) {
                        eng.schedule_at(at, Event::Resubmit(id));
                    }
                }
                // The machine shrank: re-validate every admitted window
                // against the degraded capacity before anyone replans
                // around a promise that can no longer be kept.
                for action in self.state.repair_reservations(now) {
                    match action {
                        RepairAction::Downgraded { id, to_width, .. } => {
                            self.report.stats.downgraded += 1;
                            // Keep the realized record honest: the window
                            // runs (and is honored) at its reduced width.
                            self.admitted[id as usize].0.width = to_width;
                            tracer.record(
                                now,
                                TraceEvent::ReservationRepair {
                                    reservation: id,
                                    action: "downgraded",
                                    width: to_width,
                                },
                            );
                        }
                        RepairAction::Revoked { id } => {
                            self.report.stats.revoked += 1;
                            self.admitted[id as usize].1 = true;
                            tracer.record(
                                now,
                                TraceEvent::ReservationRepair {
                                    reservation: id,
                                    action: "revoked",
                                    width: 0,
                                },
                            );
                        }
                    }
                }
                ReplanReason::Fault
            }
            Event::NodeUp(node) => {
                self.fstats.node_ups += 1;
                tracer.record(now, TraceEvent::NodeUp { node });
                self.state.node_up(node);
                ReplanReason::Fault
            }
            Event::Kill(id, attempt) => {
                // Stale when a node loss already evicted this attempt.
                if self.attempts[id.0 as usize] != attempt
                    || !self.state.running().iter().any(|r| r.job.id == id)
                {
                    return;
                }
                let kind = faults
                    .fault_of(id.0)
                    .expect("kill event without a planned fault");
                match kind {
                    FaultKind::Crash { .. } => self.fstats.crashes += 1,
                    FaultKind::Overrun => self.fstats.overruns += 1,
                }
                if let Some(at) = resolve_failure(
                    &mut self.state,
                    &mut self.fstats,
                    tracer,
                    &self.retry,
                    now,
                    id,
                    attempt,
                    kind.label(),
                ) {
                    eng.schedule_at(at, Event::Resubmit(id));
                }
                ReplanReason::Fault
            }
            Event::Resubmit(id) => {
                // The job keeps its original submission time: waiting
                // metrics measure from the first submission.
                self.state.resubmit(jobs[id.0 as usize]);
                ReplanReason::Submission
            }
            Event::ResRequest(idx) => {
                let r = &requests[idx as usize];
                // Satellite of the admission protocol: drop windows that
                // already ended before building the base profile.
                self.state.expire_reservations(now);
                self.report.stats.requests += 1;
                self.report.stats.requested_area_pms += r.area_pms();
                match self.controller.evaluate(
                    &self.state,
                    now,
                    scheduler.active_policy(),
                    r.start,
                    r.duration,
                    r.width,
                ) {
                    Ok(()) => {
                        tracer.record(
                            now,
                            TraceEvent::AdmissionVerdict {
                                request: r.id,
                                verdict: "admitted",
                            },
                        );
                        let book_id = self.state.admit_reservation(r.start, r.duration, r.width);
                        debug_assert_eq!(book_id as usize, self.admitted.len());
                        let res = Reservation {
                            id: book_id,
                            start: r.start,
                            duration: r.duration,
                            width: r.width,
                        };
                        self.admitted.push((res, false));
                        self.report.stats.admitted += 1;
                        self.report.stats.admitted_area_pms += r.area_pms();
                        eng.schedule_at(res.start, Event::ResStart(book_id));
                        eng.schedule_at(res.end(), Event::ResEnd(book_id));
                        if let Some(c) = r.cancel_at {
                            if c > now && c < r.start {
                                eng.schedule_at(c, Event::ResCancel(book_id));
                            }
                        }
                        ReplanReason::Reservation
                    }
                    Err(why) => {
                        tracer.record(
                            now,
                            TraceEvent::AdmissionVerdict {
                                request: r.id,
                                verdict: why.label(),
                            },
                        );
                        match why {
                            RejectReason::NoCapacity => self.report.stats.rejected_capacity += 1,
                            RejectReason::BreaksGuarantee => {
                                self.report.stats.rejected_guarantee += 1
                            }
                            RejectReason::InvalidWidth | RejectReason::InPast => {
                                self.report.stats.rejected_invalid += 1
                            }
                        }
                        self.report.rejected.push((r.id, why));
                        // The state is untouched: nothing to replan.
                        return;
                    }
                }
            }
            Event::ResStart(book_id) => {
                // The window's capacity was withheld from every plan since
                // admission; nothing changes at the boundary itself.
                debug_assert!(
                    self.admitted[book_id as usize].1
                        || self
                            .state
                            .reservations()
                            .all()
                            .iter()
                            .any(|w| w.id == book_id),
                    "admitted window {book_id} vanished before its start"
                );
                return;
            }
            Event::ResEnd(book_id) => {
                let (res, cancelled) = self.admitted[book_id as usize];
                if !cancelled {
                    self.report.stats.honored += 1;
                    self.report.honored.push(res);
                }
                self.state.expire_reservations(now);
                ReplanReason::Reservation
            }
            Event::ResCancel(book_id) => {
                // Nothing left to withdraw when schedule repair already
                // revoked the window after a capacity loss.
                if self.admitted[book_id as usize].1 {
                    return;
                }
                let existed = self.state.cancel_reservation(book_id);
                debug_assert!(
                    existed,
                    "cancel of window {book_id} that is not in the book"
                );
                self.admitted[book_id as usize].1 = true;
                self.report.stats.cancelled += 1;
                ReplanReason::Reservation
            }
            Event::Depart(id, to) => {
                // The withdrawal happened at the barrier; this event only
                // records the departure and replans the shrunken queue.
                tracer.record(
                    now,
                    TraceEvent::MigrateDepart {
                        job: id.0,
                        from: self.cluster,
                        to,
                    },
                );
                ReplanReason::Submission
            }
            Event::MigrateIn(id, from) => {
                self.migrated_in += 1;
                tracer.record(
                    now,
                    TraceEvent::MigrateArrive {
                        job: id.0,
                        from,
                        to: self.cluster,
                    },
                );
                self.state.submit(jobs[id.0 as usize]);
                ReplanReason::Submission
            }
            Event::CancelCmd(id) => {
                // Mirrors the live daemon's cancel path bit-for-bit:
                // withdraw from the waiting queue (no-op if the job
                // already started or finished) without replanning — the
                // freed slot is picked up at the next scheduling event,
                // exactly as in the live run.
                self.cancel_waiting(id);
                return;
            }
        };
        let schedule = scheduler.replan(&self.state, now, reason);
        // The scheduler has read the queue changes; the starts below are
        // the next replan's.
        self.state.clear_queue_log();
        let trace_backfill = tracer.wants(TraceClass::Dispatch);
        let mut started = Vec::new();
        for entry in schedule.due(now) {
            let id = entry.job.id;
            let run = self.state.start(id, now);
            self.attempts[id.0 as usize] += 1;
            let attempt = self.attempts[id.0 as usize];
            // The fault model strikes first attempts only.
            let planned = if attempt == 1 {
                faults.fault_of(id.0)
            } else {
                None
            };
            match planned {
                Some(FaultKind::Crash { fraction }) => {
                    let offset = run.job.actual.scale(fraction);
                    let at = run.start + offset.max(SimDuration::from_millis(1));
                    eng.schedule_at(at, Event::Kill(id, attempt));
                }
                Some(FaultKind::Overrun) => {
                    // The attempt would exceed its estimate; the planning
                    // RMS walltime-kills it exactly at start + estimate.
                    eng.schedule_at(run.estimated_end(), Event::Kill(id, attempt));
                }
                None => eng.schedule_at(run.actual_end(), Event::Finish(id, attempt)),
            }
            if self.state.down_nodes() > 0 {
                // Chaos invariant, counted rather than asserted so the
                // harness can verify it end to end: a start never lands
                // on a down node.
                let state = &self.state;
                self.fstats.down_node_allocations += (0..state.machine_size())
                    .filter(|&n| state.is_node_down(n) && state.node_occupant(n) == Some(id))
                    .count() as u64;
            }
            if trace_backfill {
                started.push((id, entry.job.width, entry.job.submit));
            }
        }
        // A started job "backfilled" iff earlier-submitted jobs are still
        // waiting after every due start was issued — the implicit
        // backfilling a planning-based RMS performs.
        for (id, width, submit) in started {
            let overtaken = self
                .state
                .waiting()
                .iter()
                .filter(|w| w.submit < submit)
                .count() as u32;
            if overtaken > 0 {
                tracer.record(
                    now,
                    TraceEvent::BackfillMove {
                        job: id.0,
                        width,
                        overtaken,
                    },
                );
            }
        }
        self.peak_queue = self.peak_queue.max(self.state.waiting().len());
        self.queue_tw.set(now, self.state.waiting().len() as u64);
        self.busy_tw.set(
            now,
            (self.state.machine_size() - self.state.free_processors()) as u64,
        );
    }

    /// Drains the core into a [`DetailedRun`] after the engine ran dry.
    ///
    /// `expected_jobs` is the single-cluster job-conservation check
    /// (`completed + lost == submitted`); federated runs pass `None` here
    /// and assert conservation globally across clusters instead, because
    /// a migrated job completes on a different shard than it arrived at.
    ///
    /// # Panics
    /// Panics if jobs are still waiting/running, windows are still
    /// booked, or (with `expected_jobs`) conservation is violated.
    pub fn finish(
        self,
        engine: &Engine<Event>,
        scheduler_name: String,
        job_set: String,
        faults: &FaultPlan,
        expected_jobs: Option<usize>,
    ) -> DetailedRun {
        let ShardCore {
            state,
            mut fstats,
            queue_tw,
            busy_tw,
            peak_queue,
            report,
            admitted,
            ..
        } = self;
        assert!(
            state.is_idle(),
            "simulation drained with {} waiting / {} running jobs",
            state.waiting().len(),
            state.running().len()
        );
        if let Some(expected) = expected_jobs {
            assert_eq!(
                state.completed().len() + state.lost().len(),
                expected,
                "job conservation violated"
            );
        }
        debug_assert_eq!(state.lost().len() as u64, fstats.lost);
        assert!(
            state.reservations().all().is_empty(),
            "simulation drained with {} windows still booked",
            state.reservations().all().len()
        );
        debug_assert_eq!(
            report.stats.honored + report.stats.cancelled + report.stats.revoked,
            report.stats.admitted,
            "admitted windows must end, be cancelled, or be revoked by repair"
        );
        let _ = admitted;
        fstats.downtime_ms = faults
            .outages
            .iter()
            .map(|o| o.downtime().as_millis())
            .sum();

        let end = engine.now();
        let result = RunResult {
            metrics: SimMetrics::measure(state.machine_size(), state.completed()),
            scheduler: scheduler_name,
            job_set,
            events: engine.processed(),
        };
        DetailedRun {
            result,
            observations: RunObservations {
                peak_queue,
                mean_queue: queue_tw.average_until(end),
                mean_busy: busy_tw.average_until(end),
            },
            completed: state.into_completed(),
            reservations: report,
            faults: fstats,
        }
    }
}

/// One federated cluster: a [`ShardCore`] plus its own event engine,
/// scheduler and exogenous streams. The federation executor advances a
/// set of shards epoch-by-epoch; each shard's epoch run touches only its
/// own fields, so shards can run on independent worker threads between
/// barriers.
pub(crate) struct ClusterShard {
    pub(crate) engine: Engine<Event>,
    pub(crate) core: ShardCore,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) requests: Vec<ReservationRequest>,
    pub(crate) faults: FaultPlan,
    feed: ExoFeed,
}

impl ClusterShard {
    /// Builds a shard whose reservation and outage streams are fed with
    /// the given seeded-rank bases (globally pre-assigned so equal-time
    /// ties break exactly as in the single-cluster driver). Job arrivals
    /// are *not* fed here — the router injects them at epoch barriers.
    pub(crate) fn new(
        core: ShardCore,
        mut scheduler: Box<dyn Scheduler>,
        requests: Vec<ReservationRequest>,
        faults: FaultPlan,
        request_rank_base: u64,
        outage_rank_base: u64,
    ) -> ClusterShard {
        scheduler.set_tracer(core.tracer.clone());
        let streams = Streams {
            arrivals: &[],
            requests: &requests,
            outages: &faults.outages,
        };
        let mut feed = ExoFeed::new(streams, request_rank_base, outage_rank_base);
        let mut engine: Engine<Event> = Engine::new();
        feed.feed(&mut engine, streams);
        ClusterShard {
            engine,
            core,
            scheduler,
            requests,
            faults,
            feed,
        }
    }

    /// Runs this shard's engine up to (exclusive) `horizon`.
    pub(crate) fn run_epoch(&mut self, horizon: SimTime, jobs: &[Job]) {
        let core = &mut self.core;
        let scheduler = &mut *self.scheduler;
        let requests = &self.requests;
        let faults = &self.faults;
        let feed = &mut self.feed;
        let streams = Streams {
            arrivals: &[],
            requests,
            outages: &faults.outages,
        };
        self.engine.run_until(horizon, |eng, event| {
            core.handle(eng, event, scheduler, jobs, requests, faults);
            feed.feed(eng, streams);
        });
    }

    /// The timestamp of this shard's earliest pending event, if any: the
    /// feed keeps every stream event due by then in the heap, so this is
    /// the shard's true next event and not just the heap's.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.engine.peek_time()
    }
}
