//! The service daemon: the batch driver's [`ShardCore`] on a wall clock,
//! made crash-safe.
//!
//! [`spawn`] starts one daemon thread that owns the whole scheduling
//! state — `RmsState`, the self-tuning scheduler, the durable journal —
//! and multiplexes two event sources through a [`WallClockSource`]: its
//! own timers (job completions, scheduled by the driver exactly as in
//! simulation) and external [`Command`]s from any number of clients.
//! Every event goes through the *same* [`ShardCore::handle`] the batch
//! simulator runs, which is the whole digital-twin argument: nothing in
//! the scheduling path knows whether the clock is real.
//!
//! ## Durability and recovery
//!
//! With a journal configured, every accepted submission is appended to
//! the WAL (and, under the default fsync policy, on disk) *before* the
//! client sees `accepted`; accepted cancels are journaled the same way.
//! Checkpoints of the complete service state are written at segment
//! rotations and on a configurable record cadence. [`recover`] rebuilds
//! the daemon after a crash: load the newest valid checkpoint, replay
//! the journal suffix through the same driver loop on the
//! [`WallClockSource`] that then goes live (timers strictly before each
//! record's stamp, then the record — the exact live dispatch order). The
//! result is bit-identical to a daemon that was never killed, which
//! `tests/service_replay.rs` pins with a crash-at-any-point property
//! test.
//!
//! ## Overload control
//!
//! Beyond the bounded queue, per-user token buckets
//! ([`QuotaConfig`]) and weighted-fair shedding keep one heavy user
//! (the Zipf head) from starving the tail: when the queue is congested
//! (≥ ¾ full), a submission from a user already holding more than their
//! fair share of waiting slots is rejected with
//! [`OverloadReason::UserQuota`] even if the bucket has tokens.
//!
//! Shutdown drains rather than aborts: the wall source stops sleeping
//! and fast-forwards the remaining completions in virtual time, the
//! journal is fsynced, reply channels are flushed, and the core's
//! end-of-run invariants (job conservation, idle machine) are asserted
//! exactly as after a batch run.

use crate::api::{
    Command, OverloadReason, QuotaConfig, Reply, ServiceConfig, ServiceReport, ServiceStatus,
    SubmitError, SubmitSpec, Ticket,
};
use crate::journal::{
    load_latest_checkpoint, read_journal, repair_torn_tail, write_checkpoint, JournalError,
    JournalRecord, JournalWriter, ServiceCheckpoint, ServiceCounters,
};
use crate::session::{service_fingerprint, validate_replay_suffix, ReplayError};
use dynp_des::{EngineSnapshot, SimTime, Tick, WallClockSource};
use dynp_obs::TraceEvent;
use dynp_rms::{AdmissionConfig, Scheduler};
use dynp_sim::render_scheduler;
use dynp_sim::shard::{Event, ShardCore};
use dynp_workload::{FaultPlan, Job, JobId};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

/// A cheaply cloneable client handle to a running daemon.
///
/// The synchronous helpers create a private reply channel per call; for
/// open-loop load generation use [`ServiceHandle::sender`] and pair each
/// command with your own reply receiver so requests never wait on each
/// other.
#[derive(Clone)]
pub struct ServiceHandle {
    tx: Sender<Command>,
}

impl ServiceHandle {
    /// The raw command sender (for asynchronous clients).
    pub fn sender(&self) -> Sender<Command> {
        self.tx.clone()
    }

    /// Submits a job and waits for the verdict.
    pub fn submit(&self, spec: SubmitSpec) -> Result<Ticket, SubmitError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Command::Submit(spec, reply_tx)).is_err() {
            return Err(SubmitError::Overload(OverloadReason::ShuttingDown));
        }
        match reply_rx.recv() {
            Ok(Reply::Accepted(t)) => Ok(t),
            Ok(Reply::Rejected(e)) => Err(e),
            _ => Err(SubmitError::Overload(OverloadReason::ShuttingDown)),
        }
    }

    /// Cancels a waiting job; true if it was withdrawn.
    pub fn cancel(&self, job: u32) -> bool {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Command::Cancel(job, reply_tx)).is_err() {
            return false;
        }
        matches!(reply_rx.recv(), Ok(Reply::Cancelled { found: true, .. }))
    }

    /// Queries the service state (None once the daemon has exited).
    pub fn status(&self) -> Option<ServiceStatus> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx.send(Command::Status(reply_tx)).ok()?;
        match reply_rx.recv() {
            Ok(Reply::Status(s)) => Some(s),
            _ => None,
        }
    }

    /// Requests graceful shutdown and returns immediately; join the
    /// handle returned by [`spawn`] to wait for the drained report.
    pub fn shutdown(&self) {
        let _ = self.tx.send(Command::Shutdown(None));
    }
}

/// Why [`recover`] could not rebuild a daemon from a journal directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// The config has no journal directory.
    NoJournal,
    /// The journal failed to read or validate.
    Journal(JournalError),
    /// The journaled records are internally inconsistent.
    Replay(ReplayError),
    /// The journal header disagrees with the config (machine size,
    /// speedup) — recovering into a different service shape would not
    /// be a recovery.
    Mismatch(&'static str),
    /// Compaction deleted the journal's genesis segments but no
    /// surviving checkpoint covers the compacted-away prefix (the
    /// newest ones were corrupt or missing) — neither the checkpoint
    /// fast-path nor a from-genesis replay can rebuild the state.
    CompactionGap,
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::NoJournal => write!(f, "no journal directory configured"),
            RecoverError::Journal(e) => write!(f, "{e}"),
            RecoverError::Replay(e) => write!(f, "{e}"),
            RecoverError::Mismatch(what) => {
                write!(f, "journal header disagrees with config: {what}")
            }
            RecoverError::CompactionGap => write!(
                f,
                "compacted journal prefix is not covered by any surviving checkpoint"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<JournalError> for RecoverError {
    fn from(e: JournalError) -> Self {
        RecoverError::Journal(e)
    }
}

impl From<ReplayError> for RecoverError {
    fn from(e: ReplayError) -> Self {
        RecoverError::Replay(e)
    }
}

/// Starts a fresh daemon thread. Returns the client handle and the join
/// handle yielding the end-of-session [`ServiceReport`]; the daemon
/// exits when a shutdown command arrives or every [`ServiceHandle`]
/// clone (and raw sender) is dropped.
pub fn spawn(config: ServiceConfig) -> io::Result<(ServiceHandle, JoinHandle<ServiceReport>)> {
    let journal = match &config.journal {
        Some(dir) => Some(
            JournalWriter::create(
                dir,
                config.machine_size,
                config.speedup,
                &render_scheduler(&config.scheduler),
                config.fsync,
                config.rotate_bytes,
            )
            .map_err(|e| io::Error::other(e.to_string()))?,
        ),
        None => None,
    };
    let (tx, rx) = mpsc::channel();
    let join = std::thread::Builder::new()
        .name("dynp-serve".into())
        .spawn(move || run_daemon(config, rx, journal, None))?;
    Ok((ServiceHandle { tx }, join))
}

/// Recovers a daemon from its journal directory after a crash: loads
/// the newest valid checkpoint (falling back past corrupt ones, and to
/// a from-genesis replay when none survives), replays the journal
/// suffix through the driver loop, and goes live on a resumed wall
/// clock. Acknowledged work is never lost; the recovered state is
/// bit-identical to an uninterrupted run's. On a *compacted* journal
/// genesis replay is impossible, so a surviving checkpoint covering the
/// compacted prefix is required ([`RecoverError::CompactionGap`]
/// otherwise); a lone torn genesis header means nothing was ever
/// acknowledged, and recovery starts the service fresh.
pub fn recover(
    config: ServiceConfig,
) -> Result<(ServiceHandle, JoinHandle<ServiceReport>), RecoverError> {
    let dir = config.journal.clone().ok_or(RecoverError::NoJournal)?;
    let journal = match read_journal(&dir) {
        Ok(journal) => journal,
        // The crash hit before the very first header was durable, so
        // nothing was ever acknowledged: remove the torn file and start
        // the service fresh on the configured shape.
        Err(JournalError::TornGenesis { path }) => {
            std::fs::remove_file(&path).map_err(|e| {
                RecoverError::Journal(JournalError::Io {
                    path,
                    error: e.to_string(),
                })
            })?;
            return spawn(config).map_err(|e| {
                RecoverError::Journal(JournalError::Io {
                    path: dir,
                    error: e.to_string(),
                })
            });
        }
        Err(e) => return Err(e.into()),
    };
    // Truncate the crash's torn tail now, so the directory stays
    // readable once `resume` appends segments behind it (a tear is only
    // tolerated on the *last* segment).
    repair_torn_tail(&dir, &journal)?;
    if journal.machine_size != config.machine_size {
        return Err(RecoverError::Mismatch("machine size"));
    }
    if journal.speedup != config.speedup {
        return Err(RecoverError::Mismatch("speedup"));
    }
    if journal.scheduler != render_scheduler(&config.scheduler) {
        return Err(RecoverError::Mismatch("scheduler"));
    }
    // Seq of the first surviving record: 0 unless compaction deleted
    // the genesis segments.
    let first_base_seq = journal.segments.first().map_or(0, |&(_, base)| base);
    let (checkpoint, _skipped) = load_latest_checkpoint(&dir)?;
    // A checkpoint is only usable if it matches this journal and this
    // scheduler — *and* covers everything compaction deleted; anything
    // else falls back to genesis replay, which is always correct (just
    // slower) but only possible while the journal still starts at seq 0.
    let checkpoint = checkpoint.filter(|c| {
        c.machine_size == config.machine_size
            && c.journal_seq <= journal.next_seq
            && c.journal_seq >= first_base_seq
            && c.jobs.len() == c.users.len()
            && config
                .scheduler
                .build()
                .snapshot()
                .is_some_and(|s| s.tag == c.scheduler.tag)
    });
    // Validate record consistency up front so the caller gets a typed
    // error instead of a daemon-thread panic: with a checkpoint, only
    // the suffix being replayed must continue its job table densely;
    // genesis replay needs the full from-0 sequence, which a compacted
    // journal no longer has.
    match &checkpoint {
        Some(c) => validate_replay_suffix(&journal.records, c.journal_seq, c.jobs.len() as u32)?,
        None if first_base_seq > 0 => return Err(RecoverError::CompactionGap),
        None => validate_replay_suffix(&journal.records, 0, 0)?,
    }
    let writer = JournalWriter::resume(&dir, &journal, config.fsync, config.rotate_bytes)?;
    let seed = RecoveredState {
        records: journal.records,
        checkpoint,
    };
    let (tx, rx) = mpsc::channel();
    let join = std::thread::Builder::new()
        .name("dynp-serve".into())
        .spawn(move || run_daemon(config, rx, Some(writer), Some(seed)))
        .map_err(|e| {
            RecoverError::Journal(JournalError::Io {
                path: dir,
                error: e.to_string(),
            })
        })?;
    Ok((ServiceHandle { tx }, join))
}

/// What [`recover`] hands the daemon thread: the journal's merged
/// record sequence and (maybe) a checkpoint to fast-forward from.
struct RecoveredState {
    records: Vec<JournalRecord>,
    checkpoint: Option<ServiceCheckpoint>,
}

/// Per-user admission token buckets.
///
/// Levels are kept in an exact internal unit (1 millitoken = 1000
/// units) so refill arithmetic never truncates: accrual over an
/// interval is `rate_mtok_per_sec × Δms` units regardless of how many
/// refill calls the interval is split into. That associativity is what
/// makes bucket state recoverable — rejected submissions touch buckets
/// but are not journaled, and with exact arithmetic the replayed
/// buckets still land on the live values.
struct QuotaBuckets {
    cfg: QuotaConfig,
    /// user → (level in units, last refill stamp).
    buckets: HashMap<u32, (u64, SimTime)>,
}

/// Internal units per millitoken.
const UNITS_PER_MTOK: u64 = 1000;
/// Cost of one accepted submission: 1000 millitokens.
const SUBMIT_COST_UNITS: u64 = 1000 * UNITS_PER_MTOK;

impl QuotaBuckets {
    fn new(cfg: QuotaConfig) -> QuotaBuckets {
        QuotaBuckets {
            cfg,
            buckets: HashMap::new(),
        }
    }

    fn burst_units(&self) -> u64 {
        self.cfg.burst_mtok.saturating_mul(UNITS_PER_MTOK)
    }

    /// Brings `user`'s bucket current at `now` and returns its level.
    fn refill(&mut self, user: u32, now: SimTime) -> u64 {
        let burst = self.burst_units();
        let entry = self.buckets.entry(user).or_insert((burst, now));
        let delta_ms = now.saturating_since(entry.1).as_millis();
        let accrued = self.cfg.rate_mtok_per_sec.saturating_mul(delta_ms);
        entry.0 = entry.0.saturating_add(accrued).min(burst);
        entry.1 = now;
        entry.0
    }

    /// The live admission check: refill, then charge if affordable.
    fn try_charge(&mut self, user: u32, now: SimTime) -> bool {
        if !self.cfg.enabled() {
            return true;
        }
        if self.refill(user, now) < SUBMIT_COST_UNITS {
            return false;
        }
        let entry = self.buckets.get_mut(&user).expect("refilled above");
        entry.0 -= SUBMIT_COST_UNITS;
        true
    }

    /// The replay path: the record is journaled, so the live daemon
    /// accepted it — charge unconditionally to land on the same level.
    fn charge_replayed(&mut self, user: u32, now: SimTime) {
        if !self.cfg.enabled() {
            return;
        }
        self.refill(user, now);
        let entry = self.buckets.get_mut(&user).expect("refilled above");
        entry.0 = entry.0.saturating_sub(SUBMIT_COST_UNITS);
    }

    fn snapshot(&self) -> Vec<(u32, u64, SimTime)> {
        let mut out: Vec<(u32, u64, SimTime)> = self
            .buckets
            .iter()
            .map(|(&u, &(level, last))| (u, level, last))
            .collect();
        out.sort();
        out
    }

    fn restore(&mut self, snap: &[(u32, u64, SimTime)]) {
        self.buckets = snap
            .iter()
            .map(|&(u, level, last)| (u, (level, last)))
            .collect();
    }
}

/// The daemon state that isn't the shard core: counters, the job/user
/// tables, quotas, and the journal.
struct Service {
    config: ServiceConfig,
    journal: Option<JournalWriter>,
    jobs: Vec<Job>,
    /// Submitting user of each job, parallel to `jobs`.
    users: Vec<u32>,
    quotas: QuotaBuckets,
    counters: ServiceCounters,
    draining: bool,
    /// Records journaled since the last checkpoint (cadence counter).
    since_checkpoint: u64,
}

impl Service {
    /// Weighted-fair shedding: under congestion (queue ≥ ¾ full), a
    /// user holding more than their fair share `max_queue / active
    /// users` of waiting slots is shed. Only active when quotas are.
    fn over_fair_share(&self, core: &ShardCore, user: u32) -> bool {
        if !self.quotas.cfg.enabled() {
            return false;
        }
        let waiting = core.state().waiting();
        if waiting.len() * 4 < self.config.max_queue * 3 {
            return false;
        }
        let mut active: Vec<u32> = waiting
            .iter()
            .map(|j| self.users[j.id.0 as usize])
            .collect();
        let occupancy = active.iter().filter(|&&u| u == user).count();
        active.sort_unstable();
        active.dedup();
        let fair = self.config.max_queue / active.len().max(1);
        occupancy > fair.max(1)
    }

    fn status(&self, core: &ShardCore, now: SimTime) -> ServiceStatus {
        let state = core.state();
        let c = &self.counters;
        ServiceStatus {
            now,
            waiting: state.waiting().len(),
            running: state.running().len(),
            completed: state.completed().len(),
            lost: state.lost().len(),
            accepted: c.accepted,
            rejected: c.rejected_queue_full
                + c.rejected_shutdown
                + c.rejected_invalid
                + c.rejected_user_quota,
            free_processors: state.free_processors(),
            machine_size: state.machine_size(),
            draining: self.draining,
        }
    }

    /// Writes a checkpoint of the complete service state (a no-op for
    /// snapshotless schedulers — recovery then replays from genesis).
    fn checkpoint(
        &mut self,
        core: &ShardCore,
        scheduler: &dyn Scheduler,
        engine: EngineSnapshot<Event>,
        min_external: SimTime,
    ) {
        let (dir, writer) = match (&self.config.journal, &self.journal) {
            (Some(dir), Some(writer)) => (dir.clone(), writer),
            _ => return,
        };
        let scheduler_snap = match scheduler.snapshot() {
            Some(s) => s,
            None => return,
        };
        let ckpt = ServiceCheckpoint {
            journal_seq: writer.next_seq(),
            machine_size: self.config.machine_size,
            engine,
            min_external,
            core: core.snapshot(),
            scheduler: scheduler_snap,
            jobs: self.jobs.clone(),
            users: self.users.clone(),
            counters: self.counters,
            buckets: self.quotas.snapshot(),
        };
        match write_checkpoint(&dir, &ckpt) {
            Ok(bytes) => {
                self.since_checkpoint = 0;
                self.config.tracer.record(
                    ckpt.engine.now,
                    TraceEvent::CheckpointWritten {
                        journal_seq: ckpt.journal_seq,
                        bytes,
                    },
                );
                if self.config.compact {
                    if let Some(writer) = self.journal.as_mut() {
                        // Everything below journal_seq is in the
                        // checkpoint; rotated segments it covers are
                        // redundant.
                        let _ = writer.compact(ckpt.journal_seq.saturating_sub(1));
                    }
                }
            }
            Err(e) => {
                // A failed checkpoint degrades recovery time, not
                // correctness — the journal still has everything.
                eprintln!("dynp-serve: checkpoint failed: {e}");
            }
        }
    }

    /// Handles post-append bookkeeping: cadence counting and
    /// rotation/cadence-driven checkpoints.
    fn after_append(
        &mut self,
        sealed_bytes: Option<u64>,
        core: &ShardCore,
        scheduler: &dyn Scheduler,
        src: &WallClockSource<Event, Command>,
    ) {
        self.since_checkpoint += 1;
        let cadence_due = self.config.checkpoint_every > 0
            && self.since_checkpoint >= self.config.checkpoint_every;
        if let Some(bytes) = sealed_bytes {
            if let Some(writer) = &self.journal {
                self.config.tracer.record(
                    src.engine().now(),
                    TraceEvent::JournalRotated {
                        segment: writer.segment(),
                        bytes,
                    },
                );
            }
        }
        if sealed_bytes.is_some() || cadence_due {
            self.checkpoint(core, scheduler, src.engine().snapshot(), src.min_external());
        }
    }
}

fn run_daemon(
    config: ServiceConfig,
    rx: Receiver<Command>,
    journal: Option<JournalWriter>,
    recovered: Option<RecoveredState>,
) -> ServiceReport {
    let faults = FaultPlan::none();
    let mut scheduler = config.scheduler.build();
    scheduler.set_tracer(config.tracer.clone());
    let mut core = ShardCore::new(
        config.machine_size,
        AdmissionConfig::default(),
        0,
        faults.retry,
        SimTime::ZERO,
        config.tracer.clone(),
        0,
    );
    let quota = config.quota;
    let mut svc = Service {
        config,
        journal,
        jobs: Vec::new(),
        users: Vec::new(),
        quotas: QuotaBuckets::new(quota),
        counters: ServiceCounters::default(),
        draining: false,
        since_checkpoint: 0,
    };

    // Recovery: fast-forward from the checkpoint (if any), then replay
    // the journal suffix through the same handler the live loop runs, on
    // the source that then goes live.
    let mut src = WallClockSource::new(rx, svc.config.speedup);
    if let Some(seed) = recovered {
        let replayed = replay_recovered(
            &mut svc,
            &mut core,
            scheduler.as_mut(),
            &faults,
            seed,
            &mut src,
        );
        svc.config.tracer.record(
            src.engine().now(),
            TraceEvent::CheckpointLoaded {
                journal_seq: svc.journal.as_ref().map_or(0, JournalWriter::next_seq),
                replayed,
            },
        );
    }

    while let Some(tick) = src.next_tick() {
        match tick {
            Tick::Timer(event) => {
                core.handle(
                    src.engine_mut(),
                    event,
                    &mut *scheduler,
                    &svc.jobs,
                    &[],
                    &faults,
                );
            }
            Tick::External(cmd) => {
                handle_command(&mut svc, &mut core, &mut src, &mut *scheduler, &faults, cmd)
            }
        }
    }
    // Clients that raced the drain get a typed refusal instead of a
    // dropped channel.
    for cmd in src.drain_externals() {
        refuse(&mut svc, &core, &src, cmd);
    }
    // The journal hits disk before the summary, whatever the policy.
    if let Some(writer) = svc.journal.as_mut() {
        let _ = writer.sync();
    }
    let fingerprint = service_fingerprint(&core, scheduler.as_ref(), Vec::new());
    let expected = (svc.counters.accepted - svc.counters.cancelled) as usize;
    let run = core.finish(
        src.engine(),
        scheduler.name(),
        "service".to_string(),
        &faults,
        Some(expected),
    );
    let c = svc.counters;
    ServiceReport {
        run,
        accepted: c.accepted,
        rejected_queue_full: c.rejected_queue_full,
        rejected_shutdown: c.rejected_shutdown,
        rejected_invalid: c.rejected_invalid,
        rejected_user_quota: c.rejected_user_quota,
        cancelled: c.cancelled,
        fingerprint,
    }
}

/// Applies a recovered journal to the daemon state: restore the
/// checkpoint, then replay the record suffix on `src` in the live
/// dispatch order — every pending timer strictly before the next
/// record's stamp, then the record itself. Returns the number of records
/// replayed.
fn replay_recovered(
    svc: &mut Service,
    core: &mut ShardCore,
    scheduler: &mut dyn Scheduler,
    faults: &FaultPlan,
    seed: RecoveredState,
    src: &mut WallClockSource<Event, Command>,
) -> u64 {
    let mut first_seq = 0;
    if let Some(ckpt) = &seed.checkpoint {
        core.restore(&ckpt.core);
        scheduler.restore(&ckpt.scheduler);
        svc.jobs = ckpt.jobs.clone();
        svc.users = ckpt.users.clone();
        svc.counters = ckpt.counters;
        svc.quotas.restore(&ckpt.buckets);
        core.ensure_jobs(svc.jobs.len());
        first_seq = ckpt.journal_seq;
        src.restore(&ckpt.engine, ckpt.min_external);
    }
    let mut replayed = 0u64;
    for rec in seed.records.iter().filter(|r| r.seq() >= first_seq) {
        let stamp = rec.stamp();
        src.replay_external(stamp, |eng, ev| {
            core.handle(eng, ev, scheduler, &svc.jobs, &[], faults)
        });
        match *rec {
            JournalRecord::Submit { user, job, .. } => {
                debug_assert_eq!(job.id.index(), svc.jobs.len(), "journal ids are dense");
                svc.jobs.push(job);
                svc.users.push(user);
                core.ensure_jobs(svc.jobs.len());
                svc.quotas.charge_replayed(user, stamp);
                core.handle(
                    src.engine_mut(),
                    Event::Arrive(job.id),
                    scheduler,
                    &svc.jobs,
                    &[],
                    faults,
                );
                svc.counters.accepted += 1;
            }
            JournalRecord::Cancel { job, .. } => {
                if core.cancel_waiting(JobId(job)).is_some() {
                    svc.counters.cancelled += 1;
                }
            }
        }
        replayed += 1;
    }
    replayed
}

fn handle_command(
    svc: &mut Service,
    core: &mut ShardCore,
    src: &mut WallClockSource<Event, Command>,
    scheduler: &mut dyn Scheduler,
    faults: &FaultPlan,
    cmd: Command,
) {
    match cmd {
        Command::Submit(spec, reply) => {
            let verdict = admit(svc, core, src, scheduler, faults, spec);
            let _ = reply.send(match verdict {
                Ok(t) => Reply::Accepted(t),
                Err(e) => Reply::Rejected(e),
            });
        }
        Command::Cancel(job, reply) => {
            let found = match core.cancel_waiting(JobId(job)) {
                Some(_) => {
                    svc.counters.cancelled += 1;
                    let stamp = src.engine().now();
                    if let Some(writer) = svc.journal.as_mut() {
                        let appended = writer
                            .append_cancel(stamp, job)
                            .unwrap_or_else(|e| panic!("journal append failed: {e}"));
                        svc.after_append(appended.sealed_bytes, core, scheduler, src);
                    }
                    true
                }
                None => false,
            };
            let _ = reply.send(Reply::Cancelled { job, found });
        }
        Command::Status(reply) => {
            let _ = reply.send(Reply::Status(svc.status(core, src.engine().now())));
        }
        Command::Shutdown(reply) => {
            svc.draining = true;
            src.begin_drain();
            if let Some(reply) = reply {
                let _ = reply.send(Reply::Draining);
            }
        }
    }
}

/// The admission path: validate, apply backpressure and quotas, stamp,
/// journal durably, and run the arrival through the shared driver. The
/// journal append precedes every state mutation, so a crash at any
/// point either loses an unacknowledged request (the client never saw
/// `accepted`) or replays an acknowledged one — never the reverse.
fn admit(
    svc: &mut Service,
    core: &mut ShardCore,
    src: &mut WallClockSource<Event, Command>,
    scheduler: &mut dyn Scheduler,
    faults: &FaultPlan,
    spec: SubmitSpec,
) -> Result<Ticket, SubmitError> {
    if svc.draining {
        svc.counters.rejected_shutdown += 1;
        return Err(SubmitError::Overload(OverloadReason::ShuttingDown));
    }
    // Wire and in-process clients alike meet the gate here, before
    // anything is journaled.
    let now = src.engine().now();
    let id = JobId(svc.jobs.len() as u32);
    let machine = svc.config.machine_size;
    let job = match Job::try_new(id, now, spec.width, spec.estimate, spec.actual, machine) {
        Ok(job) => job,
        Err(e) => {
            svc.counters.rejected_invalid += 1;
            return Err(SubmitError::Invalid(e.to_string()));
        }
    };
    if core.state().waiting().len() >= svc.config.max_queue {
        svc.counters.rejected_queue_full += 1;
        return Err(SubmitError::Overload(OverloadReason::QueueFull));
    }
    if svc.over_fair_share(core, spec.user) || !svc.quotas.try_charge(spec.user, now) {
        svc.counters.rejected_user_quota += 1;
        svc.config.tracer.record(
            now,
            TraceEvent::QuotaRejected {
                user: spec.user,
                queue_depth: core.state().waiting().len() as u32,
            },
        );
        return Err(SubmitError::Overload(OverloadReason::UserQuota));
    }
    let mut sealed_bytes = None;
    if let Some(writer) = svc.journal.as_mut() {
        let appended = writer
            .append_submit(now, id.0, spec.user, job.width, job.estimate, job.actual)
            .unwrap_or_else(|e| panic!("journal append failed: {e}"));
        sealed_bytes = appended.sealed_bytes;
    }
    svc.jobs.push(job);
    svc.users.push(spec.user);
    core.ensure_jobs(svc.jobs.len());
    core.handle(
        src.engine_mut(),
        Event::Arrive(id),
        scheduler,
        &svc.jobs,
        &[],
        faults,
    );
    svc.counters.accepted += 1;
    if svc.journal.is_some() {
        svc.after_append(sealed_bytes, core, scheduler, src);
    }
    Ok(Ticket {
        job: id.0,
        admitted_at: now,
    })
}

/// Answers a command that arrived after the drain finished.
fn refuse(
    svc: &mut Service,
    core: &ShardCore,
    src: &WallClockSource<Event, Command>,
    cmd: Command,
) {
    match cmd {
        Command::Submit(_, reply) => {
            svc.counters.rejected_shutdown += 1;
            let _ = reply.send(Reply::Rejected(SubmitError::Overload(
                OverloadReason::ShuttingDown,
            )));
        }
        Command::Cancel(job, reply) => {
            let _ = reply.send(Reply::Cancelled { job, found: false });
        }
        Command::Status(reply) => {
            let _ = reply.send(Reply::Status(svc.status(core, src.engine().now())));
        }
        Command::Shutdown(reply) => {
            if let Some(reply) = reply {
                let _ = reply.send(Reply::Draining);
            }
        }
    }
}
