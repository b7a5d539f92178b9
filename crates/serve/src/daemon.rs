//! The service daemon: the batch driver's [`ShardCore`] on a wall clock,
//! made crash-safe.
//!
//! One `Daemon` owns the whole scheduling state — `RmsState`, the
//! self-tuning scheduler, the durable journal — behind one lock. A
//! client's command runs on the client's own thread ([`ServiceHandle`]):
//! it takes the lock, moves the [`WallClockSource`] to the command's
//! stamp — every job completion due before it runs first — applies the
//! command and lets go; the caller renders and writes its reply after.
//! The thread [`spawn`] starts takes no commands: it sleeps until the
//! earliest pending timer is due and runs the due timers under the same
//! lock, so completions fire at their wall-clock instants while no
//! command arrives. Every event goes through the *same*
//! [`ShardCore::handle`] the batch simulator runs, which is the whole
//! digital-twin argument: nothing in the scheduling path knows whether
//! the clock is real.
//!
//! ## Durability and recovery
//!
//! Service state is a fold of the journal. With a journal configured,
//! every accepted submission or cancel is appended to the WAL (and,
//! under the default fsync policy, on disk) *before* it changes anything
//! and before the client sees the reply; then one function,
//! `Daemon::apply`, applies it. Checkpoints of the complete service
//! state are written at segment rotations and on a configurable record
//! cadence. [`recover`] rebuilds the daemon after a crash, on the
//! caller's thread: load the newest valid checkpoint, then feed the
//! journal suffix to the same `apply`, after the same clock step a live
//! command takes (timers strictly before each record's stamp, then the
//! record — the exact live dispatch order). Only then does the journal
//! resume and the timer thread start, so a journal recovery refuses
//! gets no new segment. The result is bit-identical to a daemon that
//! was never killed, which `tests/service_replay.rs` pins with a
//! crash-at-any-point property test.
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
//! Shutdown drains rather than aborts: the timer thread fast-forwards
//! the remaining completions in virtual time, the journal is fsynced,
//! and the core's end-of-run invariants (job conservation, idle machine)
//! are asserted exactly as after a batch run. A panic under the lock
//! ends the service the same way a crash of the daemon would: later
//! commands are refused, and joining the timer thread yields a panic.

use crate::api::{
    OverloadReason, QuotaConfig, ServiceConfig, ServiceReport, ServiceStatus, SubmitError,
    SubmitSpec, Ticket,
};
use crate::journal::{
    load_usable_checkpoint, read_journal, repair_torn_tail, write_checkpoint, JournalError,
    JournalRecord, JournalWriter, ServiceCheckpoint, ServiceCounters,
};
use crate::session::{service_fingerprint, ReplayError};
use dynp_des::{Engine, SimTime, WallClockSource};
use dynp_obs::TraceEvent;
use dynp_rms::{AdmissionConfig, Scheduler};
use dynp_sim::render_scheduler;
use dynp_sim::shard::{Event, ShardCore};
use dynp_workload::{FaultPlan, Job, JobId};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A cheaply cloneable client handle to a running daemon.
///
/// Each call runs its command on the calling thread, under the lock that
/// guards the daemon, so any number of threads may serve clients through
/// clones of one handle. The daemon drains once [`ServiceHandle::shutdown`]
/// is called or every clone is dropped.
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

/// What the handles and the timer thread share.
struct Shared {
    /// The daemon; `None` once the timer thread has drained it.
    daemon: Mutex<Option<Daemon>>,
    /// Wakes the timer thread: an earlier timer, a shutdown, the last
    /// handle gone, a panic under the lock.
    wake: Condvar,
    /// Live [`ServiceHandle`]s.
    handles: AtomicUsize,
}

impl ServiceHandle {
    /// Runs `command` on the daemon under its lock; `None` once the
    /// daemon has drained, or a panic under the lock has ended it. A
    /// command that leaves a timer earlier than the earliest one before
    /// it wakes the timer thread, whose sleep would otherwise overrun it.
    fn serve<T>(&self, command: impl FnOnce(&mut Daemon) -> T) -> Option<T> {
        let run = || {
            let mut guard = self.shared.daemon.lock().ok()?;
            let daemon = guard.as_mut()?;
            let before = daemon.src.engine().peek_time();
            let out = command(daemon);
            let after = daemon.src.engine().peek_time();
            drop(guard);
            if after.is_some_and(|t| before.is_none_or(|b| t < b)) {
                self.shared.wake.notify_one();
            }
            Some(out)
        };
        // The unwind poisons the lock, which ends the service; the woken
        // timer thread carries the panic to its join handle.
        catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
            self.shared.wake.notify_one();
            None
        })
    }

    /// Submits a job and returns the verdict.
    pub fn submit(&self, spec: SubmitSpec) -> Result<Ticket, SubmitError> {
        self.serve(|d| d.admit(spec))
            .unwrap_or(Err(SubmitError::Overload(OverloadReason::ShuttingDown)))
    }

    /// Cancels a waiting job; true if it was withdrawn.
    pub fn cancel(&self, job: u32) -> bool {
        self.serve(|d| d.cancel(job)).unwrap_or(false)
    }

    /// Queries the service state (None once the daemon has exited).
    pub fn status(&self) -> Option<ServiceStatus> {
        self.serve(Daemon::status)
    }

    /// Requests graceful shutdown and returns immediately; join the
    /// handle returned by [`spawn`] to wait for the drained report.
    pub fn shutdown(&self) {
        self.serve(Daemon::shutdown);
        self.shared.wake.notify_one();
    }
}

impl Clone for ServiceHandle {
    fn clone(&self) -> Self {
        self.shared.handles.fetch_add(1, Ordering::SeqCst);
        ServiceHandle {
            shared: self.shared.clone(),
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if self.shared.handles.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Through the lock, so the timer thread is either before its
            // check of the count or asleep and woken.
            drop(self.shared.daemon.lock());
            self.shared.wake.notify_one();
        }
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

/// Starts a fresh daemon and its timer thread. Returns the client handle
/// and the join handle yielding the end-of-session [`ServiceReport`];
/// the daemon drains when a shutdown command arrives or every
/// [`ServiceHandle`] clone is dropped.
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
    start(Daemon::new(config, journal))
}

/// Recovers a daemon from its journal directory after a crash: loads
/// the newest valid checkpoint (falling back past corrupt ones, and to
/// a from-genesis replay when none survives), replays the journal
/// suffix through the live path's apply, and goes live on a resumed wall
/// clock. Acknowledged work is never lost; the recovered state is
/// bit-identical to an uninterrupted run's. Recovery runs to completion
/// on the caller's thread, so every refusal is returned before a timer
/// thread exists or the journal gains a segment. On a *compacted*
/// journal genesis replay is impossible, so a surviving checkpoint
/// covering the compacted prefix is required
/// ([`RecoverError::CompactionGap`] otherwise); a lone torn genesis
/// header means nothing was ever acknowledged, and recovery starts the
/// service fresh.
pub fn recover(
    config: ServiceConfig,
) -> Result<(ServiceHandle, JoinHandle<ServiceReport>), RecoverError> {
    let dir = config.journal.clone().ok_or(RecoverError::NoJournal)?;
    let io_error = |path, error: io::Error| {
        RecoverError::Journal(JournalError::Io {
            path,
            error: error.to_string(),
        })
    };
    let journal = match read_journal(&dir) {
        Ok(journal) => journal,
        // The crash hit before the very first header was durable, so
        // nothing was ever acknowledged: remove the torn file and start
        // the service fresh on the configured shape.
        Err(JournalError::TornGenesis { path }) => {
            std::fs::remove_file(&path).map_err(|e| io_error(path, e))?;
            return spawn(config).map_err(|e| io_error(dir, e));
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
    let mut daemon = Daemon::new(config, None);
    // A checkpoint is only usable if it matches this journal and this
    // scheduler — *and* covers everything compaction deleted. The newest
    // usable one is restored; without one, recovery falls back to
    // genesis replay, which is always correct (just slower) but only
    // possible while the journal still starts at seq 0.
    let (checkpoint, _skipped) = load_usable_checkpoint(&dir, |c| {
        c.machine_size == daemon.config.machine_size
            && c.journal_seq <= journal.next_seq
            && c.journal_seq >= first_base_seq
            && daemon.scheduler.accepts(&c.scheduler)
    })?;
    if checkpoint.is_none() && first_base_seq > 0 {
        return Err(RecoverError::CompactionGap);
    }
    let first_seq = checkpoint.map_or(0, |c| daemon.restore(c));
    // The suffix replays on the source that then goes live, in the live
    // dispatch order: every pending timer strictly before a record's
    // stamp, then the record itself, through the live path's `apply`.
    let mut replayed = 0u64;
    for rec in journal.records.iter().filter(|r| r.seq() >= first_seq) {
        daemon.advance_to(rec.stamp());
        daemon.apply(rec)?;
        replayed += 1;
    }
    daemon.config.tracer.record(
        daemon.src.engine().now(),
        TraceEvent::CheckpointLoaded {
            journal_seq: journal.next_seq,
            replayed,
        },
    );
    let (fsync, rotate_bytes) = (daemon.config.fsync, daemon.config.rotate_bytes);
    daemon.journal = Some(JournalWriter::resume(&dir, &journal, fsync, rotate_bytes)?);
    // The wall clock takes over from the last replayed instant.
    daemon.src.anchor();
    start(daemon).map_err(|e| io_error(dir, e))
}

/// Shares `daemon` with a new handle and starts its timer thread.
fn start(daemon: Daemon) -> io::Result<(ServiceHandle, JoinHandle<ServiceReport>)> {
    let shared = Arc::new(Shared {
        daemon: Mutex::new(Some(daemon)),
        wake: Condvar::new(),
        handles: AtomicUsize::new(1),
    });
    let timers = shared.clone();
    let join = std::thread::Builder::new()
        .name("dynp-serve".into())
        .spawn(move || run_timers(&timers))?;
    Ok((ServiceHandle { shared }, join))
}

/// The timer thread: sleeps until the earliest pending timer is due and
/// runs the due timers under the lock, until a shutdown or the last
/// handle's drop; then drains the rest at full speed and reports.
fn run_timers(shared: &Shared) -> ServiceReport {
    const POISONED: &str = "a panic under the daemon lock ended the service";
    let mut guard = shared.daemon.lock().expect(POISONED);
    loop {
        let daemon = guard
            .as_mut()
            .expect("only the timer thread takes the daemon");
        if daemon.draining || shared.handles.load(Ordering::SeqCst) == 0 {
            daemon.on_timers(|src, timer| src.drain(timer));
            break;
        }
        guard = match daemon.on_timers(|src, timer| src.run_due(timer)) {
            Some(wait) => shared.wake.wait_timeout(guard, wait).expect(POISONED).0,
            None => shared.wake.wait(guard).expect(POISONED),
        };
    }
    let daemon = guard.take().expect("drained once");
    drop(guard);
    daemon.finish()
}

/// Per-user admission token buckets — part of the journal fold.
///
/// Levels are kept in an exact internal unit (1 millitoken = 1000
/// units), so accrual over an interval is `rate_mtok_per_sec × Δms`
/// units however the interval is split. Only [`QuotaBuckets::charge`]
/// writes a bucket, and only [`Daemon::apply`] calls it, for an
/// accepted submission, live or replayed. The live check
/// [`QuotaBuckets::affordable`] writes nothing, so a refused submission
/// (which is not journaled) leaves no trace: a recovered daemon's
/// buckets, and the checkpoints it writes, equal the never-killed
/// daemon's bit for bit.
struct QuotaBuckets {
    cfg: QuotaConfig,
    /// user → (level in units, stamp of the last charge).
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

    /// `user`'s level at `now`: the stored level plus what accrued since
    /// its stamp, capped at the burst (a new user starts full).
    fn level(&self, user: u32, now: SimTime) -> u64 {
        let burst = self.cfg.burst_mtok.saturating_mul(UNITS_PER_MTOK);
        self.buckets.get(&user).map_or(burst, |&(level, last)| {
            let delta_ms = now.saturating_since(last).as_millis();
            let accrued = self.cfg.rate_mtok_per_sec.saturating_mul(delta_ms);
            level.saturating_add(accrued).min(burst)
        })
    }

    /// The live admission check: whether `user` can pay for a
    /// submission at `now`. Charges nothing.
    fn affordable(&self, user: u32, now: SimTime) -> bool {
        !self.cfg.enabled() || self.level(user, now) >= SUBMIT_COST_UNITS
    }

    /// Charges an accepted submission stamped `now`.
    fn charge(&mut self, user: u32, now: SimTime) {
        if self.cfg.enabled() {
            let level = self.level(user, now).saturating_sub(SUBMIT_COST_UNITS);
            self.buckets.insert(user, (level, now));
        }
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

/// The whole daemon: the shard core and its scheduler on the wall-clock
/// source, plus the service state that isn't the core — counters, the
/// job/user tables, quotas and the journal.
struct Daemon {
    config: ServiceConfig,
    journal: Option<JournalWriter>,
    core: ShardCore,
    scheduler: Box<dyn Scheduler>,
    src: WallClockSource<Event>,
    faults: FaultPlan,
    jobs: Vec<Job>,
    /// Submitting user of each job, parallel to `jobs`.
    users: Vec<u32>,
    quotas: QuotaBuckets,
    counters: ServiceCounters,
    draining: bool,
    /// Records journaled since the last checkpoint (cadence counter).
    since_checkpoint: u64,
}

impl Daemon {
    fn new(config: ServiceConfig, journal: Option<JournalWriter>) -> Daemon {
        let faults = FaultPlan::none();
        let mut scheduler = config.scheduler.build();
        scheduler.set_tracer(config.tracer.clone());
        let core = ShardCore::new(
            config.machine_size,
            AdmissionConfig::default(),
            0,
            faults.retry,
            SimTime::ZERO,
            config.tracer.clone(),
            0,
        );
        Daemon {
            src: WallClockSource::new(config.speedup),
            quotas: QuotaBuckets::new(config.quota),
            config,
            journal,
            core,
            scheduler,
            faults,
            jobs: Vec::new(),
            users: Vec::new(),
            counters: ServiceCounters::default(),
            draining: false,
            since_checkpoint: 0,
        }
    }

    /// Restores a checkpoint; returns the seq replay continues from.
    fn restore(&mut self, ckpt: ServiceCheckpoint) -> u64 {
        self.core.restore(&ckpt.core);
        self.scheduler.restore(&ckpt.scheduler);
        self.jobs = ckpt.jobs;
        self.users = ckpt.users;
        self.counters = ckpt.counters;
        self.quotas.restore(&ckpt.buckets);
        self.src.restore(&ckpt.engine, ckpt.min_external);
        ckpt.journal_seq
    }

    /// Applies one accepted command to the service state. This is the
    /// only code that does: live, right after the command is journaled;
    /// in recovery, right after `Daemon::advance_to` has run the timers
    /// before its stamp. A record this state could not
    /// have journaled — a submission that does not carry the next dense
    /// job id, a cancel of a job no submission introduced — is refused
    /// before it changes anything.
    fn apply(&mut self, rec: &JournalRecord) -> Result<(), ReplayError> {
        let known = self.jobs.len() as u32;
        match *rec {
            JournalRecord::Submit { user, job, .. } => {
                if job.id.0 != known {
                    return Err(ReplayError::JobIdMismatch {
                        expected: known,
                        found: job.id.0,
                    });
                }
                self.jobs.push(job);
                self.users.push(user);
                self.core.ensure_jobs(self.jobs.len());
                self.quotas.charge(user, job.submit);
                self.core.handle(
                    self.src.engine_mut(),
                    Event::Arrive(job.id),
                    &mut *self.scheduler,
                    &self.jobs,
                    &[],
                    &self.faults,
                );
                self.counters.accepted += 1;
            }
            JournalRecord::Cancel { job, .. } => {
                if job >= known {
                    return Err(ReplayError::UnknownJob { job });
                }
                // A journaled cancel of a job that no longer waits
                // withdraws nothing, here and in `replay_records`.
                if self.core.cancel_waiting(JobId(job)).is_some() {
                    self.counters.cancelled += 1;
                }
            }
        }
        Ok(())
    }

    /// The live path of an accepted command: journal it, apply it, then
    /// checkpoint if one is due. The append precedes every state change,
    /// so a crash at any point either loses an unacknowledged command
    /// (the client never saw the reply) or replays an acknowledged one —
    /// never the reverse.
    fn commit(&mut self, rec: &JournalRecord) {
        let appended = self.journal.as_mut().map(|writer| {
            writer
                .append(rec)
                .unwrap_or_else(|e| panic!("journal append failed: {e}"))
        });
        self.apply(rec)
            .expect("the live path journals dense ids and waiting jobs only");
        if let Some(appended) = appended {
            self.after_append(appended.sealed_bytes);
        }
    }

    /// The seq the next journaled record gets (0 without a journal).
    fn next_seq(&self) -> u64 {
        self.journal.as_ref().map_or(0, JournalWriter::next_seq)
    }

    /// Runs `step` on the source with the handler every timer goes
    /// through: the shard core, exactly as in a batch run.
    fn on_timers<T>(
        &mut self,
        step: impl FnOnce(&mut WallClockSource<Event>, &mut dyn FnMut(&mut Engine<Event>, Event)) -> T,
    ) -> T {
        let Daemon {
            src,
            core,
            scheduler,
            jobs,
            faults,
            ..
        } = self;
        step(src, &mut |eng, ev| {
            core.handle(eng, ev, &mut **scheduler, jobs, &[], faults)
        })
    }

    /// Runs every timer before `stamp`, then counts an external at it:
    /// the one step by which a live command and a replayed record move
    /// the clock.
    fn advance_to(&mut self, stamp: SimTime) {
        self.on_timers(|src, timer| src.replay_external(stamp, timer));
    }

    /// Moves the clock to a live command's stamp. Once shutdown has
    /// begun the clock belongs to the drain, and commands leave it be.
    fn arrive(&mut self) {
        if !self.draining {
            self.advance_to(self.src.live_stamp());
        }
    }

    /// Only a cancel that withdraws a waiting job is accepted. A
    /// draining daemon withdraws nothing: the drain starts every job.
    fn cancel(&mut self, job: u32) -> bool {
        if self.draining {
            return false;
        }
        self.arrive();
        let found = self.core.state().waiting().iter().any(|j| j.id.0 == job);
        if found {
            let (seq, stamp) = (self.next_seq(), self.src.engine().now());
            self.commit(&JournalRecord::Cancel { seq, stamp, job });
        }
        found
    }

    fn shutdown(&mut self) {
        self.arrive();
        self.draining = true;
    }

    /// The drained daemon's report: the journal hits disk before the
    /// summary, whatever the policy.
    fn finish(mut self) -> ServiceReport {
        if let Some(writer) = self.journal.as_mut() {
            let _ = writer.sync();
        }
        let fingerprint = service_fingerprint(&self.core, self.scheduler.as_ref(), Vec::new());
        let c = self.counters;
        let run = self.core.finish(
            self.src.engine(),
            self.scheduler.name(),
            "service".to_string(),
            &self.faults,
            Some((c.accepted - c.cancelled) as usize),
        );
        ServiceReport::new(run, c, fingerprint)
    }

    /// The admission path: stamp, validate, apply backpressure and
    /// quotas, then [`Daemon::commit`] the submission. A refusal changes
    /// nothing but its own counter.
    fn admit(&mut self, spec: SubmitSpec) -> Result<Ticket, SubmitError> {
        self.arrive();
        if self.draining {
            self.counters.rejected_shutdown += 1;
            return Err(SubmitError::Overload(OverloadReason::ShuttingDown));
        }
        // Wire and in-process clients alike meet the gate here, before
        // anything is journaled.
        let now = self.src.engine().now();
        let id = JobId(self.jobs.len() as u32);
        let machine = self.config.machine_size;
        let job = match Job::try_new(id, now, spec.width, spec.estimate, spec.actual, machine) {
            Ok(job) => job,
            Err(e) => {
                self.counters.rejected_invalid += 1;
                return Err(SubmitError::Invalid(e.to_string()));
            }
        };
        if self.core.state().waiting().len() >= self.config.max_queue {
            self.counters.rejected_queue_full += 1;
            return Err(SubmitError::Overload(OverloadReason::QueueFull));
        }
        if self.over_fair_share(spec.user) || !self.quotas.affordable(spec.user, now) {
            self.counters.rejected_user_quota += 1;
            self.config.tracer.record(
                now,
                TraceEvent::QuotaRejected {
                    user: spec.user,
                    queue_depth: self.core.state().waiting().len() as u32,
                },
            );
            return Err(SubmitError::Overload(OverloadReason::UserQuota));
        }
        let seq = self.next_seq();
        self.commit(&JournalRecord::Submit {
            seq,
            user: spec.user,
            job,
        });
        Ok(Ticket {
            job: id.0,
            admitted_at: now,
        })
    }

    /// Weighted-fair shedding: under congestion (queue ≥ ¾ full), a
    /// user holding more than their fair share `max_queue / active
    /// users` of waiting slots is shed. Only active when quotas are.
    fn over_fair_share(&self, user: u32) -> bool {
        if !self.quotas.cfg.enabled() {
            return false;
        }
        let waiting = self.core.state().waiting();
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

    fn status(&mut self) -> ServiceStatus {
        self.arrive();
        let state = self.core.state();
        let c = &self.counters;
        ServiceStatus {
            now: self.src.engine().now(),
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

    /// Post-append bookkeeping: cadence counting and rotation- or
    /// cadence-driven checkpoints.
    fn after_append(&mut self, sealed_bytes: Option<u64>) {
        self.since_checkpoint += 1;
        let cadence_due = self.config.checkpoint_every > 0
            && self.since_checkpoint >= self.config.checkpoint_every;
        if let (Some(bytes), Some(writer)) = (sealed_bytes, &self.journal) {
            self.config.tracer.record(
                self.src.engine().now(),
                TraceEvent::JournalRotated {
                    segment: writer.segment(),
                    bytes,
                },
            );
        }
        if sealed_bytes.is_some() || cadence_due {
            self.checkpoint();
        }
    }

    /// Writes a checkpoint of the complete service state (a no-op for
    /// snapshotless schedulers — recovery then replays from genesis).
    fn checkpoint(&mut self) {
        let (Some(dir), Some(writer)) = (&self.config.journal, &self.journal) else {
            return;
        };
        let Some(scheduler) = self.scheduler.snapshot() else {
            return;
        };
        let ckpt = ServiceCheckpoint {
            journal_seq: writer.next_seq(),
            machine_size: self.config.machine_size,
            engine: self.src.engine().snapshot(),
            min_external: self.src.min_external(),
            core: self.core.snapshot(),
            scheduler,
            jobs: self.jobs.clone(),
            users: self.users.clone(),
            counters: self.counters,
            buckets: self.quotas.snapshot(),
        };
        match write_checkpoint(dir, &ckpt) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_rms::Policy;
    use dynp_sim::SchedulerSpec;

    #[test]
    fn a_panic_under_the_lock_ends_the_service() {
        let config = ServiceConfig::new(8, SchedulerSpec::Static(Policy::Fcfs));
        let (handle, join) = spawn(config).unwrap();
        let other = handle.clone();
        assert_eq!(handle.serve::<()>(|_| panic!("a bug under the lock")), None);
        let refused = Err(SubmitError::Overload(OverloadReason::ShuttingDown));
        let spec = SubmitSpec {
            width: 1,
            estimate: dynp_des::SimDuration::from_secs(1),
            actual: dynp_des::SimDuration::from_secs(1),
            user: 0,
        };
        assert_eq!(other.submit(spec), refused);
        assert!(other.status().is_none());
        assert!(join.join().is_err(), "the join handle yields the panic");
    }
}
