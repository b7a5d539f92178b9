//! Journal replay: the replay side of the record/replay guarantee.
//!
//! The daemon journals every accepted command — submission *and*
//! cancellation — into the typed, checksummed WAL described in
//! [`crate::journal`]. [`replay_session`] feeds a journal directory back
//! through the batch DES driver with the same scheduler recipe; because
//! the wall-clock source never stamps an external at or before an
//! already-dispatched timer (see `dynp_des::clock`), seeding the
//! journaled externals at their recorded stamps — with tie-break ranks
//! in journal order, below every dynamic event — presents the identical
//! `(time, event)` sequence to the identical driver and reproduces the
//! live schedules bit-for-bit.
//!
//! Cancellations are inside that envelope now: a journaled cancel seeds
//! an [`Event::CancelCmd`] that withdraws the waiting job exactly as
//! the live daemon's cancel path did, at the same instant, so sessions
//! with cancels replay just as exactly as ones without. (The SWF-era
//! refusal of cancel-bearing logs is gone with the SWF log itself.)

use crate::api::ServiceReport;
use crate::journal::{read_journal, JournalError, JournalRecord, ServiceCounters};
use dynp_des::{Engine, EngineSnapshot, SimTime};
use dynp_obs::Tracer;
use dynp_rms::{AdmissionConfig, Scheduler};
use dynp_sim::{Event, FeedCursors, SchedulerSpec, ShardCore, SimSnapshot};
use dynp_workload::{FaultPlan, JobId};
use std::fmt;
use std::path::Path;

/// Errors raised while replaying a journaled session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The journal directory failed to read or validate.
    Journal(JournalError),
    /// Submission records do not assign dense job ids (0, 1, 2, …) —
    /// the journal was not written by this daemon's admission path.
    JobIdMismatch {
        /// The id the next submission record had to carry.
        expected: u32,
        /// The id it actually carried.
        found: u32,
    },
    /// A cancel record names a job no submission record introduced.
    UnknownJob {
        /// The offending job id.
        job: u32,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Journal(e) => write!(f, "journal error: {e}"),
            ReplayError::JobIdMismatch { expected, found } => {
                write!(f, "non-dense job ids: expected {expected}, found {found}")
            }
            ReplayError::UnknownJob { job } => write!(f, "cancel of unknown job {job}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<JournalError> for ReplayError {
    fn from(e: JournalError) -> Self {
        ReplayError::Journal(e)
    }
}

/// Fingerprint of the *service-visible* state: core, scheduler, and
/// remaining timer entries (sorted) — but not the clock or dispatch
/// counters, which unjournaled status queries perturb in a live run.
/// Recovery identity is pinned against this value: a recovered daemon
/// and a never-killed daemon drain to the same fingerprint, and so does
/// the batch replay of their journal. `None` when the scheduler does
/// not support snapshotting.
pub(crate) fn service_fingerprint(
    core: &ShardCore,
    scheduler: &dyn Scheduler,
    mut entries: Vec<(SimTime, u64, Event)>,
) -> Option<u128> {
    let scheduler_snap = scheduler.snapshot()?;
    entries.sort_by_key(|&(t, seq, _)| (t, seq));
    let snap = SimSnapshot {
        core: core.snapshot(),
        engine: EngineSnapshot {
            now: SimTime::ZERO,
            processed: 0,
            next_seq: 0,
            entries,
        },
        // A service has no exogenous streams: every external is a
        // journaled command.
        feed: FeedCursors::default(),
        scheduler: scheduler_snap,
    };
    Some(snap.fingerprint())
}

/// Replays a record sequence through the batch driver: every journaled
/// external is seeded at its recorded stamp with a tie-break rank in
/// journal order (below all dynamic events, exactly the live dispatch
/// order), then the engine runs dry. This is the independent oracle for
/// the daemon: it shares the driver, not the daemon's apply. The report's
/// rejection counters are 0, because rejections are not journaled.
pub fn replay_records(
    machine_size: u32,
    records: &[JournalRecord],
    spec: &SchedulerSpec,
) -> Result<ServiceReport, ReplayError> {
    // The job table, indexed by dense ids: verbatim, as admitted
    // (`read_journal` checked each job against the machine). A record the
    // admission path could not have written is refused, as in recovery.
    let mut jobs = Vec::new();
    let mut eng: Engine<Event> = Engine::new();
    for (rank, rec) in records.iter().enumerate() {
        let known = jobs.len() as u32;
        let event = match *rec {
            JournalRecord::Submit { job, .. } if job.id.0 != known => {
                return Err(ReplayError::JobIdMismatch {
                    expected: known,
                    found: job.id.0,
                })
            }
            JournalRecord::Cancel { job, .. } if job >= known => {
                return Err(ReplayError::UnknownJob { job })
            }
            JournalRecord::Submit { job, .. } => {
                jobs.push(job);
                Event::Arrive(job.id)
            }
            JournalRecord::Cancel { job, .. } => Event::CancelCmd(JobId(job)),
        };
        eng.schedule_seeded(rec.stamp(), rank as u64, event);
    }
    let faults = FaultPlan::none();
    let mut scheduler = spec.build();
    let mut core = ShardCore::new(
        machine_size,
        AdmissionConfig::default(),
        jobs.len(),
        faults.retry,
        SimTime::ZERO,
        Tracer::disabled(),
        0,
    );
    // Only a cancel that withdrew a waiting job counts, as in recovery:
    // the journal's bytes, not the daemon that wrote them, say whether the
    // job still waited.
    let mut cancelled = 0u64;
    while let Some((_, ev)) = eng.step() {
        if let Event::CancelCmd(id) = ev {
            cancelled += core.state().waiting().iter().any(|j| j.id == id) as u64;
        }
        core.handle(&mut eng, ev, scheduler.as_mut(), &jobs, &[], &faults);
    }
    let fingerprint = service_fingerprint(&core, scheduler.as_ref(), Vec::new());
    let accepted = jobs.len() as u64;
    let run = core.finish(
        &eng,
        scheduler.name().to_string(),
        "session".to_string(),
        &faults,
        Some((accepted - cancelled) as usize),
    );
    let counters = ServiceCounters {
        accepted,
        cancelled,
        ..ServiceCounters::default()
    };
    Ok(ServiceReport::new(run, counters, fingerprint))
}

/// Replays a recorded session through the batch DES driver with the
/// given scheduler recipe, reproducing the live run's schedules exactly
/// (same starts, same completions, same SLDwA). `dir` is a journal
/// directory; the machine size comes from the segment headers. The
/// scheduler must match the recipe the daemon ran (also recorded in the
/// headers, as [`crate::journal::JournalDir::scheduler`]).
pub fn replay_session(dir: &Path, spec: &SchedulerSpec) -> Result<ServiceReport, ReplayError> {
    let journal = read_journal(dir)?;
    replay_records(journal.machine_size, &journal.records, spec)
}
