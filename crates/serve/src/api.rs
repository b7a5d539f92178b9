//! The typed in-process service API.
//!
//! Clients call the daemon through a
//! [`ServiceHandle`](crate::daemon::ServiceHandle), whose methods take
//! and return these types on the caller's thread. The newline-delimited
//! JSON protocol ([`crate::proto`]) is a thin codec over exactly these
//! types.

use crate::journal::{FsyncPolicy, ServiceCounters, DEFAULT_ROTATE_BYTES};
use dynp_des::{SimDuration, SimTime};
use dynp_obs::Tracer;
use dynp_sim::{DetailedRun, SchedulerSpec};
use std::path::PathBuf;

/// One job submission: what the user asks for. The daemon assigns the
/// job id and stamps the submission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Requested processors.
    pub width: u32,
    /// Requested (estimated) run time.
    pub estimate: SimDuration,
    /// Actual run time. A real RMS learns this when the job exits; the
    /// service model carries it up front so the simulated execution
    /// completes on its own — the digital-twin analogue of the SWF run
    /// time field.
    pub actual: SimDuration,
    /// Submitting user (load-generator bookkeeping; not scheduled on).
    pub user: u32,
}

/// Why a submission was turned away by backpressure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadReason {
    /// The bounded waiting queue is at capacity.
    QueueFull,
    /// The daemon is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The submitting user is over their admission quota (token bucket)
    /// or over their fair share while the queue is congested. Other
    /// users' submissions are still being accepted.
    UserQuota,
}

impl OverloadReason {
    /// Stable wire label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            OverloadReason::QueueFull => "queue_full",
            OverloadReason::ShuttingDown => "shutting_down",
            OverloadReason::UserQuota => "user_quota",
        }
    }
}

/// A rejected submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Typed backpressure: the request was well-formed but the service
    /// refuses it right now. Retry later (or elsewhere).
    Overload(OverloadReason),
    /// The request itself is unusable (zero width, wider than the
    /// machine, …). Retrying unchanged will never succeed.
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overload(r) => write!(f, "overloaded: {}", r.label()),
            SubmitError::Invalid(why) => write!(f, "invalid submission: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Receipt for an accepted submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// The assigned job id (dense, in acceptance order — also the job's
    /// id in the session log's replay).
    pub job: u32,
    /// Service-clock instant the submission was admitted at.
    pub admitted_at: SimTime,
}

/// A point-in-time view of the service.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStatus {
    /// Current service-clock time.
    pub now: SimTime,
    /// Jobs waiting in the queue.
    pub waiting: usize,
    /// Jobs running on the machine.
    pub running: usize,
    /// Jobs completed so far.
    pub completed: usize,
    /// Jobs lost to faults (always 0 without fault injection).
    pub lost: usize,
    /// Submissions accepted since start.
    pub accepted: u64,
    /// Submissions rejected since start (overload + invalid).
    pub rejected: u64,
    /// Free processors right now.
    pub free_processors: u32,
    /// Machine size.
    pub machine_size: u32,
    /// True once shutdown has begun.
    pub draining: bool,
}

/// A reply to one request, as the wire protocol renders it.
#[derive(Clone, Debug)]
pub enum Reply {
    /// The submission was admitted.
    Accepted(Ticket),
    /// The submission was refused.
    Rejected(SubmitError),
    /// Outcome of a cancel: `found` is false when the job was not
    /// waiting (already started, finished, or never existed).
    Cancelled {
        /// The job the cancel named.
        job: u32,
        /// Whether a waiting job was actually withdrawn.
        found: bool,
    },
    /// Status snapshot.
    Status(ServiceStatus),
    /// Shutdown acknowledged; the daemon is draining.
    Draining,
}

/// Per-user admission quota: a token bucket refilled in service time.
///
/// Every accepted submission costs 1000 millitokens; a user's bucket
/// refills at `rate_mtok_per_sec` millitokens per simulation second up
/// to `burst_mtok`. A rate of 0 disables quota enforcement entirely
/// (the default — quotas are opt-in overload control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Refill rate in millitokens per simulation second (1000 = one
    /// submission per second sustained). 0 disables quotas.
    pub rate_mtok_per_sec: u64,
    /// Bucket capacity in millitokens (the burst allowance).
    pub burst_mtok: u64,
}

impl QuotaConfig {
    /// Quotas off (the default).
    pub fn disabled() -> QuotaConfig {
        QuotaConfig {
            rate_mtok_per_sec: 0,
            burst_mtok: 0,
        }
    }

    /// True when quota enforcement is active.
    pub(crate) fn enabled(&self) -> bool {
        self.rate_mtok_per_sec > 0
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Machine size in processors.
    pub machine_size: u32,
    /// Scheduler recipe — the same [`SchedulerSpec`] batch experiments
    /// use, so live and replayed runs build identical schedulers.
    pub scheduler: SchedulerSpec,
    /// Bounded-queue backpressure: submissions arriving while this many
    /// jobs are already waiting are rejected with
    /// [`OverloadReason::QueueFull`].
    pub max_queue: usize,
    /// Service-clock scale: simulation milliseconds per wall
    /// millisecond. 1 is real time; larger values run second-scale
    /// workloads in millisecond wall time (tests, smoke runs).
    pub speedup: u64,
    /// Journal directory for the durable WAL + checkpoints (None = no
    /// durability; the daemon is then not crash-safe).
    pub journal: Option<PathBuf>,
    /// When journal writes reach disk (see
    /// [`crate::journal::FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Checkpoint cadence: write a checkpoint every N journaled records
    /// (0 = only at segment rotations).
    pub checkpoint_every: u64,
    /// Journal segment rotation threshold in bytes.
    pub rotate_bytes: u64,
    /// Delete rotated segments once a checkpoint fully covers them.
    pub compact: bool,
    /// Per-user admission quotas (see [`QuotaConfig`]).
    pub quota: QuotaConfig,
    /// Tracer threaded through the scheduler and driver, exactly as in
    /// batch runs.
    pub tracer: Tracer,
}

impl ServiceConfig {
    /// A config with conventional defaults: queue bound 1024, real-time
    /// clock, no journal, fsync-always, 1 MiB segments, checkpoint at
    /// rotation only, no compaction, quotas off, tracing off.
    pub fn new(machine_size: u32, scheduler: SchedulerSpec) -> ServiceConfig {
        ServiceConfig {
            machine_size,
            scheduler,
            max_queue: 1024,
            speedup: 1,
            journal: None,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 0,
            rotate_bytes: DEFAULT_ROTATE_BYTES,
            compact: false,
            quota: QuotaConfig::disabled(),
            tracer: Tracer::disabled(),
        }
    }
}

/// What the daemon returns when it exits.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// The finished run, measured exactly like a batch simulation (the
    /// drained session satisfies the same invariants: conservation,
    /// empty queue, idle machine).
    pub run: DetailedRun,
    /// Submissions accepted.
    pub accepted: u64,
    /// Submissions rejected with [`OverloadReason::QueueFull`].
    pub rejected_queue_full: u64,
    /// Submissions rejected with [`OverloadReason::ShuttingDown`].
    pub rejected_shutdown: u64,
    /// Submissions rejected as invalid.
    pub rejected_invalid: u64,
    /// Submissions rejected with [`OverloadReason::UserQuota`].
    pub rejected_user_quota: u64,
    /// Waiting jobs withdrawn by cancel commands.
    pub cancelled: u64,
    /// Fingerprint of the service state at drain time — hashes the core
    /// and scheduler snapshots plus the remaining timer entries (not the
    /// wall clock or dispatch counters, which status queries perturb).
    /// `None` when the scheduler does not support snapshotting.
    pub fingerprint: Option<u128>,
}

impl ServiceReport {
    /// A finished run with the service counters it ended on.
    pub(crate) fn new(run: DetailedRun, c: ServiceCounters, fingerprint: Option<u128>) -> Self {
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
}
