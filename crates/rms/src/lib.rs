//! # dynp-rms — a planning-based resource management substrate
//!
//! The dynP scheduler is defined on top of a *planning based* RMS (the
//! paper's CCS, classified in Hovestadt et al. 2003): unlike queuing
//! systems, a planning based RMS "schedules the present and future
//! resource usage, so that newly submitted jobs are placed in the active
//! schedule as soon as possible and they get a start time assigned. With
//! this approach backfilling is done implicitly."
//!
//! This crate provides that substrate from scratch:
//!
//! * [`Profile`] — the free-capacity timeline over future time: two
//!   flat vectors planners sweep for start-time slots, with a memo that
//!   starts most sweeps at the plan's frontier ([`NaiveProfile`] is the
//!   independent memo-less oracle);
//! * [`Policy`] — the queue-ordering policies: FCFS, SJF, LJF (the
//!   paper's three) plus SAF/LAF extensions;
//! * [`Schedule`] — a full schedule (planned start time for every waiting
//!   job) with validation of the no-overcommit invariant;
//! * [`Planner`] — the earliest-fit planner that builds a full schedule
//!   for a queue in policy order (implicit backfilling);
//!   [`ReferencePlanner`] is its from-scratch oracle;
//! * [`RmsState`] — the job life-cycle state machine of the RMS: waiting →
//!   running → completed, with processor accounting;
//! * [`Scheduler`] — the abstraction the simulation driver calls at every
//!   event, and [`StaticScheduler`], the single-policy scheduler the
//!   paper uses as baseline ([`EasyBackfillScheduler`] is the queuing
//!   system's counterpart);
//! * [`ReservationBook`] — advance-reservation windows and the book the
//!   RMS state owns;
//! * [`AdmissionController`] — feasibility-checked admission of
//!   reservation requests: capacity against the base profile, guarantee
//!   preservation against promised job starts.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod admission;
mod easy;
mod naive;
mod planner;
mod policy;
mod profile;
mod reservation;
mod schedule;
mod scheduler;
mod state;

pub use admission::{AdmissionConfig, AdmissionController, RejectReason};
pub use easy::EasyBackfillScheduler;
pub use naive::NaiveProfile;
pub use planner::{
    DelayWeight, PlanCounters, PlanTiming, Planner, Prune, ReferencePlanner, PARALLEL_MIN_DEPTH,
    RETAIN_MIN_DEPTH,
};
pub use policy::Policy;
pub use profile::Profile;
pub use reservation::{RepairAction, Reservation, ReservationBook};
pub use schedule::{PlannedJob, Schedule};
pub use scheduler::{ReplanReason, Scheduler, SchedulerSnapshot, StaticScheduler, SwitchStats};
pub use state::{CompletedJob, LostJob, QueueChange, QueueLog, RmsState, RunningJob};
