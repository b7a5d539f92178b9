//! # dynp-workload — parallel job workloads for scheduler evaluation
//!
//! The paper evaluates the self-tuning dynP scheduler on four synthetic job
//! sets "based on traces from the Parallel Workload Archive" (CTC, KTH,
//! LANL, SDSC). This crate is the workload substrate:
//!
//! * [`job`] — the job model: a job is (submission time, width = requested
//!   processors, length = estimated run time) plus the actual run time
//!   needed by the simulation, exactly as defined in §4.2 of the paper;
//! * [`swf`] — reader/writer for the Standard Workload Format used by the
//!   Parallel Workload Archive, so real traces can be dropped in;
//! * [`dist`] — distribution toolbox (log-uniform, weighted discrete,
//!   user-estimate accuracy mixtures);
//! * [`regime`] — regime-switching user-session model: the temporal
//!   non-uniformity (interactive bursts, batch phases, parameter studies)
//!   that policy switching exploits;
//! * [`TraceModel`] — the synthetic generator assembling regimes into job
//!   sets with a calibrated mean interarrival time;
//! * [`lublin`] — a Lublin–Feitelson-style parametric model with a
//!   sinusoidal daily arrival cycle, as an alternative input family;
//! * [`traces`] — models calibrated to the published Table 2 statistics of
//!   the four traces;
//! * [`MultiClusterWorkload`] — multi-cluster workload streams: merges
//!   per-cluster job sets into one global arrival order with an origin
//!   map, the input of the federation routing layer;
//! * [`ReservationModel`] — advance-reservation request streams
//!   ([`ReservationRequest`]): a synthetic Poisson generator calibrated to
//!   a target booked-area fraction;
//! * [`FaultModel`] — deterministic fault-injection traces ([`FaultPlan`]):
//!   seeded node outage renewal processes plus per-job crash/overrun
//!   draws and the [`RetryPolicy`] the RMS applies to failed attempts;
//! * [`transform`] — the shrinking-factor workload scaling of §4.2 plus
//!   job-set utilities;
//! * [`TraceStats`] — trace statistics (regenerates Table 2 for our
//!   inputs).
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod dist;
mod fault;
pub mod job;
pub mod lublin;
mod model;
mod multi;
pub mod regime;
mod reservation;
mod stats;
pub mod swf;
pub mod traces;
pub mod transform;

pub use fault::{FaultKind, FaultModel, FaultPlan, NodeOutage, RetryPolicy};
pub use job::{Job, JobError, JobId, JobSet};
pub use model::TraceModel;
pub use multi::MultiClusterWorkload;
pub use reservation::{ReservationModel, ReservationRequest};
pub use stats::TraceStats;
pub use traces::{ctc, kth, lanl, sdsc, standard_models};
pub use transform::shrink;
