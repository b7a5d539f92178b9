//! # dynp-suite — a reproduction of the self-tuning dynP job scheduler
//!
//! Umbrella crate re-exporting the whole workspace, so examples and
//! downstream users need a single dependency:
//!
//! * [`des`] — discrete-event simulation kernel,
//! * [`workload`] — job model, SWF I/O, synthetic trace models,
//! * [`rms`] — planning-based resource management substrate,
//! * [`metrics`] — SLDwA, utilization and friends,
//! * [`core`] — the self-tuning dynP scheduler and its deciders,
//! * [`sim`] — simulation runner and experiment harness,
//! * [`serve`] — real-time service mode (daemon, wire protocol,
//!   write-ahead journal and crash recovery).
//!
//! ## Quickstart
//!
//! ```
//! use dynp_suite::prelude::*;
//!
//! // A small synthetic KTH-like workload…
//! let set = dynp_suite::workload::traces::kth().generate(200, 42);
//!
//! // …scheduled statically with SJF…
//! let mut sjf = StaticScheduler::new(Policy::Sjf);
//! let sjf_result = simulate(&set, &mut sjf);
//!
//! // …and by the self-tuning dynP scheduler with the paper's new
//! // SJF-preferred decider.
//! let mut dynp = SelfTuningScheduler::new(DynPConfig::paper(
//!     DeciderKind::Preferred { policy: Policy::Sjf, threshold: 0.0 },
//! ));
//! let dynp_result = simulate(&set, &mut dynp);
//!
//! assert_eq!(sjf_result.result.metrics.jobs, 200);
//! assert_eq!(dynp_result.result.metrics.jobs, 200);
//! ```
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use dynp_core as core;
pub use dynp_des as des;
pub use dynp_metrics as metrics;
pub use dynp_obs as obs;
pub use dynp_rms as rms;
pub use dynp_serve as serve;
pub use dynp_sim as sim;
pub use dynp_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use dynp_core::{DecideOn, DeciderKind, DynPConfig, SelfTuningScheduler};
    pub use dynp_des::{SimDuration, SimTime};
    pub use dynp_metrics::{Objective, ReservationStats, SimMetrics};
    pub use dynp_obs::Tracer;
    pub use dynp_rms::{
        AdmissionConfig, AdmissionController, Policy, RejectReason, ReplanReason, Reservation,
        RmsState, Scheduler, StaticScheduler,
    };
    pub use dynp_sim::{
        run_federation, simulate, simulate_chaos, ClusterSpec, DetailedRun, Experiment,
        FederationConfig, LinkModel, ReservationLoad, RoutePolicy, SchedulerSpec,
    };
    pub use dynp_workload::{
        FaultPlan, Job, JobId, JobSet, MultiClusterWorkload, ReservationModel, ReservationRequest,
        TraceModel,
    };
}
