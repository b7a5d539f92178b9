//! # dynp-core — the self-tuning dynP job scheduler
//!
//! The paper's contribution: a scheduler for planning-based resource
//! management systems that *switches the active scheduling policy
//! dynamically at run time*. At every scheduling event it
//!
//! 1. computes a full schedule for each available policy
//!    ([`dynp_rms::Planner`]),
//! 2. scores each schedule with a performance metric
//!    ([`dynp_metrics::Objective`]),
//! 3. lets a **decider** pick the policy to use next.
//!
//! Three deciders are implemented ([`DeciderKind`]):
//!
//! * **simple** — plain argmin with FCFS → SJF → LJF tie-break; the prior
//!   work baseline whose four wrong tie decisions the paper's Table 1
//!   catalogues (module [`table1`] reproduces that analysis);
//! * **advanced** — the "fair" decider: argmin that stays with the old
//!   policy whenever it ties for best;
//! * **preferred** — the paper's new "unfair" decider: a designated
//!   preferred policy is kept unless another policy is *clearly* better,
//!   and is returned to as soon as it performs at least equally.
//!
//! [`SelfTuningScheduler`] packages the loop behind the
//! [`dynp_rms::Scheduler`] trait so the same simulation driver runs
//! static baselines and dynP side by side.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod compare;
mod decider;
mod history;
mod self_tuning;
pub mod table1;

pub use decider::DeciderKind;
pub use dynp_rms::SwitchStats;
pub use history::{PolicyHistory, PolicySegment};
pub use self_tuning::{DecideOn, DynPConfig, SelfTuningScheduler};
