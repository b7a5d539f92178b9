//! dynp-mc — exhaustive model checker for the chaos + reservation
//! protocols, built on snapshotable driver state.
//!
//! Simulation runs in this workspace are deterministic, but determinism
//! only certifies *one* event order per input. The protocols' actual
//! promises — no stale completion is ever honored, reservations survive
//! node loss via downgrade/revoke repair, jobs are never lost or
//! duplicated — quantify over every order of same-instant events: a
//! node failure tied with a job finish, a cancellation tied with a
//! window start. This crate checks those orders *exhaustively* for
//! small closed configurations:
//!
//! * [`Scenario`] — derives tiny deterministic worlds (machine, jobs,
//!   outages, reservations) whose instants deliberately collide.
//! * [`explore()`] — walks every reachable interleaving by snapshotting
//!   the full driver state ([`dynp_sim::SimSnapshot`]), branching at
//!   ties, and pruning revisits by 128-bit state fingerprint. DFS or BFS;
//!   BFS finds shortest counterexamples. A dependency resolver proves
//!   most tied events commute (stale attempt tags, dead windows,
//!   reservation starts) so the branching factor stays near 1 except at
//!   genuine races.
//! * [`dynp_sim::check_state`] — the one state check, the same a decoded
//!   snapshot or checkpoint must pass, run on every explored state, plus
//!   the driver's own terminal asserts at drained leaves.
//! * [`shrink()`] — greedy delta-debugging: deletes scenario elements one
//!   at a time while the violation persists, yielding a 1-minimal
//!   counterexample with a deterministic replay schedule.
//!
//! The `model_check` binary wraps all of this for CI: it explores a
//! configuration matrix, exits non-zero on violation, and dumps the
//! shrunk scenario plus a `dynp-obs` trace of the violating replay.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod deps;
mod explore;
mod scenario;
mod shrink;

pub use explore::{explore, replay, Exploration, ExploreConfig, ExploreStats, Strategy, Violation};
pub use scenario::{Scenario, ScenarioConfig};
pub use shrink::{shrink, ShrinkResult};

use dynp_rms::Scheduler;
use dynp_sim::parse_scheduler;

/// A factory producing a fresh scheduler per exploration.
pub type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

/// The scheduler named by `--scheduler`, in the spelling of
/// [`dynp_sim::parse_scheduler`]: e.g. `FCFS` (the static baseline,
/// minimal cross-event state) or `dynp` (the paper's self-tuning
/// scheduler with the advanced decider, maximal cross-event state —
/// policy history, decider bookkeeping, queue log).
///
/// Returns a factory producing a fresh scheduler per exploration.
pub fn scheduler_factory(name: &str) -> Result<SchedulerFactory, String> {
    let spec = parse_scheduler(name)?;
    Ok(Box::new(move || spec.build()))
}
