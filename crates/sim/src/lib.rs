//! # dynp-sim — the experiment harness
//!
//! Binds the substrates together and regenerates the paper's evaluation:
//!
//! * [`simulate`] and [`simulate_chaos`] — run one job set through one
//!   scheduler on the discrete event engine and measure the result; the
//!   second adds reservation requests, faults and a tracer;
//! * [`SchedulerSpec`] — serializable scheduler specifications (static
//!   policies, dynP with any decider) so experiments are data;
//! * [`Experiment`] — parameter sweeps over traces × shrinking factors ×
//!   schedulers with multi-set replication, worker-thread execution and
//!   the paper's drop-min/max combination;
//! * [`run_federation`] — multi-cluster runs: routing, migration and
//!   per-cluster [`shard`]s stepped in epochs;
//! * [`study`] — the paper's tables and the ablations as values, and the
//!   one renderer of their tables;
//! * [`report`] — text/CSV/gnuplot rendering of result tables;
//! * [`cli`] — the one command-line reader of every bin.
//!
//! The bins in `src/bin/` (DESIGN.md §3): `experiment NAME` runs one
//! study — `table1`, `table2`, `table4` (Figures 1–2), `table5` (Table 3,
//! Figures 3–4), the ablations `ablation_preferred`,
//! `ablation_threshold`, `ablation_step`, `ablation_queue_vs_planning`,
//! `ablation_reservations`, `ablation_faults`, and `sweep` over any
//! line-up; `figures` draws their `fig*.dat` files as SVG;
//! `history_report`, `trace_report`, `federation` and `gen_workload` are
//! tools around single runs.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod cli;
mod codec;
mod experiment;
mod federation;
mod feed;
pub mod paper_ref;
pub mod report;
mod runner;
pub mod shard;
mod spec;
pub mod study;
pub mod svg;

pub use codec::{decode_snapshot, encode_snapshot, SNAPSHOT_VERSION};
pub use experiment::{Cell, CellResult, Experiment, ExperimentResult, FaultLoad, ReservationLoad};
pub use federation::{
    run_federation, ClusterSpec, FederationConfig, FederationResult, LinkModel, RoutePolicy,
};
pub use feed::FeedCursors;
pub use runner::{
    simulate, simulate_chaos, ChaosDriver, DetailedRun, ReservationReport, RunObservations,
    RunResult, SimSnapshot,
};
pub use shard::{CoreSnapshot, Event, ShardCore};
pub use spec::{parse_scheduler, render_scheduler, SchedulerSpec};
