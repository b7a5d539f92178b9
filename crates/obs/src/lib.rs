//! # dynp-obs — observability substrate for the dynP reproduction
//!
//! The self-tuning dynP scheduler's whole argument rests on *why* it
//! switches policy: per-policy SLDwA scores feed a decider, the decider
//! picks a policy, the policy reorders the queue. End-of-run aggregates
//! (SLDwA, switch counts) say *that* this happened; this crate records
//! *each* of those steps as a typed [`TraceEvent`] so a single decision
//! can be inspected, timed, and explained after the fact.
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** A disabled [`Tracer`] is a
//!    `None`; every record call is one branch on it and no clock is
//!    read. Simulation results are bit-identical with tracing on or off
//!    (asserted by a property test in the umbrella crate) — the tracer
//!    only *observes*, it never feeds back into scheduling.
//! 2. **Bounded memory.** Records land in a ring buffer of fixed
//!    capacity; on overflow the oldest record is dropped and counted,
//!    never reallocated without bound.
//! 3. **No dependency cycles.** This crate sits directly above
//!    `dynp-des` (for [`SimTime`](dynp_des::SimTime)) and below
//!    everything else; domain types cross the boundary as `&'static
//!    str` labels (`Policy::name()`, `RejectReason::label()`), so `rms`,
//!    `core` and `sim` can all emit events without `obs` knowing their
//!    types.
//!
//! Two sink formats serialize a finished trace ([`sink`]):
//!
//! * **JSONL** — one self-describing JSON object per record, the
//!   machine-readable audit log `trace_report` post-processes;
//!   [`parse`] reads it back, and golden lines plus a round-trip test
//!   over every kind pin the format.
//! * **Chrome trace-event format** — load the file in `chrome://tracing`
//!   (or <https://ui.perfetto.dev>) to see plan/decide/admission phases
//!   as wall-clock spans with the simulation time attached to each.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod event;
pub mod parse;
pub mod sink;
#[cfg(test)]
mod testing;
mod tracer;

pub use event::{TraceClass, TraceEvent, TraceLevel, TraceRecord};
pub use parse::{parse_jsonl, Json, ParsedEvent, ParsedRecord};
pub use sink::{render_chrome_trace, render_jsonl, write_chrome_trace, write_jsonl};
pub use tracer::{SpanGuard, TraceSnapshot, Tracer};
