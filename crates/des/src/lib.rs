//! # dynp-des — deterministic discrete-event simulation kernel
//!
//! This crate is the simulation substrate for the dynP reproduction. The
//! paper evaluates the self-tuning dynP scheduler "with means of a discrete
//! event simulation environment"; this crate provides that environment:
//!
//! * [`SimTime`] / [`SimDuration`] — integer millisecond simulation time
//!   with exact, total ordering (no floating-point drift in event order),
//! * [`queue::EventQueue`] — the pending-event-set abstraction with two
//!   backends: a binary heap ([`queue::BinaryHeapQueue`]) and a classic
//!   dynamically-resizing calendar queue ([`queue::CalendarQueue`]),
//! * [`Engine`] — the event loop: schedule events, pop them in
//!   (time, insertion-order) order, advance the clock monotonically,
//! * [`clock`] — the same engine under a wall clock
//!   ([`WallClockSource`]): timers fire when the wall reaches them,
//!   and a live external and a journaled one take the same step — every
//!   timer before its stamp, then the external,
//! * [`codec`] — the one byte layout of every durable format: integers,
//!   lists, and the checksummed envelope,
//! * [`stats`] — exact time-weighted averages of step signals (queue
//!   length, busy processors), kept without storing every sample.
//!
//! Determinism is a design requirement: two events scheduled for the same
//! time are always delivered in insertion (FIFO) order, regardless of the
//! queue backend, so simulation results are exactly reproducible.
//!
//! ```
//! use dynp_des::{Engine, SimTime, SimDuration};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_at(SimTime::from_secs(5), "world");
//! engine.schedule_at(SimTime::from_secs(1), "hello");
//! let mut seen = Vec::new();
//! engine.run(|eng, ev| {
//!     seen.push((eng.now(), ev));
//! });
//! assert_eq!(seen[0], (SimTime::from_secs(1), "hello"));
//! assert_eq!(seen[1], (SimTime::from_secs(5), "world"));
//! ```
#![forbid(unsafe_code)]

pub mod clock;
pub mod codec;
pub mod engine;
pub mod queue;
pub mod stats;
pub mod time;

pub use clock::WallClockSource;
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use engine::{Engine, EngineSnapshot};
pub use queue::{BinaryHeapQueue, CalendarQueue, EventQueue, SEEDED_SEQ_LIMIT};
pub use stats::TimeWeightedCount;
pub use time::{SimDuration, SimTime};
