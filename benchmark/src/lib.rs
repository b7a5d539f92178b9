//! # dynp-benchmark
//!
//! One benchmark for the batch simulator and the service daemon: six
//! workloads, end-to-end metrics from an untraced run, and a per-layer
//! budget from a separate traced run — all measured from outside the
//! program (see `README.md` beside this crate).

pub mod alloc;
pub mod batch;
pub mod digest;
pub mod hostspeed;
pub mod micro;
pub mod probe;
pub mod procfs;
pub mod report;
pub mod runner;
pub mod service;
pub mod stats;
pub mod sys;
