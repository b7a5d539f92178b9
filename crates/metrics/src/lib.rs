//! # dynp-metrics — scheduling performance metrics
//!
//! Implements every metric the paper defines (§4.1):
//!
//! * job slowdown `s = response / run time = 1 + wait / run time`,
//! * bounded slowdown `s⁶⁰ = max(response / max(run time, 60), 1)`,
//! * **SLDwA** — slowdown weighted by job area (area = run time ×
//!   requested resources), the paper's headline metric:
//!   `SLDwA = (Σ aᵢ·sᵢ) / (Σ aᵢ)`,
//! * **ARTwW** — average response time weighted by job width,
//! * utilization,
//!
//! in three layers:
//!
//! * [`slowdown`] and [`bounded_slowdown`] — per-completed-job quantities,
//! * [`SimMetrics`] — job-set level results measured from a finished
//!   simulation,
//! * [`Objective`] — evaluation of *planned* schedules, the single value
//!   per policy the dynP decider compares,
//! * [`CombinedMetrics`] — the paper's multi-set result combiner: drop the
//!   best and worst of the K runs, average the rest,
//! * [`ReservationStats`] — advance-reservation admission counters
//!   (acceptance rate, booked-area utilization),
//! * [`FaultStats`] — fault-injection counters (outages, evictions,
//!   retries, lost jobs, downtime),
//! * [`FederatedMetrics`] — multi-cluster aggregation: per-cluster
//!   [`ClusterReport`]s and the area-weighted federation-wide combine.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod aggregate;
mod combine;
mod faults;
mod federation;
mod job_metrics;
mod latency;
mod objective;
mod percentiles;
mod reservations;
pub mod timeline;

pub use aggregate::SimMetrics;
pub use combine::CombinedMetrics;
pub use faults::FaultStats;
pub use federation::{ClusterReport, FederatedMetrics};
pub use job_metrics::{bounded_slowdown, slowdown};
pub use latency::LatencyHistogram;
pub use objective::Objective;
pub use percentiles::{OutcomeDistributions, QuantileStats};
pub use reservations::ReservationStats;
