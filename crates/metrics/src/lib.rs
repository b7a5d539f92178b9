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
//! * [`job_metrics`] — per-completed-job quantities,
//! * [`aggregate`] — job-set level results ([`SimMetrics`]) measured from
//!   a finished simulation,
//! * [`objective`] — evaluation of *planned* schedules, the single value
//!   per policy the dynP decider compares,
//! * [`combine`] — the paper's multi-set result combiner: drop the best
//!   and worst of the K runs, average the rest,
//! * [`reservations`] — advance-reservation admission counters (acceptance
//!   rate, booked-area utilization),
//! * [`faults`] — fault-injection counters (outages, evictions, retries,
//!   lost jobs, downtime),
//! * [`federation`] — multi-cluster aggregation: per-cluster reports and
//!   the area-weighted federation-wide combine.
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod combine;
pub mod faults;
pub mod federation;
pub mod job_metrics;
pub mod latency;
pub mod objective;
pub mod percentiles;
pub mod reservations;
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
