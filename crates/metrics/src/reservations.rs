//! Advance-reservation admission metrics.
//!
//! The admission subsystem produces a second result axis next to the job
//! metrics: how much of the offered booking pressure was admitted
//! ([`ReservationStats::acceptance_rate`]), how much machine area the
//! honored windows actually occupied, and — combined with the job-side
//! SLDwA — what the guarantees cost the batch workload.

use serde::{Deserialize, Serialize};

/// Counters accumulated over one simulated reservation stream.
///
/// Every field is an exact integer so the struct is `Hash + Eq` — it
/// lives on the driver's snapshot path. Areas are counted in exact
/// processor-milliseconds; the float processor-second views are derived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReservationStats {
    /// Requests offered to the admission controller.
    pub requests: u64,
    /// Requests admitted into the book.
    pub admitted: u64,
    /// Rejections because the window did not fit the free capacity.
    pub rejected_capacity: u64,
    /// Rejections because admitting would push a promised job start past
    /// its guarantee.
    pub rejected_guarantee: u64,
    /// Rejections for malformed requests (zero/oversized width, window in
    /// the past).
    pub rejected_invalid: u64,
    /// Admitted windows withdrawn by their user before they started.
    pub cancelled: u64,
    /// Admitted windows that ran to completion (started and ended).
    pub honored: u64,
    /// Admitted windows shrunk (best-effort) by schedule repair after a
    /// capacity loss. A downgraded window still counts as honored if it
    /// runs to completion at its reduced width.
    pub downgraded: u64,
    /// Admitted windows cancelled *by the system* because schedule repair
    /// found no width at which they still fit the degraded machine.
    pub revoked: u64,
    /// Processor-milliseconds requested across all requests (exact).
    pub requested_area_pms: u64,
    /// Processor-milliseconds across admitted windows (exact).
    pub admitted_area_pms: u64,
}

impl ReservationStats {
    /// Admitted / offered requests; 1 for an empty stream (nothing was
    /// refused).
    pub fn acceptance_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.admitted as f64 / self.requests as f64
        }
    }

    /// Admitted / requested processor-seconds; 1 for an empty stream.
    pub fn area_acceptance_rate(&self) -> f64 {
        if self.requested_area_pms == 0 {
            1.0
        } else {
            self.admitted_area_pms as f64 / self.requested_area_pms as f64
        }
    }

    /// Total rejections, any reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_capacity + self.rejected_guarantee + self.rejected_invalid
    }

    /// Accumulates another run's counters into this one (for per-cell
    /// aggregation over replicated job sets).
    pub fn merge(&mut self, other: &ReservationStats) {
        self.requests += other.requests;
        self.admitted += other.admitted;
        self.rejected_capacity += other.rejected_capacity;
        self.rejected_guarantee += other.rejected_guarantee;
        self.rejected_invalid += other.rejected_invalid;
        self.cancelled += other.cancelled;
        self.honored += other.honored;
        self.downgraded += other.downgraded;
        self.revoked += other.revoked;
        self.requested_area_pms += other.requested_area_pms;
        self.admitted_area_pms += other.admitted_area_pms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_has_perfect_rates() {
        let s = ReservationStats::default();
        assert_eq!(s.acceptance_rate(), 1.0);
        assert_eq!(s.area_acceptance_rate(), 1.0);
    }

    #[test]
    fn rates_reflect_counters() {
        let s = ReservationStats {
            requests: 10,
            admitted: 7,
            rejected_capacity: 2,
            rejected_guarantee: 1,
            requested_area_pms: 1_000_000,
            admitted_area_pms: 650_000,
            ..Default::default()
        };
        assert!((s.acceptance_rate() - 0.7).abs() < 1e-12);
        assert!((s.area_acceptance_rate() - 0.65).abs() < 1e-12);
        assert_eq!(s.rejected(), 3);
    }
}
