//! Time-weighted statistics for simulation output analysis.
//!
//! [`TimeWeightedCount`] integrates a piecewise-constant integer signal
//! (queue length, busy processors) exactly, in O(1) space.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Exact time-weighted accumulator for an integer-valued step signal.
///
/// The integral is kept as an exact `value × milliseconds` count in a
/// `u128`, so the accumulator is `Hash + Eq` and two runs that saw the
/// same updates are bit-identical — no floating-point summation-order
/// drift. Floats only appear in the
/// final [`TimeWeightedCount::average_until`] division. Used for driver
/// signals that live on the snapshot path (queue length, busy processors).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeWeightedCount {
    last_time: SimTime,
    last_value: u64,
    /// Exact integral: Σ value·dt in value-milliseconds.
    integral_vms: u128,
    start: SimTime,
}

impl TimeWeightedCount {
    /// Creates an accumulator whose signal is `initial` at time `start`.
    pub fn new(start: SimTime, initial: u64) -> Self {
        TimeWeightedCount {
            last_time: start,
            last_value: initial,
            integral_vms: 0,
            start,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    /// Panics (debug) if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: u64) {
        debug_assert!(now >= self.last_time, "time went backwards");
        let dt_ms = now.saturating_since(self.last_time).as_millis();
        self.integral_vms += self.last_value as u128 * dt_ms as u128;
        self.last_time = now;
        self.last_value = value;
    }

    /// The instant the signal starts at.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The instant of the last update; [`TimeWeightedCount::set`] must
    /// never be called before it.
    pub fn last_update(&self) -> SimTime {
        self.last_time
    }

    /// Exact integral of the signal from `start` to `now`, in
    /// value-milliseconds.
    pub(crate) fn integral_vms_until(&self, now: SimTime) -> u128 {
        let dt_ms = now.saturating_since(self.last_time).as_millis();
        self.integral_vms + self.last_value as u128 * dt_ms as u128
    }

    /// Time average of the signal over `[start, now]`; 0 over an empty
    /// interval. The single lossy step: one `u128 → f64` division.
    pub fn average_until(&self, now: SimTime) -> f64 {
        let span_ms = now.saturating_since(self.start).as_millis();
        if span_ms == 0 {
            0.0
        } else {
            self.integral_vms_until(now) as f64 / span_ms as f64
        }
    }

    /// Appends the accumulator's exact state to a checkpoint buffer. The
    /// fields are private by design (the integral must only grow through
    /// [`TimeWeightedCount::set`]), so the durable codec lives here.
    pub fn encode_into(&self, w: &mut crate::codec::ByteWriter) {
        w.u64(self.last_time.as_millis());
        w.u64(self.last_value);
        w.u128(self.integral_vms);
        w.u64(self.start.as_millis());
    }

    /// Decodes state written by [`TimeWeightedCount::encode_into`].
    pub fn decode_from(
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        Ok(TimeWeightedCount {
            last_time: SimTime::from_millis(r.u64()?),
            last_value: r.u64()?,
            integral_vms: r.u128()?,
            start: SimTime::from_millis(r.u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_count_integrates_value_times_dt() {
        // Signal: 0 on [0,10), 4 on [10,20), 2 on [20,40).
        let mut tw = TimeWeightedCount::new(SimTime::ZERO, 0);
        tw.set(SimTime::from_secs(10), 4);
        tw.set(SimTime::from_secs(20), 2);
        // Σ value·Δt in value-milliseconds: 0·10 s + 4·10 s + 2·20 s.
        assert_eq!(
            tw.integral_vms_until(SimTime::from_secs(40)),
            (4 * 10_000 + 2 * 20_000) as u128
        );
        // 80 value-seconds over 40 s.
        assert!((tw.average_until(SimTime::from_secs(40)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.average_until(SimTime::ZERO), 0.0);
    }

    #[test]
    fn time_weighted_count_is_hashable_state() {
        let mut a = TimeWeightedCount::new(SimTime::from_secs(1), 3);
        let mut b = a.clone();
        assert_eq!(a, b);
        a.set(SimTime::from_secs(2), 5);
        assert_ne!(a, b);
        b.set(SimTime::from_secs(2), 5);
        assert_eq!(a, b);
    }
}
