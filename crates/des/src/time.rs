//! Simulation time: integer milliseconds with exact ordering.
//!
//! Workload traces record times in whole seconds, but the *shrinking
//! factor* transform of the paper multiplies submission times by factors
//! such as 0.7, producing fractional seconds. Millisecond resolution keeps
//! the transform exact enough while staying in integer arithmetic, so event
//! ordering is total and reproducible across platforms.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Milliseconds per second, the scaling factor between trace seconds and
/// internal ticks.
pub(crate) const MILLIS_PER_SEC: u64 = 1_000;

/// An absolute instant on the simulation clock, in milliseconds since the
/// start of the simulation (time zero).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A non-negative span of simulation time, in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far"
    /// horizon sentinel by the capacity profile.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from whole seconds (the unit used in workload
    /// traces).
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MILLIS_PER_SEC)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * MILLIS_PER_SEC as f64).round() as u64)
    }

    /// Raw milliseconds since time zero.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since time zero as a float (for metric computation and
    /// reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later
    /// (saturating, never panics).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (sticks at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MILLIS_PER_SEC)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// millisecond; negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * MILLIS_PER_SEC as f64).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The span in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// True for the zero-length span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative factor, rounding to the
    /// nearest millisecond (used by the shrinking-factor transform).
    pub fn scale(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative scale factor");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_conversion_round_trips() {
        let t = SimTime::from_secs(42);
        assert_eq!(t.as_millis(), 42_000);
        assert_eq!(t.as_secs_f64(), 42.0);
    }

    #[test]
    fn fractional_seconds_round_to_nearest_millisecond() {
        assert_eq!(SimTime::from_secs_f64(1.0005).as_millis(), 1001);
        assert_eq!(SimTime::from_secs_f64(1.0004).as_millis(), 1000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
    }

    #[test]
    fn negative_float_inputs_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_identities() {
        let a = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(a + d - d, a);
        assert_eq!((a + d) - a, d);
        assert_eq!(d + d - d, d);
    }

    #[test]
    fn saturating_since_clamps_at_zero() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn scale_rounds_to_nearest() {
        let d = SimDuration::from_millis(1000);
        assert_eq!(d.scale(0.6).as_millis(), 600);
        assert_eq!(SimDuration::from_millis(3).scale(0.5).as_millis(), 2); // 1.5 rounds to 2
    }

    #[test]
    fn ordering_is_total_and_matches_millis() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(6);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn saturating_add_sticks_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_millis(1)),
            SimTime::MAX
        );
    }
}
