//! Advance-reservation request streams.
//!
//! A planning-based RMS serves two kinds of traffic: batch jobs (the
//! [`crate::job`] model) and *advance-reservation requests* — "give me
//! `width` processors over `[start, start + duration)`", asked `lead`
//! time ahead. This module models the request side of that traffic:
//!
//! * [`ReservationRequest`] — one request, as it arrives at the RMS:
//!   submission instant, requested window, optional cancellation;
//! * [`ReservationModel`] — a synthetic generator producing a request
//!   stream calibrated against a job set: Poisson request arrivals over
//!   the job-set span, log-uniform widths, lengths and lead times, and a
//!   target *booked-area fraction* (requested processor-seconds relative
//!   to the machine's capacity over the span).
//!
//! Whether a request is *admitted* is not decided here — that is the
//! admission controller's feasibility check (`dynp-rms`); the generator
//! only produces the offered stream, exactly as the job models only
//! produce offered load.

use crate::dist::DurationDist;
use crate::job::JobSet;
use dynp_des::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One advance-reservation request as it reaches the RMS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReservationRequest {
    /// Dense request identifier (position in the stream).
    pub id: u32,
    /// When the request arrives at the RMS (the admission instant).
    pub submit: SimTime,
    /// First requested instant (`submit + lead`).
    pub start: SimTime,
    /// Length of the requested window.
    pub duration: SimDuration,
    /// Requested processors.
    pub width: u32,
    /// If set, the user withdraws the (admitted) window at this instant —
    /// always after `submit` and before `start`.
    pub cancel_at: Option<SimTime>,
}

impl ReservationRequest {
    /// Requested processor-milliseconds, exact — the unit the driver's
    /// snapshotable area counters accumulate in.
    pub fn area_pms(&self) -> u64 {
        self.duration.as_millis() * self.width as u64
    }
}

/// Window width as a fraction of the machine (clamped into `(0, 1]` and
/// scaled to processors): quarter-machine-ish.
const WIDTH_FRACTION: DurationDist = DurationDist::LogUniform {
    min: 0.05,
    max: 0.5,
};
/// Window length in seconds: one to a few hours.
const DURATION: DurationDist = DurationDist::LogUniform {
    min: 1_800.0,
    max: 14_400.0,
};
/// Lead time in seconds (how far ahead of its submission a window
/// starts): one hour to a day.
const LEAD: DurationDist = DurationDist::LogUniform {
    min: 3_600.0,
    max: 86_400.0,
};
/// Probability an admitted window is cancelled before it starts.
const CANCEL_PROB: f64 = 0.05;

/// Synthetic reservation-request generator, calibrated against a job set:
/// the maintenance-window / interactive-session mix planning RMSs see.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ReservationModel {
    /// Target requested area as a fraction of the machine's total
    /// capacity over the job-set span (0 disables the stream). The
    /// generator emits requests until their cumulative area reaches this
    /// target — the *offered* booking pressure; the acceptance rate then
    /// falls out of admission.
    pub booked_fraction: f64,
}

impl ReservationModel {
    /// The stream at the given booking pressure: quarter-machine-ish
    /// windows of one to a few hours, asked for half a day ahead, with a
    /// small cancellation rate.
    pub fn typical(booked_fraction: f64) -> Self {
        ReservationModel { booked_fraction }
    }

    /// Generates the request stream for `set`: Poisson (exponential-gap)
    /// arrivals spread over the job-set's submission span, windows sampled
    /// from the fixed width, length and lead distributions above, total
    /// requested area pinned to `booked_fraction × machine × span` (the
    /// same rescaling idiom the job generator uses for interarrival
    /// calibration). Deterministic in `(model, set, seed)`.
    pub fn generate(&self, set: &JobSet, seed: u64) -> Vec<ReservationRequest> {
        if self.booked_fraction <= 0.0 || set.is_empty() {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5265_7365_7276_6521);
        let span = (set.last_submit() - set.first_submit())
            .as_secs_f64()
            .max(1.0);
        let target_area = self.booked_fraction * set.machine_size as f64 * span;

        // Sample window shapes until the offered area reaches the target.
        let mut shapes: Vec<(u32, f64, f64, Option<f64>)> = Vec::new();
        let mut area = 0.0;
        while area < target_area {
            let frac = WIDTH_FRACTION.sample(&mut rng).clamp(1e-6, 1.0);
            let width = ((frac * set.machine_size as f64).ceil() as u32).clamp(1, set.machine_size);
            let duration = DURATION.sample(&mut rng).max(60.0);
            let lead = LEAD.sample(&mut rng).max(1.0);
            let cancel = if rng.gen::<f64>() < CANCEL_PROB {
                // Withdrawn somewhere strictly inside (submit, start).
                Some(rng.gen::<f64>().clamp(0.01, 0.99))
            } else {
                None
            };
            area += width as f64 * duration;
            shapes.push((width, duration, lead, cancel));
        }

        // Poisson arrivals over the span, rescaled so the stream covers it
        // exactly like the job generator pins its mean interarrival.
        let mut gaps: Vec<f64> = (0..shapes.len())
            .map(|_| -(1.0 - rng.gen::<f64>()).ln())
            .collect();
        let total: f64 = gaps.iter().sum();
        if total > 0.0 {
            let k = span / total;
            for g in &mut gaps {
                *g *= k;
            }
        }

        let t0 = set.first_submit().as_secs_f64();
        let mut requests = Vec::with_capacity(shapes.len());
        let mut t = t0;
        for (i, ((width, duration, lead, cancel), gap)) in shapes.into_iter().zip(gaps).enumerate()
        {
            t += gap;
            let submit = SimTime::from_secs_f64(t);
            let start = SimTime::from_secs_f64(t + lead);
            let cancel_at = cancel.map(|f| SimTime::from_secs_f64(t + f * lead));
            requests.push(ReservationRequest {
                id: i as u32,
                submit,
                start,
                duration: SimDuration::from_secs_f64(duration),
                width,
                cancel_at,
            });
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces;

    fn set() -> JobSet {
        traces::ctc().generate(400, 11)
    }

    #[test]
    fn generate_is_deterministic_in_seed() {
        let s = set();
        let m = ReservationModel::typical(0.1);
        let a = m.generate(&s, 3);
        let b = m.generate(&s, 3);
        assert_eq!(a, b);
        let c = m.generate(&s, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_fraction_gives_an_empty_stream() {
        let m = ReservationModel::typical(0.0);
        assert!(m.generate(&set(), 1).is_empty());
    }

    #[test]
    fn requests_respect_invariants() {
        let s = set();
        let m = ReservationModel::typical(0.15);
        let reqs = m.generate(&s, 7);
        assert!(!reqs.is_empty());
        let mut last_submit = SimTime::ZERO;
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u32);
            assert!(r.width >= 1 && r.width <= s.machine_size);
            assert!(!r.duration.is_zero());
            assert!(r.start > r.submit, "windows are asked for in advance");
            assert!(r.submit >= last_submit, "submissions are ordered");
            if let Some(c) = r.cancel_at {
                assert!(c > r.submit && c < r.start);
            }
            last_submit = r.submit;
        }
    }

    #[test]
    fn offered_area_tracks_the_target_fraction() {
        let s = set();
        let span = s
            .last_submit()
            .saturating_since(s.first_submit())
            .as_secs_f64();
        for &frac in &[0.05, 0.2] {
            let m = ReservationModel::typical(frac);
            let reqs = m.generate(&s, 5);
            let offered = reqs.iter().map(|r| r.area_pms()).sum::<u64>() as f64 / 1_000.0;
            let capacity = s.machine_size as f64 * span;
            let got = offered / capacity;
            // The last sampled window overshoots the target by at most
            // one window's area.
            assert!(
                got >= frac && got < frac + 0.1,
                "fraction {frac}: offered {got}"
            );
        }
    }

    #[test]
    fn submissions_spread_over_the_job_span() {
        let s = set();
        let m = ReservationModel::typical(0.2);
        let reqs = m.generate(&s, 9);
        let first = reqs.first().unwrap().submit;
        let last = reqs.last().unwrap().submit;
        assert!(first >= s.first_submit());
        // Rescaled gaps put the last request exactly at the span end.
        let span = s.last_submit().saturating_since(s.first_submit());
        let covered = last.saturating_since(s.first_submit());
        assert!(covered.as_secs_f64() > span.as_secs_f64() * 0.99);
    }
}
