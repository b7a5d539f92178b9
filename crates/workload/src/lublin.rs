//! A Lublin–Feitelson-style statistical workload model.
//!
//! Besides the trace-calibrated models of [`crate::traces`], the harness
//! ships the de-facto standard *parametric* model of the parallel
//! workload literature (Lublin & Feitelson, JPDC 2003), in a simplified
//! but faithful-in-structure form:
//!
//! * a fraction of jobs is serial; parallel widths are drawn log-uniform
//!   with strong emphasis on powers of two;
//! * actual run times follow a two-component lognormal mixture (the
//!   "hyper" distribution separating short and long jobs);
//! * user estimates multiply the actual run time by an overestimation
//!   factor ≥ 1 (exact for a fraction of jobs, log-uniform otherwise) —
//!   the shape Mu'alem & Feitelson measured on real traces;
//! * arrivals form a nonhomogeneous Poisson process with a sinusoidal
//!   **daily cycle** (the day/night pattern the dynP line of work's
//!   motivation builds on).
//!
//! The exact published parameter values target specific 1990s machines;
//! the defaults here are round numbers in the published ranges. All
//! parameters are public — calibrate at will.

use crate::job::{Job, JobId, JobSet};
use dynp_des::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Seconds per day, the period of the diurnal arrival cycle.
pub const DAY_SECS: f64 = 86_400.0;

/// The parametric workload model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LublinModel {
    /// Model name used for generated job sets.
    pub name: String,
    /// Processors on the machine.
    pub machine_size: u32,
    /// Fraction of serial (width 1) jobs.
    pub serial_fraction: f64,
    /// Probability that a parallel width snaps to a power of two.
    pub pow2_fraction: f64,
    /// Actual run time: lognormal of the SHORT component (median s, σ).
    pub short_runtime: (f64, f64),
    /// Actual run time: lognormal of the LONG component (median s, σ).
    pub long_runtime: (f64, f64),
    /// Probability a job belongs to the short component.
    pub p_short: f64,
    /// Run times are clamped to [1, this] seconds (queue limit).
    pub max_runtime_secs: f64,
    /// Fraction of jobs whose estimate equals the actual run time.
    pub exact_estimate_fraction: f64,
    /// Maximum overestimation factor (log-uniform in [1, this]).
    pub max_overestimation: f64,
    /// Mean interarrival time in seconds.
    pub mean_interarrival_secs: f64,
    /// Daily-cycle amplitude in [0, 1): 0 = homogeneous arrivals,
    /// 0.8 = strong day/night contrast.
    pub diurnal_amplitude: f64,
}

impl Default for LublinModel {
    fn default() -> Self {
        LublinModel {
            name: "LUBLIN".into(),
            machine_size: 128,
            serial_fraction: 0.25,
            pow2_fraction: 0.75,
            short_runtime: (120.0, 1.4),
            long_runtime: (5_400.0, 1.2),
            p_short: 0.45,
            max_runtime_secs: 129_600.0, // 36 h
            exact_estimate_fraction: 0.15,
            max_overestimation: 20.0,
            mean_interarrival_secs: 600.0,
            diurnal_amplitude: 0.6,
        }
    }
}

impl LublinModel {
    /// Arrival intensity multiplier at time `t` (mean 1 over a day):
    /// `1 + a·sin(2πt/day)` — peak mid-"day", trough mid-"night".
    pub(crate) fn intensity(&self, t_secs: f64) -> f64 {
        1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * t_secs / DAY_SECS).sin()
    }

    fn sample_width<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        if rng.gen::<f64>() < self.serial_fraction {
            return 1;
        }
        // Log-uniform in [2, machine], optionally snapped to a power of
        // two (Lublin–Feitelson use a two-stage uniform in log space).
        let lo = 2f64.ln();
        let hi = (self.machine_size as f64 + 1.0).ln();
        let raw = (rng.gen::<f64>() * (hi - lo) + lo).exp();
        let mut w = raw.floor() as u32;
        if rng.gen::<f64>() < self.pow2_fraction {
            w = crate::dist::nearest_power_of_two(w);
        }
        w.clamp(2, self.machine_size)
    }

    fn sample_runtime<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (median, sigma) = if rng.gen::<f64>() < self.p_short {
            self.short_runtime
        } else {
            self.long_runtime
        };
        let d = LogNormal::new(median.ln(), sigma).expect("bad lognormal parameters");
        d.sample(rng).clamp(1.0, self.max_runtime_secs)
    }

    fn sample_overestimation<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < self.exact_estimate_fraction {
            1.0
        } else {
            // Log-uniform factor in [1, max] — most mass near small
            // factors, a tail of wild guesses.
            (rng.gen::<f64>() * self.max_overestimation.ln()).exp()
        }
    }

    /// Generates `n_jobs` jobs. Deterministic in `(model, n_jobs, seed)`.
    pub fn generate(&self, n_jobs: usize, seed: u64) -> JobSet {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4C55_424C_494E); // "LUBLIN"
        let mut jobs = Vec::with_capacity(n_jobs);
        let mut t = 0.0f64;
        for i in 0..n_jobs {
            // Nonhomogeneous Poisson by intensity-scaled gaps: a gap with
            // operational mean 1 is stretched by the local intensity.
            let unit_gap = -(1.0 - rng.gen::<f64>()).ln();
            t += unit_gap * self.mean_interarrival_secs / self.intensity(t);

            let width = self.sample_width(&mut rng);
            let actual = self.sample_runtime(&mut rng);
            let estimate = (actual * self.sample_overestimation(&mut rng))
                .min(self.max_runtime_secs.max(actual));
            jobs.push(Job::new(
                JobId(i as u32),
                SimTime::from_secs_f64(t),
                width,
                SimDuration::from_secs_f64(estimate),
                SimDuration::from_secs_f64(actual),
            ));
        }
        JobSet::new(self.name.clone(), self.machine_size, jobs)
    }

    /// Generates `n_sets` independent sets named `"<name>/set<i>"`.
    pub fn generate_sets(&self, n_jobs: usize, n_sets: usize, base_seed: u64) -> Vec<JobSet> {
        (0..n_sets)
            .map(|i| {
                let seed = base_seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut set = self.generate(n_jobs, seed);
                set.name = format!("{}/set{i}", self.name);
                set
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let m = LublinModel::default();
        assert_eq!(m.generate(200, 1).jobs(), m.generate(200, 1).jobs());
        assert_ne!(m.generate(200, 1).jobs(), m.generate(200, 2).jobs());
    }

    #[test]
    fn serial_fraction_is_respected() {
        let m = LublinModel {
            serial_fraction: 0.4,
            ..LublinModel::default()
        };
        let set = m.generate(20_000, 3);
        let serial = set.jobs().iter().filter(|j| j.width == 1).count() as f64;
        let frac = serial / set.len() as f64;
        assert!((frac - 0.4).abs() < 0.02, "serial fraction {frac}");
    }

    #[test]
    fn widths_emphasize_powers_of_two() {
        let m = LublinModel {
            pow2_fraction: 1.0,
            serial_fraction: 0.0,
            ..LublinModel::default()
        };
        let set = m.generate(5_000, 4);
        for j in set.jobs() {
            assert!(
                j.width.is_power_of_two() || j.width == m.machine_size,
                "width {}",
                j.width
            );
        }
    }

    #[test]
    fn estimates_are_never_below_actuals() {
        let set = LublinModel::default().generate(5_000, 5);
        for j in set.jobs() {
            assert!(j.estimate >= j.actual);
        }
        // And a recognizable share is exact.
        let exact =
            set.jobs().iter().filter(|j| j.estimate == j.actual).count() as f64 / set.len() as f64;
        assert!(exact > 0.10, "exact-estimate share {exact}");
    }

    #[test]
    fn runtime_mixture_has_two_modes() {
        let set = LublinModel::default().generate(20_000, 6);
        let short = set
            .jobs()
            .iter()
            .filter(|j| j.actual.as_secs_f64() < 600.0)
            .count() as f64
            / set.len() as f64;
        // p_short 0.45 with short median 120 s: a large bucket below
        // 10 min AND a large bucket above it.
        assert!(short > 0.25 && short < 0.65, "short share {short}");
    }

    #[test]
    fn mean_interarrival_is_close_to_target() {
        let m = LublinModel::default();
        let set = m.generate(30_000, 7);
        let span = set.last_submit().saturating_since(set.first_submit());
        let mean = span.as_secs_f64() / (set.len() - 1) as f64;
        assert!(
            (mean - m.mean_interarrival_secs).abs() / m.mean_interarrival_secs < 0.05,
            "mean gap {mean}"
        );
    }

    #[test]
    fn diurnal_cycle_shows_up_in_arrival_counts() {
        let m = LublinModel {
            diurnal_amplitude: 0.8,
            mean_interarrival_secs: 60.0,
            ..LublinModel::default()
        };
        let set = m.generate(40_000, 8);
        // Count arrivals in the "day" half-period [0, 12h) vs the
        // "night" half [12h, 24h) of each cycle.
        let (mut day, mut night) = (0u64, 0u64);
        for j in set.jobs() {
            let phase = j.submit.as_secs_f64() % DAY_SECS;
            if phase < DAY_SECS / 2.0 {
                day += 1;
            } else {
                night += 1;
            }
        }
        let ratio = day as f64 / night as f64;
        assert!(ratio > 1.5, "day/night arrival ratio {ratio}");
    }

    #[test]
    fn homogeneous_when_amplitude_zero() {
        let m = LublinModel {
            diurnal_amplitude: 0.0,
            mean_interarrival_secs: 60.0,
            ..LublinModel::default()
        };
        assert_eq!(m.intensity(0.0), 1.0);
        assert_eq!(m.intensity(DAY_SECS / 4.0), 1.0);
        let set = m.generate(40_000, 9);
        let (mut day, mut night) = (0u64, 0u64);
        for j in set.jobs() {
            let phase = j.submit.as_secs_f64() % DAY_SECS;
            if phase < DAY_SECS / 2.0 {
                day += 1;
            } else {
                night += 1;
            }
        }
        let ratio = day as f64 / night as f64;
        assert!((ratio - 1.0).abs() < 0.1, "homogeneous ratio {ratio}");
    }

    #[test]
    fn sets_are_simulatable() {
        // Smoke: the model's output runs through the whole job-set API.
        let set = LublinModel {
            machine_size: 64,
            ..LublinModel::default()
        }
        .generate(300, 10);
        assert_eq!(set.len(), 300);
        assert!(set.offered_load() > 0.0);
        for j in set.jobs() {
            assert!(j.width >= 1 && j.width <= 64);
        }
    }
}
