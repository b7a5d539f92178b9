//! The synthetic job-set generator.
//!
//! A [`TraceModel`] assembles the regime chain, the shared run-time
//! accuracy model and a calibrated mean interarrival time into a complete
//! generator. `generate` produces one job set; `generate_sets` produces
//! the paper's "ten synthetic job sets, with 10,000 jobs each".
//!
//! ## Arrival calibration
//!
//! The paper's absolute utilization numbers at shrinking factor 1.0 encode
//! the *offered load* of the original job sets. We anchor our models the
//! same way: [`TraceModel::mean_interarrival_secs`] is chosen per trace so
//! that `mean job area / (machine × mean interarrival)` equals the
//! paper's measured utilization at factor 1.0 (see `DESIGN.md` §4.2).
//! To make that anchor exact per generated set — the burst structure of
//! the regimes is preserved, only the overall rate is pinned — every
//! set's arrival gaps are rescaled by a single factor after sampling so
//! their mean equals the target.

use crate::dist::AccuracyModel;
use crate::job::{Job, JobId, JobSet};
use crate::regime::{Regime, RegimeChain};
use dynp_des::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A complete synthetic workload model for one machine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceModel {
    /// Trace name ("CTC", …).
    pub name: String,
    /// Processors on the modeled machine.
    pub machine_size: u32,
    /// User-session regimes (see [`crate::regime`]).
    pub regimes: Vec<Regime>,
    /// Shared run-time accuracy model (actual = estimate × r).
    pub accuracy: AccuracyModel,
    /// Target mean interarrival time in seconds (exact per generated set).
    pub mean_interarrival_secs: f64,
    /// Smallest allowed estimate in seconds (queue minimum).
    pub min_estimate_secs: f64,
    /// Largest allowed estimate in seconds (queue run-time cap).
    pub max_estimate_secs: f64,
}

impl TraceModel {
    /// Generates one job set of `n_jobs` jobs. Deterministic in
    /// `(model, n_jobs, seed)`.
    pub fn generate(&self, n_jobs: usize, seed: u64) -> JobSet {
        let mut rng = StdRng::seed_from_u64(seed ^ fxhash(&self.name));
        let mut chain = RegimeChain::start(&self.regimes, &mut rng);

        let mut widths = Vec::with_capacity(n_jobs);
        let mut estimates = Vec::with_capacity(n_jobs);
        let mut actuals = Vec::with_capacity(n_jobs);
        let mut gaps = Vec::with_capacity(n_jobs);

        for _ in 0..n_jobs {
            let regime = chain.current();
            let width = regime.width.sample(&mut rng, self.machine_size);
            let est = regime
                .estimate
                .sample(&mut rng)
                .clamp(self.min_estimate_secs, self.max_estimate_secs);
            let r = self.accuracy.sample(&mut rng);
            let actual = (est * r).max(1.0).min(est);
            // Gap *before* this job; exponential within the regime,
            // scaled by the regime's arrival intensity.
            let lambda_mean = self.mean_interarrival_secs * regime.arrival_scale;
            let gap = -lambda_mean * (1.0 - rng.gen::<f64>()).ln();
            widths.push(width);
            estimates.push(est);
            actuals.push(actual);
            gaps.push(gap);
            chain.step(&mut rng);
        }

        // Pin the mean gap to the calibrated target (burst structure is
        // preserved; only the global rate is rescaled).
        let observed: f64 = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
        if observed > 0.0 {
            let k = self.mean_interarrival_secs / observed;
            for g in &mut gaps {
                *g *= k;
            }
        }

        let mut jobs = Vec::with_capacity(n_jobs);
        let mut t = 0.0f64;
        for i in 0..n_jobs {
            t += gaps[i];
            jobs.push(Job::new(
                JobId(i as u32),
                SimTime::from_secs_f64(t),
                widths[i],
                SimDuration::from_secs_f64(estimates[i]),
                SimDuration::from_secs_f64(actuals[i]),
            ));
        }
        JobSet::new(self.name.clone(), self.machine_size, jobs)
    }

    /// Generates `n_sets` independent sets of `n_jobs` each, named
    /// `"<trace>/set<i>"`, with decorrelated seeds derived from
    /// `base_seed`. The paper uses 10 sets of 10,000 jobs.
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

    /// Predicted mean job area (processor-seconds) from the regime
    /// mixture — used by calibration reports.
    pub(crate) fn predicted_mean_area(&self) -> f64 {
        let fractions = RegimeChain::stationary_job_fractions(&self.regimes);
        let mean_r = self.accuracy.mean();
        self.regimes
            .iter()
            .zip(&fractions)
            .map(|(r, &f)| {
                let est = r
                    .estimate
                    .mean_hint()
                    .clamp(self.min_estimate_secs, self.max_estimate_secs);
                f * r.width.mean_hint() * est * mean_r
            })
            .sum()
    }
}

/// Tiny stable string hash (FNV-1a) to decorrelate per-trace RNG streams
/// without pulling in a hashing crate.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DurationDist, WidthDist};
    use crate::regime::three_regime;

    fn toy_model() -> TraceModel {
        TraceModel {
            name: "TOY".into(),
            machine_size: 64,
            regimes: three_regime(
                (
                    2.0,
                    15.0,
                    WidthDist::Weighted(vec![(1, 3.0), (2, 1.0)]),
                    DurationDist::LogUniform {
                        min: 30.0,
                        max: 600.0,
                    },
                    0.3,
                ),
                (
                    1.0,
                    6.0,
                    WidthDist::Weighted(vec![(8, 1.0), (16, 1.0)]),
                    DurationDist::LogUniform {
                        min: 3_600.0,
                        max: 36_000.0,
                    },
                    2.5,
                ),
                (
                    0.7,
                    25.0,
                    WidthDist::Constant(4),
                    DurationDist::Weighted(vec![(300.0, 1.0), (900.0, 1.0)]),
                    0.05,
                ),
            ),
            accuracy: AccuracyModel::from_overestimation(2.0, 0.15),
            mean_interarrival_secs: 120.0,
            min_estimate_secs: 10.0,
            max_estimate_secs: 36_000.0,
        }
    }

    #[test]
    fn generate_is_deterministic_in_seed() {
        let m = toy_model();
        let a = m.generate(500, 7);
        let b = m.generate(500, 7);
        assert_eq!(a.jobs(), b.jobs());
        let c = m.generate(500, 8);
        assert_ne!(a.jobs(), c.jobs());
    }

    #[test]
    fn generated_jobs_respect_invariants() {
        let m = toy_model();
        let set = m.generate(2_000, 3);
        assert_eq!(set.len(), 2_000);
        let mut last_submit = SimTime::ZERO;
        for j in set.jobs() {
            assert!(j.width >= 1 && j.width <= m.machine_size);
            assert!(j.actual <= j.estimate);
            assert!(j.actual.as_millis() >= 1);
            assert!(j.estimate.as_secs_f64() <= m.max_estimate_secs + 1e-6);
            assert!(j.estimate.as_secs_f64() >= m.min_estimate_secs - 1e-6);
            assert!(j.submit >= last_submit);
            last_submit = j.submit;
        }
    }

    #[test]
    fn mean_interarrival_is_pinned() {
        let m = toy_model();
        let set = m.generate(5_000, 11);
        let jobs = set.jobs();
        let span = jobs.last().unwrap().submit.as_secs_f64();
        // First gap included: total span / n ≈ target (rounding to ms
        // introduces sub-second noise only).
        let mean_gap = span / jobs.len() as f64;
        assert!(
            (mean_gap - 120.0).abs() < 1.0,
            "mean gap {mean_gap} should be ≈ 120"
        );
    }

    #[test]
    fn different_sets_differ_but_share_statistics() {
        let m = toy_model();
        let sets = m.generate_sets(4_000, 4, 99);
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[0].name, "TOY/set0");
        assert_ne!(sets[0].jobs(), sets[1].jobs());
        // Heavy-tailed batch sessions make per-set loads noisy; the sets
        // should still agree to within a small constant factor.
        let loads: Vec<f64> = sets.iter().map(|s| s.offered_load()).collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        for &l in &loads {
            assert!(
                l > mean * 0.4 && l < mean * 2.5,
                "offered loads should be same order: {loads:?}"
            );
        }
    }

    #[test]
    fn predicted_mean_area_gives_the_measured_load() {
        let m = toy_model();
        let set = m.generate(20_000, 5);
        // Offered load at shrinking factor 1.0, as the calibration sees it.
        let predicted =
            m.predicted_mean_area() / (m.machine_size as f64 * m.mean_interarrival_secs);
        let measured = set.offered_load();
        assert!(
            (predicted - measured).abs() / predicted < 0.25,
            "predicted {predicted:.3} vs measured {measured:.3}"
        );
    }
}
