//! Distribution toolbox for synthetic workload generation.
//!
//! The workload-specific samplers the generators need: log-uniform
//! durations, weighted discrete choices (users request *round* run-time
//! estimates and power-of-two widths), and the run-time accuracy model
//! linking actual run times to estimates via the published
//! overestimation factor.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over positive durations (seconds).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum DurationDist {
    /// Always the same value.
    Constant(f64),
    /// `exp(U(ln min, ln max))` — every order of magnitude equally likely.
    LogUniform {
        /// Lower bound (seconds), > 0.
        min: f64,
        /// Upper bound (seconds), > min.
        max: f64,
    },
    /// Weighted choice among fixed values — models users picking round
    /// estimates (10 min, 1 h, 4 h, …). Weights need not be normalized.
    Weighted(Vec<(f64, f64)>),
}

impl DurationDist {
    /// Draws one value (seconds).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            DurationDist::Constant(v) => *v,
            DurationDist::LogUniform { min, max } => {
                let (lo, hi) = (min.ln(), max.ln());
                (rng.gen::<f64>() * (hi - lo) + lo).exp()
            }
            DurationDist::Weighted(items) => weighted_choice(items, rng),
        }
    }

    /// The exact mean of the distribution. Used only for calibration
    /// reporting, never inside the generator.
    pub(crate) fn mean_hint(&self) -> f64 {
        match self {
            DurationDist::Constant(v) => *v,
            DurationDist::LogUniform { min, max } => (max - min) / (max / min).ln(),
            DurationDist::Weighted(items) => {
                let total: f64 = items.iter().map(|(_, w)| w).sum();
                items.iter().map(|(v, w)| v * w).sum::<f64>() / total
            }
        }
    }
}

/// A distribution over job widths (requested processors).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WidthDist {
    /// Always the same width.
    Constant(u32),
    /// Weighted choice among fixed widths (unnormalized weights). The
    /// natural model: production traces are dominated by a handful of
    /// power-of-two sizes.
    Weighted(Vec<(u32, f64)>),
}

impl WidthDist {
    /// Draws one width, clamped into `[1, machine_size]`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R, machine_size: u32) -> u32 {
        let w = match self {
            WidthDist::Constant(w) => *w,
            WidthDist::Weighted(items) => {
                let items_f: Vec<(f64, f64)> = items.iter().map(|&(v, w)| (v as f64, w)).collect();
                weighted_choice(&items_f, rng).round() as u32
            }
        };
        w.clamp(1, machine_size)
    }

    /// Approximate mean width (ignores machine clamping).
    pub(crate) fn mean_hint(&self) -> f64 {
        match self {
            WidthDist::Constant(w) => *w as f64,
            WidthDist::Weighted(items) => {
                let total: f64 = items.iter().map(|(_, w)| w).sum();
                items.iter().map(|(v, w)| *v as f64 * w).sum::<f64>() / total
            }
        }
    }
}

/// Run-time accuracy model: `actual = estimate × r` with
/// `r = 1` (job runs into its estimate and is killed) with probability
/// `exact_prob`, else `r ~ U(low, high)`.
///
/// The paper's Table 2 reports the *average overestimation factor*
/// `avg(estimate) / avg(actual)`; with `r` independent of the estimate the
/// factor equals `1 / E[r]`, which [`AccuracyModel::from_overestimation`]
/// inverts.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AccuracyModel {
    /// Probability the job runs exactly to its estimate.
    pub exact_prob: f64,
    /// Lower bound of the uniform part of `r`.
    pub low: f64,
    /// Upper bound of the uniform part of `r`.
    pub high: f64,
}

impl AccuracyModel {
    /// Builds a model with mean ratio `1 / factor`, using `exact_prob`
    /// mass at `r = 1` and a uniform component centered to hit the mean.
    ///
    /// # Panics
    /// Panics if the requested factor is unreachable with the given
    /// `exact_prob` (e.g. factor < 1).
    pub fn from_overestimation(factor: f64, exact_prob: f64) -> Self {
        assert!(factor >= 1.0, "overestimation factor must be >= 1");
        assert!((0.0..1.0).contains(&exact_prob));
        let target = 1.0 / factor;
        // mean = exact_prob·1 + (1-exact_prob)·(low+high)/2  ⇒ solve for
        // the uniform midpoint.
        let mid = (target - exact_prob) / (1.0 - exact_prob);
        assert!(
            mid > 0.0 && mid < 1.0,
            "exact_prob {exact_prob} too large for factor {factor}"
        );
        // Spread the uniform component as wide as the unit interval allows
        // around the midpoint.
        let half = mid.min(1.0 - mid).min(mid * 0.95);
        AccuracyModel {
            exact_prob,
            low: mid - half,
            high: mid + half,
        }
    }

    /// Draws one ratio `r ∈ (0, 1]`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < self.exact_prob {
            1.0
        } else {
            rng.gen::<f64>() * (self.high - self.low) + self.low
        }
    }

    /// Exact mean of `r`.
    pub(crate) fn mean(&self) -> f64 {
        self.exact_prob + (1.0 - self.exact_prob) * (self.low + self.high) / 2.0
    }
}

/// Weighted choice among `(value, weight)` pairs; weights need not sum
/// to 1.
///
/// # Panics
/// Panics if `items` is empty or the total weight is not positive.
pub(crate) fn weighted_choice<R: Rng + ?Sized>(items: &[(f64, f64)], rng: &mut R) -> f64 {
    assert!(!items.is_empty(), "weighted choice over empty set");
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut x = rng.gen::<f64>() * total;
    for &(v, w) in items {
        if x < w {
            return v;
        }
        x -= w;
    }
    items.last().unwrap().0 // floating-point slack lands on the last item
}

/// Rounds to the nearest power of two (ties go up); 0 maps to 1.
pub(crate) fn nearest_power_of_two(x: u32) -> u32 {
    if x <= 1 {
        return 1;
    }
    let lower = 1u32 << (31 - x.leading_zeros());
    let upper = lower << 1;
    if (x - lower) < (upper - x) {
        lower
    } else {
        upper
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn sample_mean(d: &DurationDist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn log_uniform_stays_in_bounds() {
        let d = DurationDist::LogUniform {
            min: 10.0,
            max: 1000.0,
        };
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((10.0..=1000.0).contains(&x));
        }
        let m = sample_mean(&d, 50_000);
        let hint = d.mean_hint(); // (1000-10)/ln(100) ≈ 215
        assert!((m - hint).abs() / hint < 0.08, "mean {m} vs {hint}");
    }

    #[test]
    fn weighted_duration_hits_only_listed_values() {
        let d = DurationDist::Weighted(vec![(60.0, 1.0), (3600.0, 3.0)]);
        let mut r = rng();
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            match d.sample(&mut r) {
                x if (x - 60.0).abs() < f64::EPSILON => counts[0] += 1,
                x if (x - 3600.0).abs() < f64::EPSILON => counts[1] += 1,
                other => panic!("unexpected value {other}"),
            }
        }
        // 1:3 weights → roughly 25%/75%.
        assert!((counts[0] as f64 / 10_000.0 - 0.25).abs() < 0.03);
        assert!((d.mean_hint() - (60.0 * 0.25 + 3600.0 * 0.75)).abs() < 1e-9);
    }

    #[test]
    fn width_weighted_mean_hint_is_exact() {
        let d = WidthDist::Weighted(vec![(1, 1.0), (4, 1.0), (16, 2.0)]);
        assert!((d.mean_hint() - (1.0 + 4.0 + 32.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn width_clamps_to_machine() {
        let d = WidthDist::Constant(512);
        let mut r = rng();
        assert_eq!(d.sample(&mut r, 128), 128);
    }

    #[test]
    fn nearest_power_of_two_cases() {
        assert_eq!(nearest_power_of_two(0), 1);
        assert_eq!(nearest_power_of_two(1), 1);
        assert_eq!(nearest_power_of_two(3), 4); // tie 2/4 goes up
        assert_eq!(nearest_power_of_two(5), 4);
        assert_eq!(nearest_power_of_two(6), 8); // tie goes up
        assert_eq!(nearest_power_of_two(100), 128);
        assert_eq!(nearest_power_of_two(96), 128); // tie 64/128 goes up
    }

    #[test]
    fn accuracy_model_inverts_overestimation_factor() {
        for &(factor, exact) in &[(2.22, 0.1), (1.544, 0.3), (2.36, 0.1), (1.1, 0.5)] {
            let m = AccuracyModel::from_overestimation(factor, exact);
            assert!(
                (1.0 / m.mean() - factor).abs() / factor < 1e-9,
                "factor {factor}: model gives {}",
                1.0 / m.mean()
            );
            assert!(m.low > 0.0 && m.high <= 1.0, "bounds {m:?}");
        }
    }

    #[test]
    fn accuracy_samples_in_unit_interval_with_exact_mass() {
        let m = AccuracyModel::from_overestimation(2.0, 0.2);
        let mut r = rng();
        let mut exact = 0u32;
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let x = m.sample(&mut r);
            assert!(x > 0.0 && x <= 1.0);
            if x == 1.0 {
                exact += 1;
            }
            sum += x;
        }
        assert!((exact as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn weighted_choice_rejects_empty() {
        let mut r = rng();
        let _ = weighted_choice(&[], &mut r);
    }
}
