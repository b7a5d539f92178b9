//! Regime-switching user-session model.
//!
//! The paper's introduction motivates dynP with *temporally non-uniform*
//! workloads: "some users primarily submit parallel and long running jobs,
//! whilst others submit hundreds of short and sequential jobs … Hundreds of
//! jobs for a parameter study might be submitted in one go via a script."
//! A stationary i.i.d. generator would erase exactly the structure that
//! policy switching exploits, so the synthetic generator is a Markov chain
//! over *regimes*: each regime describes one class of user activity
//! (interactive work, long batch jobs, scripted parameter studies) with its
//! own width, run-time and arrival-intensity distributions. The chain
//! stays in a regime for a geometrically distributed number of consecutive
//! jobs, producing sessions.

use crate::dist::{DurationDist, WidthDist};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One class of user activity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Regime {
    /// Descriptive name ("interactive", "batch", …).
    pub name: String,
    /// Relative probability of entering this regime at a switch point
    /// (unnormalized).
    pub weight: f64,
    /// Expected number of consecutive jobs drawn from this regime
    /// (geometric sojourn), ≥ 1.
    pub mean_session_jobs: f64,
    /// Width distribution of this regime's jobs.
    pub width: WidthDist,
    /// Estimated-run-time distribution (seconds).
    pub estimate: DurationDist,
    /// Multiplier on the global mean interarrival time while this regime
    /// is active (< 1 = burst, > 1 = sparse).
    pub arrival_scale: f64,
}

/// The Markov regime process: picks the regime for each successive job.
#[derive(Clone, Debug)]
pub(crate) struct RegimeChain<'a> {
    regimes: &'a [Regime],
    current: usize,
}

impl<'a> RegimeChain<'a> {
    /// Starts the chain in a regime sampled from the entry weights.
    ///
    /// # Panics
    /// Panics if `regimes` is empty or the total weight is not positive.
    pub fn start<R: Rng + ?Sized>(regimes: &'a [Regime], rng: &mut R) -> Self {
        assert!(!regimes.is_empty(), "at least one regime is required");
        let current = pick_weighted(regimes, rng);
        RegimeChain { regimes, current }
    }

    /// The regime the next job is drawn from.
    pub fn current(&self) -> &Regime {
        &self.regimes[self.current]
    }

    /// Advances the chain by one job: with probability
    /// `1 / mean_session_jobs` the session ends and a fresh regime is
    /// sampled from the entry weights (possibly the same one).
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let stay = 1.0 - 1.0 / self.current().mean_session_jobs.max(1.0);
        if rng.gen::<f64>() >= stay {
            self.current = pick_weighted(self.regimes, rng);
        }
    }

    /// The stationary probability of each regime *per job*, i.e. entry
    /// weight × mean session length, normalized. Used by calibration code
    /// to predict aggregate workload statistics.
    pub(crate) fn stationary_job_fractions(regimes: &[Regime]) -> Vec<f64> {
        let raw: Vec<f64> = regimes
            .iter()
            .map(|r| r.weight * r.mean_session_jobs.max(1.0))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / total).collect()
    }
}

fn pick_weighted<R: Rng + ?Sized>(regimes: &[Regime], rng: &mut R) -> usize {
    let total: f64 = regimes.iter().map(|r| r.weight).sum();
    assert!(total > 0.0, "regime weights must sum to a positive value");
    let mut x = rng.gen::<f64>() * total;
    for (i, r) in regimes.iter().enumerate() {
        if x < r.weight {
            return i;
        }
        x -= r.weight;
    }
    regimes.len() - 1
}

/// Convenience constructor for the common three-regime session structure.
///
/// * `interactive` — short, narrow jobs arriving densely,
/// * `batch` — long, wide jobs arriving sparsely,
/// * `study` — scripted bursts of near-identical mid-size jobs.
///
/// Returns the regimes with the supplied distributions; trace models tune
/// weights and distributions per machine (see [`crate::traces`]). Builds
/// the unit tests' fixtures.
#[cfg(test)]
pub(crate) fn three_regime(
    interactive: (f64, f64, WidthDist, DurationDist, f64),
    batch: (f64, f64, WidthDist, DurationDist, f64),
    study: (f64, f64, WidthDist, DurationDist, f64),
) -> Vec<Regime> {
    let mk =
        |name: &str,
         (weight, sess, width, est, scale): (f64, f64, WidthDist, DurationDist, f64)| {
            Regime {
                name: name.to_string(),
                weight,
                mean_session_jobs: sess,
                width,
                estimate: est,
                arrival_scale: scale,
            }
        };
    vec![
        mk("interactive", interactive),
        mk("batch", batch),
        mk("study", study),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_regimes() -> Vec<Regime> {
        three_regime(
            (
                2.0,
                10.0,
                WidthDist::Constant(1),
                DurationDist::Constant(60.0),
                0.3,
            ),
            (
                1.0,
                5.0,
                WidthDist::Constant(32),
                DurationDist::Constant(36_000.0),
                2.0,
            ),
            (
                0.5,
                30.0,
                WidthDist::Constant(4),
                DurationDist::Constant(600.0),
                0.05,
            ),
        )
    }

    #[test]
    fn chain_produces_sessions_with_expected_lengths() {
        let regimes = toy_regimes();
        let mut rng = StdRng::seed_from_u64(7);
        let mut chain = RegimeChain::start(&regimes, &mut rng);
        // Walk 100k jobs, recording session lengths per regime.
        let mut lengths: Vec<Vec<u32>> = vec![Vec::new(); 3];
        let mut cur = chain.current().name.clone();
        let mut run = 0u32;
        for _ in 0..100_000 {
            chain.step(&mut rng);
            run += 1;
            if chain.current().name != cur {
                let idx = regimes.iter().position(|r| r.name == cur).unwrap();
                lengths[idx].push(run);
                run = 0;
                cur = chain.current().name.clone();
            }
        }
        // Observed mean session length should be near the configured
        // one. Note a session "ends" when the resampled regime differs,
        // so observed length ≈ mean_session_jobs / P(switch to another),
        // which is ≥ the configured mean; just check the ordering.
        let mean = |v: &Vec<u32>| v.iter().sum::<u32>() as f64 / v.len() as f64;
        let (mi, mb, ms) = (mean(&lengths[0]), mean(&lengths[1]), mean(&lengths[2]));
        assert!(
            ms > mi,
            "study sessions ({ms:.1}) should outlast interactive ({mi:.1})"
        );
        assert!(
            mi > mb,
            "interactive sessions ({mi:.1}) should outlast batch ({mb:.1})"
        );
    }

    #[test]
    fn stationary_fractions_weight_by_session_length() {
        let regimes = toy_regimes();
        let f = RegimeChain::stationary_job_fractions(&regimes);
        assert_eq!(f.len(), 3);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // weights×sojourn = 20, 5, 15 → fractions 0.5, 0.125, 0.375
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert!((f[1] - 0.125).abs() < 1e-12);
        assert!((f[2] - 0.375).abs() < 1e-12);
    }

    #[test]
    fn chain_visits_all_regimes() {
        let regimes = toy_regimes();
        let mut rng = StdRng::seed_from_u64(1);
        let mut chain = RegimeChain::start(&regimes, &mut rng);
        let mut seen = [false; 3];
        for _ in 0..10_000 {
            let idx = regimes
                .iter()
                .position(|r| r.name == chain.current().name)
                .unwrap();
            seen[idx] = true;
            chain.step(&mut rng);
        }
        assert!(
            seen.iter().all(|&s| s),
            "all regimes should occur: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one regime")]
    fn empty_regime_list_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = RegimeChain::start(&[], &mut rng);
    }
}
