//! The one tie relation of every dynP decision.
//!
//! The decision tables of the dynP papers distinguish `<`, `=` and `>`
//! between per-policy metric values. Schedule scores are floating-point
//! sums, so two policies that produce the *same* schedule (common with
//! short queues) must compare equal despite round-off; a relative ε does
//! that. The deciders, Table 1's classifier and the scheduler's lost-pass
//! margin all read it here, so "tie" means one thing: a candidate is tied
//! for best when its score is within ε of the best score.

use dynp_rms::Policy;

/// Relative tolerance for score equality: the one every dynP decision
/// uses. Not a setting.
pub(crate) const EPSILON: f64 = 1e-9;

/// How far past the best score, relative to the larger of it and 1, the
/// scheduler's lower bound on a plan must be before it stops planning
/// that policy as lost. A decider asks of a loser only that it is not
/// tied for best, so any margin past [`EPSILON`] would do if the bound
/// were exact. It is three orders above `EPSILON` and six above what
/// rounding adds to the bound: the denominator is summed in the best
/// plan's order, not the stopped one's, and the excess in closed form.
pub(crate) const LOST_MARGIN: f64 = 1e3 * EPSILON;

/// `a == b` up to relative tolerance [`EPSILON`] (absolute near zero). A
/// non-finite operand equals only itself: without that rule `∞` would
/// be within `ε · ∞` of every score and tie with all of them.
pub(crate) fn approx_eq(a: f64, b: f64) -> bool {
    if !(a.is_finite() && b.is_finite()) {
        return a == b || (a.is_nan() && b.is_nan());
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= EPSILON * scale
}

/// `a <= b` up to tolerance: true when `a` is smaller or approximately
/// equal.
pub(crate) fn approx_le(a: f64, b: f64) -> bool {
    a < b || approx_eq(a, b)
}

/// `a < b` strictly beyond tolerance: true only when `a` is smaller *and*
/// not approximately equal.
pub(crate) fn approx_lt(a: f64, b: f64) -> bool {
    a < b && !approx_eq(a, b)
}

/// The candidates tied for best: bit `i` is set when `scores[i]` is
/// within ε of the lowest score. Tied means tied with the *best*: in an
/// ε-chain (a ≈ b, b ≈ c, a ≉ c with a lowest) c is not tied. Empty only
/// when every score is NaN.
pub(crate) fn tied_for_best(scores: &[(Policy, f64)]) -> u32 {
    debug_assert!(scores.len() <= 32, "a tie mask holds 32 candidates");
    let best = scores.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    scores
        .iter()
        .enumerate()
        .filter(|&(_, &(_, v))| approx_eq(v, best))
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_compare_as_expected() {
        assert!(approx_eq(1.0, 1.0));
        assert!(!approx_eq(1.0, 2.0));
        assert!(approx_le(1.0, 2.0));
        assert!(approx_le(2.0, 2.0));
        assert!(!approx_le(2.0, 1.0));
        assert!(approx_lt(1.0, 2.0));
        assert!(!approx_lt(2.0, 2.0));
    }

    #[test]
    fn round_off_counts_as_equal() {
        let a = 0.1 + 0.2;
        let b = 0.3;
        assert!(a != b, "premise: binary round-off differs");
        assert!(approx_eq(a, b));
        assert!(!approx_lt(b, a));
    }

    #[test]
    fn tolerance_is_relative_to_magnitude() {
        // 1e9 vs 1e9+1: relative difference 1e-9 → equal.
        assert!(approx_eq(1e9, 1e9 + 1.0));
        assert!(!approx_eq(1e9, 1e9 + 100.0));
        // Near zero the scale floor (1.0) makes the tolerance absolute.
        assert!(approx_eq(0.0, 1e-12));
        assert!(!approx_eq(0.0, 1e-8));
    }

    #[test]
    fn non_finite_values_equal_only_themselves() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for finite in [0.0, 1.0, -3.5, f64::MAX] {
            for odd in [inf, -inf, nan] {
                assert!(!approx_eq(finite, odd), "{finite} vs {odd}");
                assert!(!approx_eq(odd, finite), "{odd} vs {finite}");
            }
            // An infinite score is worse than any finite one, not tied.
            assert!(approx_lt(finite, inf));
            assert!(!approx_le(inf, finite));
            assert!(!approx_le(nan, finite) && !approx_le(finite, nan));
        }
        assert!(approx_eq(inf, inf) && approx_eq(-inf, -inf));
        assert!(approx_eq(nan, nan));
        assert!(!approx_eq(inf, -inf));
        assert!(!approx_eq(inf, nan) && !approx_eq(nan, -inf));
        assert!(approx_le(inf, inf) && !approx_lt(inf, inf));
    }

    #[test]
    fn lt_and_le_are_consistent() {
        for &(a, b) in &[(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (0.0, 0.0)] {
            assert_eq!(approx_lt(a, b), approx_le(a, b) && !approx_eq(a, b));
        }
    }

    #[test]
    fn tied_means_within_epsilon_of_the_best() {
        use Policy::{Fcfs, Ljf, Sjf};
        let mask = |f, s, l| tied_for_best(&[(Fcfs, f), (Sjf, s), (Ljf, l)]);
        assert_eq!(mask(2.0, 2.0, 2.0), 0b111);
        assert_eq!(mask(3.0, 1.0, 2.0), 0b010);
        assert_eq!(mask(1.0, 2.0, 1.0 + 1e-12), 0b101);
        // An ε-chain: 50 ≈ 50 + 4e-8 ≈ 50 + 8e-8, but only the first two
        // are within ε of the best.
        assert_eq!(mask(50.0 + 8e-8, 50.0, 50.0 + 4e-8), 0b110);
        // An infinite score ties only with another infinite best.
        assert_eq!(mask(f64::INFINITY, 1.0, 1.0), 0b110);
        assert_eq!(mask(f64::INFINITY, f64::INFINITY, f64::NAN), 0b011);
        assert_eq!(mask(f64::NAN, f64::NAN, f64::NAN), 0);
    }
}
