//! ε-tolerant comparison of schedule scores.
//!
//! The decision tables of the dynP papers distinguish `<`, `=` and `>`
//! between per-policy metric values. Schedule scores are floating-point
//! sums, so two policies that produce the *same* schedule (common with
//! short queues) must compare equal despite round-off; a relative ε does
//! that.

/// Relative tolerance for score equality: the one every dynP decision uses.
pub const EPSILON: f64 = 1e-9;

/// `a == b` up to relative tolerance `eps` (absolute near zero). A
/// non-finite operand equals only itself: without that rule `∞` would
/// be within `eps · ∞` of every score and tie with all of them.
pub(crate) fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    if !(a.is_finite() && b.is_finite()) {
        return a == b || (a.is_nan() && b.is_nan());
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= eps * scale
}

/// `a <= b` up to tolerance: true when `a` is smaller or approximately
/// equal.
pub(crate) fn approx_le(a: f64, b: f64, eps: f64) -> bool {
    a < b || approx_eq(a, b, eps)
}

/// `a < b` strictly beyond tolerance: true only when `a` is smaller *and*
/// not approximately equal.
pub(crate) fn approx_lt(a: f64, b: f64, eps: f64) -> bool {
    a < b && !approx_eq(a, b, eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_compare_as_expected() {
        assert!(approx_eq(1.0, 1.0, EPSILON));
        assert!(!approx_eq(1.0, 2.0, EPSILON));
        assert!(approx_le(1.0, 2.0, EPSILON));
        assert!(approx_le(2.0, 2.0, EPSILON));
        assert!(!approx_le(2.0, 1.0, EPSILON));
        assert!(approx_lt(1.0, 2.0, EPSILON));
        assert!(!approx_lt(2.0, 2.0, EPSILON));
    }

    #[test]
    fn round_off_counts_as_equal() {
        let a = 0.1 + 0.2;
        let b = 0.3;
        assert!(a != b, "premise: binary round-off differs");
        assert!(approx_eq(a, b, EPSILON));
        assert!(!approx_lt(b, a, EPSILON));
    }

    #[test]
    fn tolerance_is_relative_to_magnitude() {
        // 1e9 vs 1e9+1: relative difference 1e-9 → equal at eps 1e-8.
        assert!(approx_eq(1e9, 1e9 + 1.0, 1e-8));
        assert!(!approx_eq(1e9, 1e9 + 100.0, 1e-9));
        // Near zero the scale floor (1.0) makes the tolerance absolute.
        assert!(approx_eq(0.0, 1e-12, EPSILON));
    }

    #[test]
    fn non_finite_values_equal_only_themselves() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for finite in [0.0, 1.0, -3.5, f64::MAX] {
            for odd in [inf, -inf, nan] {
                assert!(!approx_eq(finite, odd, EPSILON), "{finite} vs {odd}");
                assert!(!approx_eq(odd, finite, EPSILON), "{odd} vs {finite}");
            }
            // An infinite score is worse than any finite one, not tied.
            assert!(approx_lt(finite, inf, EPSILON));
            assert!(!approx_le(inf, finite, EPSILON));
            assert!(!approx_le(nan, finite, EPSILON) && !approx_le(finite, nan, EPSILON));
        }
        assert!(approx_eq(inf, inf, EPSILON) && approx_eq(-inf, -inf, EPSILON));
        assert!(approx_eq(nan, nan, EPSILON));
        assert!(!approx_eq(inf, -inf, EPSILON));
        assert!(!approx_eq(inf, nan, EPSILON) && !approx_eq(nan, -inf, EPSILON));
        assert!(approx_le(inf, inf, EPSILON) && !approx_lt(inf, inf, EPSILON));
    }

    #[test]
    fn lt_and_le_are_consistent() {
        for &(a, b) in &[(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (0.0, 0.0)] {
            assert_eq!(
                approx_lt(a, b, EPSILON),
                approx_le(a, b, EPSILON) && !approx_eq(a, b, EPSILON)
            );
        }
    }
}
