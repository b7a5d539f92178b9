//! Order statistics for the report: medians, quartiles, and the
//! percentile picker that refuses a tail it has too few samples for.

/// Sorts a sample in place (NaN-free by construction: every value is a
/// measured duration or a count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// A sorted copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    v
}

/// The `q`-quantile (nearest rank) of an already sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentiles the report may quote, highest first, each with
/// the share of samples beyond it in ten-thousandths (exact integers: in
/// floating point `(1 - 0.9) * 100` is 9.999…, one sample short).
pub const TAIL_LADDER: [(f64, usize); 6] = [
    (0.9999, 1),
    (0.999, 10),
    (0.99, 100),
    (0.95, 500),
    (0.9, 1_000),
    (0.75, 2_500),
];

/// How many samples must lie beyond a quoted percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`; `None` when even
/// the lowest rung has not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .find(|&&(_, beyond)| n * beyond / 10_000 >= MIN_BEYOND)
        .map(|&(q, _)| q)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what `repeat.sh` and the driver use
/// to judge run-to-run spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(40), Some(0.75));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.95));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(20_000), Some(0.999));
        assert_eq!(highest_percentile(40_000), Some(0.999));
        assert_eq!(highest_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }
}
