//! A log-bucketed latency histogram for live-service measurements.
//!
//! The batch reports use [`crate::percentiles::QuantileStats`], which
//! sorts every sample — exact, but O(n) memory and only usable after the
//! run. A live daemon records millions of admission latencies and must
//! answer p50/p99/p999 while running, in constant memory, and merge
//! per-worker histograms into one. This is the classic HdrHistogram
//! layout, sized for nanosecond-to-minutes latencies:
//!
//! * values below 2⁵ land in exact unit buckets;
//! * above that, each power of two is split into 2⁵ = 32 sub-buckets,
//!   bounding the relative width of any bucket — and therefore the
//!   relative error of any reported quantile — by 1/32 ≈ 3.2 %.
//!
//! Quantiles use the same nearest-rank definition as `QuantileStats`
//! (`rank = ceil(q·n)` clamped to `[1, n]`), reporting the upper bound of
//! the bucket containing that rank, so the two views agree on exact-bucket
//! data and differ by at most one sub-bucket width elsewhere.

use serde::{Deserialize, Serialize};

/// Power-of-two range is split into `1 << SUB_BITS` sub-buckets.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: the exact region plus 32
/// sub-buckets for each of the `64 - SUB_BITS` remaining exponents.
const BUCKETS: usize = (SUB_COUNT + (64 - SUB_BITS) as u64 * SUB_COUNT) as usize;

/// Returns the bucket index of `v`.
fn index_of(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    // `exp` is the position of the highest set bit, ≥ SUB_BITS here.
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) & (SUB_COUNT - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB_COUNT + sub) as usize
}

/// The largest value mapping to bucket `i` — what quantiles report.
fn upper_bound(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_COUNT {
        return i;
    }
    let exp = (i / SUB_COUNT - 1) + SUB_BITS as u64;
    let sub = i % SUB_COUNT;
    let base = (SUB_COUNT + sub) << (exp - SUB_BITS as u64);
    // The bucket spans `1 << (exp - SUB_BITS)` consecutive values
    // starting at `base`.
    base + ((1u64 << (exp - SUB_BITS as u64)) - 1)
}

/// A constant-memory latency histogram with ≈3 % quantile error.
///
/// Values are unitless `u64`s; the service records microseconds. Workers
/// keep private histograms and [`LatencyHistogram::merge`] them — the
/// merged quantiles are exactly those of a single histogram fed every
/// sample, because bucket counts add.
#[derive(Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (nearest-rank, as in `QuantileStats`):
    /// the upper bound of the bucket holding the `ceil(q·n)`-th smallest
    /// sample, capped at the exact maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        // Every value below 2^SUB_BITS has its own bucket: quantiles are
        // exact, matching the nearest-rank definition.
        assert_eq!(h.quantile(0.50), 15);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn bucket_boundaries() {
        // The first sub-bucketed range starts exactly at 2^SUB_BITS.
        assert_eq!(index_of(31), 31);
        assert_eq!(index_of(32), 32);
        // 32..=33 share a bucket once values exceed 2^(SUB_BITS+1): the
        // exponent-6 range has granularity 2.
        assert_eq!(index_of(64), index_of(65));
        assert_ne!(index_of(64), index_of(66));
        // Power-of-two steps move to a fresh bucket range.
        for exp in SUB_BITS..63 {
            let v = 1u64 << exp;
            assert_ne!(index_of(v - 1), index_of(v), "boundary at 2^{exp}");
        }
        assert!(index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn upper_bound_inverts_index() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            4095,
            1 << 20,
            u64::MAX,
        ] {
            let i = index_of(v);
            let ub = upper_bound(i);
            assert!(ub >= v, "upper_bound({i}) = {ub} < {v}");
            assert_eq!(index_of(ub), i, "upper bound of {v} left its bucket");
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        // Deterministic LCG spread over [0, 10^7).
        let mut x = 12345u64;
        let mut exact = Vec::new();
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x % 10_000_000;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = h.quantile(q);
            assert!(est >= truth, "q{q}: {est} < exact {truth}");
            let err = (est - truth) as f64 / truth.max(1) as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "q{q}: relative error {err}");
        }
        assert_eq!(h.quantile(1.0), *exact.last().unwrap());
    }

    #[test]
    fn merge_equals_combined_feed() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in 0..1000u64 {
            let target = if v % 3 == 0 { &mut a } else { &mut b };
            target.record(v * 7);
            all.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.mean(), all.mean());
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.50), 0);
        assert_eq!(h.quantile(0.999), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_never_exceeds_recorded_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_003);
        // A lone sample in a wide bucket: the cap keeps the report at the
        // exact value, not the bucket's upper bound.
        assert_eq!(h.quantile(0.50), 1_000_003);
        assert_eq!(h.quantile(0.999), 1_000_003);
    }
}
