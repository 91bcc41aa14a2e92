//! Streaming statistics: log-bucketed histograms and online moments.
//!
//! The paper reports latency percentiles (p50/p99), latency CDFs, and
//! per-instance congestion intensity (p99/p50, Alg. 2). Those all need a
//! quantile sketch that is cheap to update on every completed request.
//! [`Histogram`] is an HDR-style log-bucketed histogram with bounded
//! relative error; [`Welford`] provides numerically stable online
//! mean/variance for features such as relative importance.

/// Number of linear sub-buckets per power-of-two bucket; 32 gives a
/// worst-case relative quantile error of about 3%.
const SUB_BUCKETS: usize = 32;
/// Histogram value ceiling: one hour in microseconds comfortably covers
/// any simulated latency.
const MAX_VALUE: u64 = 3_600_000_000;

/// A log-bucketed histogram over `u64` values (typically microseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let levels = 64 - (MAX_VALUE.leading_zeros() as usize);
        Histogram {
            buckets: vec![0; (levels + 1) * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        let v = value.min(MAX_VALUE);
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let level = 63 - v.leading_zeros() as usize;
        // Position within the level: top bits below the leading one.
        let shift = level.saturating_sub(5);
        let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
        let base = (level - 4) * SUB_BUCKETS;
        base + sub
    }

    /// Representative (upper-edge) value of a bucket index.
    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let level = index / SUB_BUCKETS + 4;
        let sub = index % SUB_BUCKETS;
        let shift = level - 5;
        ((SUB_BUCKETS + sub) as u64) << shift
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest recorded observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile `q` in `[0, 1]`, or 0 when empty.
    ///
    /// The returned value is the representative value of the bucket
    /// containing the requested rank (relative error ≈ 3%); the extremes
    /// are exact (`q = 0` returns the min, `q = 1` the max).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max).max(self.min());
            }
        }
        self.max
    }

    /// Convenience: the median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all recorded observations.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// Numerically stable online mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Pearson correlation coefficient between two equal-length samples.
///
/// This is the paper's *relative importance* measure (Alg. 2): the
/// correlation between a microservice's per-request latency and the
/// critical-path latency. Returns 0 for degenerate inputs (length < 2,
/// length mismatch, or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    // Clamp: rounding can push a perfect correlation past ±1.
    (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
}

/// Exact quantile of a small in-memory sample (linear interpolation);
/// used where raw per-window vectors are available (Alg. 2 features).
pub fn sample_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn histogram_quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        for i in 1..=100_000u64 {
            h.record(i);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "q={q}: got {got}, expected ~{expect}");
        }
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for i in 0..1000u64 {
            a.record(i * 7 % 5000);
            c.record(i * 7 % 5000);
        }
        for i in 0..1000u64 {
            b.record(i * 13 % 9000);
            c.record(i * 13 % 9000);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.quantile(0.5), c.quantile(0.5));
        assert_eq!(a.quantile(0.99), c.quantile(0.99));
        assert_eq!(a.max(), c.max());
    }

    #[test]
    fn histogram_clear_resets() {
        let mut h = Histogram::new();
        h.record(55);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_huge_values_saturate() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        // The quantile is capped to the recorded max.
        assert_eq!(h.quantile(0.5), u64::MAX);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_degenerate() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.add(3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.mean(), 3.0);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_zero() {
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn sample_quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(sample_quantile(&xs, 0.0), 10.0);
        assert_eq!(sample_quantile(&xs, 1.0), 40.0);
        assert!((sample_quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
        assert_eq!(sample_quantile(&[], 0.5), 0.0);
    }
}
