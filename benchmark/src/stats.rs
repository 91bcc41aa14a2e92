//! Order statistics the benchmark reports: nearest-rank percentiles,
//! the highest percentile a sample supports, and the quartile spread
//! the acceptance procedure is stated in.

/// Sorts a sample ascending. Every value the harness measures is
/// finite, so `total_cmp` is a plain numeric order here.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`:
/// `ceil(p/100 x n)`, computed so that binary rounding of `p/100`
/// (99.9% of 10,000 is 9990, not 9990.000000000001) cannot add a rank.
fn nearest_rank(p: f64, n: usize) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The percentiles the harness is willing to report as a tail, highest
/// first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even p90 has fewer (n < 100): a tail read off fewer than
/// ten samples is the position of one or two outliers, not a
/// percentile.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method) — the definition
/// the acceptance procedure uses, reproduced so the harness can report
/// the same spread the driver will compute.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let data = sorted(values.to_vec());
    let n = data.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread every bound is compared against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    // Python's median (the mean of the middle two for an even count),
    // as the driver divides by, not the nearest-rank one above.
    let mid = {
        let data = sorted(values.to_vec());
        let n = data.len();
        if n % 2 == 1 {
            data[n / 2]
        } else {
            (data[n / 2 - 1] + data[n / 2]) / 2.0
        }
    };
    if mid == 0.0 {
        0.0
    } else {
        ((q3 - q1) / mid).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_the_textbook_table() {
        let s: Vec<f64> = [15, 20, 35, 40, 50].iter().map(|&v| v as f64).collect();
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(60), None);
        assert_eq!(supported_tail(99), None);
        // n=100: rank(p90)=90, ten samples beyond.
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        // n=200: rank(p95)=190, ten beyond.
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(600), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]
        let (q1, q3) = quartiles(&[20.0, 10.0, 13.0, 11.0]);
        assert!((q1 - 10.25).abs() < 1e-12 && (q3 - 18.25).abs() < 1e-12);
    }
}
