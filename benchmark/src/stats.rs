//! Exact order statistics over the harness's own samples.
//!
//! Every latency the ladder reports is computed here from the sorted
//! samples themselves. The harness never goes through
//! `gem_telemetry::Histogram`: its power-of-two buckets are why
//! `BENCH_server.json` reports a p50 of exactly 98304.0 µs — a bucket
//! edge, not a measurement.

/// Sorts a sample vector ascending (NaNs are a harness bug).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between the two neighbouring order statistics (the
/// "type 7" rule: `q = 0` is the minimum, `q = 1` the maximum, the median
/// of an even count is the mean of the middle pair).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// Throughput of a run measured in equal windows: the median over
/// windows of `work_per_window / window_seconds`. One stalled window (a
/// neighbour's burst, a page-cache flush) moves a mean; it cannot move
/// the median.
pub fn median_of_windows(window_seconds: &[f64], work_per_window: f64) -> f64 {
    let rates: Vec<f64> = window_seconds
        .iter()
        .map(|&s| work_per_window / s)
        .collect();
    median(&rates)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method: the `k`-th quartile sits at
/// position `k (n + 1) / 4`, clamped into the sample). The benchmark
/// driver judges run-to-run spread with that function, so `check` does
/// too.
///
/// # Panics
///
/// Panics on fewer than two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (the driver's spread).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// The percentiles the ladder is willing to name, ascending, in permille
/// (integers, so "ten samples beyond p90 of 100" is not lost to rounding).
const PERCENTILE_LADDER: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at
/// least ten samples beyond it in a sample of `n` — a tail percentile
/// resting on fewer is one slow request, not a distribution. `None`
/// below 20 samples (not even the median qualifies).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rfind(|&&p| n * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_ignores_input_order_and_outliers() {
        assert_eq!(median(&[5.0, 1.0, 1000.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_windows_is_robust_to_one_stalled_window() {
        // Four windows of 256 cycles at 0.5 s, one stalled at 5 s.
        let secs = [0.5, 0.5, 5.0, 0.5, 0.5];
        assert_eq!(median_of_windows(&secs, 256.0), 512.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(99), Some(0.50));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        // The issue's 384 step samples: 38 beyond p90, 19 beyond p95.
        assert_eq!(highest_supported_percentile(384), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }
}
