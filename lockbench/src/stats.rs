//! Order statistics: medians, quartiles and the tail-percentile rule.

/// Median of `values` (mean of the middle pair on an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so a spread computed here equals the one the driver computes. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentiles a tail may be reported at, highest first. The median is
/// the floor: a handful of samples supports nothing above it.
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, and its value; the median when none qualifies.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    assert!(!sorted.is_empty(), "tail of nothing");
    let n = sorted.len();
    for pct in TAIL_CANDIDATES {
        let rank = ((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n);
        if n - rank >= TAIL_MIN_BEYOND {
            return (pct, sorted[rank - 1]);
        }
    }
    (50.0, median(sorted))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 2000 samples: p99 is rank 1980, twenty beyond.
        assert_eq!(tail(&v(2000)), (99.0, 1980.0));
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        assert_eq!(tail(&v(1000)), (99.0, 990.0));
        // 999 samples: p99 is rank 990, nine beyond; p95 is rank 950.
        assert_eq!(tail(&v(999)), (95.0, 950.0));
        // 150 samples: p95 leaves 7, p90 leaves 15.
        assert_eq!(tail(&v(150)), (90.0, 135.0));
        // 40 samples: p75 is rank 30, ten beyond.
        assert_eq!(tail(&v(40)), (75.0, 30.0));
        // 20 samples: the median is rank 10, ten beyond.
        assert_eq!(tail(&v(20)), (50.0, 10.0));
        // Seven passes support nothing above the median.
        assert_eq!(tail(&v(7)), (50.0, 4.0));
    }
}
