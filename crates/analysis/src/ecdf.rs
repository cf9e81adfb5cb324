//! Empirical cumulative distribution functions (Fig. 5's presentation).

/// An ECDF over a finite sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (NaNs are rejected).
    pub fn new(mut sample: Vec<f64>) -> Ecdf {
        assert!(
            sample.iter().all(|v| !v.is_nan()),
            "ECDF sample contains NaN"
        );
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Ecdf { sorted: sample }
    }

    /// Fraction of the sample ≤ `x` (0 for an empty sample).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), by the nearest-rank method.
    /// Panics on an empty sample or out-of-range `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if q == 0.0 {
            return self.sorted[0];
        }
        // Guard the ceil against float noise: q computed as k/n must map
        // back to rank k, not k+1 (k/n × n can land at k + ε).
        let rank = ((q * self.sorted.len() as f64) - 1e-9).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Mean of the sample (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Whether this ECDF is stochastically dominated by `other` — i.e.
    /// `other`'s curve lies at or right of `self`'s everywhere (Fig. 5's
    /// "all curves are shifted to the right"). Checked on a merged grid.
    pub fn shifted_right_of(&self, other: &Ecdf, tolerance: f64) -> bool {
        let mut grid: Vec<f64> = self.sorted.iter().chain(&other.sorted).copied().collect();
        grid.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        grid.dedup();
        grid.iter()
            .all(|&x| self.fraction_le(x) + tolerance >= other.fraction_le(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.fraction_le(0.5), 0.0);
        assert_eq!(e.fraction_le(1.0), 0.25);
        assert_eq!(e.fraction_le(2.5), 0.5);
        assert_eq!(e.fraction_le(100.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
    }

    #[test]
    fn right_shift_detection() {
        let base = Ecdf::new((1..=100).map(f64::from).collect());
        let shifted = Ecdf::new((1..=100).map(|v| f64::from(v) * 1.3).collect());
        assert!(base.shifted_right_of(&shifted, 0.0));
        assert!(!shifted.shifted_right_of(&base, 0.0));
    }

    #[test]
    fn fraction_le_on_a_grid() {
        let e = Ecdf::new(vec![0.2, 0.4, 0.9]);
        let ys: Vec<f64> = [0.1, 0.5, 1.0].map(|x| e.fraction_le(x)).to_vec();
        assert_eq!(ys, vec![0.0, 2.0 / 3.0, 1.0]);
    }

    #[test]
    fn empty_and_invalid() {
        let e = Ecdf::new(vec![]);
        assert!(e.sorted.is_empty());
        assert_eq!(e.fraction_le(1.0), 0.0);
        assert_eq!(e.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        Ecdf::new(vec![]).quantile(0.5);
    }
}
