//! Flow size and duration distributions.
//!
//! Internet flow sizes are famously heavy-tailed (a few elephants carry
//! most bytes, many mice carry few). The generator draws per-flow weights
//! from a bounded Pareto and normalizes them to hit the hour's expected
//! byte total exactly, so figure-level volumes are noise-free while
//! per-flow statistics stay realistic.

use lockdown_base::hash::SplitMix;

/// Pareto shape parameter for flow-size weights. α ≈ 1.2 reproduces the
/// classic elephants-and-mice skew without divergent variance in samples.
pub(crate) const SIZE_ALPHA: f64 = 1.2;

/// Upper bound of a flow-size weight.
const SIZE_CAP: f64 = 10_000.0;

/// A Pareto(α) with x_m = 1, truncated to `[1, cap]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundedPareto {
    alpha: f64,
    cap: f64,
    /// `1 − cap^−α`, the same for every draw.
    mass: f64,
}

impl BoundedPareto {
    /// The distribution; build it once for a run of draws.
    pub(crate) fn new(alpha: f64, cap: f64) -> BoundedPareto {
        let mass = 1.0 - cap.powf(-alpha);
        BoundedPareto { alpha, cap, mass }
    }

    /// Draw a variate by inverse transform.
    pub(crate) fn sample(&self, rng: &mut SplitMix) -> f64 {
        let raw = (1.0 - rng.next_f64() * self.mass).powf(-1.0 / self.alpha);
        raw.min(self.cap)
    }
}

/// Split `total_bytes` across `n` flows with heavy-tailed proportions,
/// into `sizes` (cleared first; a caller keeps one across calls). The
/// sizes sum to exactly `total_bytes` (remainder goes to the largest
/// flow). Every flow gets at least 1 byte when `total_bytes >= n`.
pub(crate) fn split_bytes(rng: &mut SplitMix, total_bytes: u64, n: usize, sizes: &mut Vec<u64>) {
    assert!(n > 0, "cannot split across zero flows");
    sizes.clear();
    if n == 1 {
        sizes.push(total_bytes);
        return;
    }
    // The weights live in `sizes` as bits until their sum is known.
    let weight = BoundedPareto::new(SIZE_ALPHA, SIZE_CAP);
    sizes.extend((0..n).map(|_| weight.sample(rng).to_bits()));
    let sum: f64 = sizes.iter().map(|&w| f64::from_bits(w)).sum();
    for slot in sizes.iter_mut() {
        *slot = ((f64::from_bits(*slot) / sum) * total_bytes as f64) as u64;
    }
    let assigned: u64 = sizes.iter().sum();
    let remainder = total_bytes - assigned;
    // Give the remainder to the biggest flow to keep the tail heavy.
    if let Some(max) = sizes.iter_mut().max() {
        *max += remainder;
    }
}

/// Packets for a flow of `bytes` bytes: MTU-ish mean packet size with some
/// spread, at least 1 packet for non-empty flows.
pub(crate) fn packets_for(rng: &mut SplitMix, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let mean_pkt = 400.0 + 1_000.0 * rng.next_f64();
    ((bytes as f64 / mean_pkt).ceil() as u64).max(1)
}

/// Flow duration in seconds: log-uniform over [1, cap], so short flows
/// dominate but long-lived tunnels appear.
pub(crate) fn duration_secs(rng: &mut SplitMix, cap_secs: u64) -> u64 {
    let cap = cap_secs.max(1) as f64;
    cap.powf(rng.next_f64()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_exact() {
        let mut rng = SplitMix::new(1);
        // One buffer across calls of different `n`, as the generators hold it.
        let mut sizes = vec![7; 3];
        for n in [1usize, 100, 2, 7] {
            for total in [0u64, 5, 1_000, 123_456_789] {
                split_bytes(&mut rng, total, n, &mut sizes);
                assert_eq!(sizes.len(), n);
                assert_eq!(sizes.iter().sum::<u64>(), total, "n={n} total={total}");
            }
        }
    }

    #[test]
    fn split_is_heavy_tailed() {
        let mut rng = SplitMix::new(2);
        let mut sorted = Vec::new();
        split_bytes(&mut rng, 1_000_000_000, 1_000, &mut sorted);
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = sorted.iter().take(100).sum(); // top 10%
        let total: u64 = sorted.iter().sum();
        assert!(
            top10 as f64 > 0.4 * total as f64,
            "top decile carries {:.2} of bytes — not heavy-tailed",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn pareto_bounds() {
        let mut rng = SplitMix::new(3);
        let pareto = BoundedPareto::new(SIZE_ALPHA, 100.0);
        for _ in 0..10_000 {
            let x = pareto.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn packets_plausible() {
        let mut rng = SplitMix::new(4);
        assert_eq!(packets_for(&mut rng, 0), 0);
        for bytes in [1u64, 1_500, 1_000_000] {
            let p = packets_for(&mut rng, bytes);
            assert!(p >= 1);
            assert!(
                p <= bytes.max(1),
                "more packets than bytes: {p} for {bytes}"
            );
        }
    }

    #[test]
    fn duration_bounds() {
        let mut rng = SplitMix::new(5);
        for _ in 0..1_000 {
            let d = duration_secs(&mut rng, 3_600);
            assert!(d <= 3_600);
        }
        // Degenerate cap.
        assert_eq!(duration_secs(&mut rng, 0), 1);
    }

    #[test]
    fn short_flows_dominate_durations() {
        let mut rng = SplitMix::new(6);
        let short = (0..10_000)
            .filter(|_| duration_secs(&mut rng, 3_600) < 60)
            .count();
        assert!(short > 4_000, "only {short} short flows of 10000");
    }
}
