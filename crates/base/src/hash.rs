//! splitmix64: the one mixer behind every seeded schedule, fingerprint
//! and generated flow.
//!
//! Flow streams, fault schedules, archive keys and scenario fingerprints
//! are part of the deterministic-output contract ("same seed, same
//! figures"), so they are built from this fixed algorithm and never from
//! an external crate's stream. Each caller keeps its own initial constant
//! (its domain) and passes it to [`fold`]; a stream is addressed by
//! folding its coordinates, `SplitMix::new(fold(INIT, [seed, …]))`, never
//! by `seed ^ small_const`. Constants and first draws are pinned in this
//! module's tests.

use std::ops::Range;

/// Weyl increment of the splitmix64 sequence (the golden ratio, 2^64/φ).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 step: advance `x` by the Weyl increment and finalize.
/// A well-mixed 64 → 64 bijection.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The splitmix64 stream: successive [`splitmix64`] outputs over a Weyl
/// sequence started at the seed.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// The next 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// The next uniform draw in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Uniform in `[0, n)` for `n > 0`. Like every draw below it consumes
    /// a fixed number of outputs — one, by multiply-shift, with no
    /// rejection loop (the bias is below `n / 2^64`) — so a stream's
    /// position never depends on the values drawn.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "cannot draw below zero");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in the half-open, non-empty `range`.
    #[inline]
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        range.start + self.below(range.end - range.start)
    }

    /// `true` with probability `p`: never at `0.0`, always at `1.0`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// One element of the non-empty `from`, uniformly.
    #[inline]
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place: `len - 1` draws.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Fold `parts` into one hash, chaining `acc = splitmix64(acc ^ part)`
/// from the caller's initial constant. Order-sensitive; a pure function
/// of `(init, parts)`, never of call order or thread.
#[inline]
pub fn fold(init: u64, parts: impl IntoIterator<Item = u64>) -> u64 {
    parts
        .into_iter()
        .fold(init, |acc, part| splitmix64(acc ^ part))
}

/// Multiplicative (Fibonacci) hashing of an integer key: the top `bits`
/// bits of `key × GAMMA`, the splitmix64 increment, as an index into a
/// table of `2^bits` entries (`bits` in `1..64`). One multiply spreads
/// consecutive or clustered keys (ASNs, ports) over the whole table. It is
/// unkeyed: for keys the program counts, not keys an adversary chooses.
#[inline]
pub fn mul_index(key: u64, bits: u32) -> usize {
    (key.wrapping_mul(GAMMA) >> (64 - bits)) as usize
}

/// Map a hash to a uniform draw in `[0, 1)` from its top 53 bits.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // First output of the reference generator seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(SplitMix::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    /// One value per historical initial constant, each computed with the
    /// private copy the caller carried before this crate existed. A fold
    /// that drifts moves every schedule or fingerprint of that domain;
    /// the failing assertion names which.
    #[test]
    fn historical_folds_are_pinned() {
        for (domain, init, want) in [
            (
                "traffic plan / chaos (0x243F…)",
                0x243F_6A88_85A3_08D3u64,
                0xCD8D_7059_9191_4EA1u64,
            ),
            (
                "wirechaos (0x10cd…)",
                0x10cd_d047_2020_c4a5,
                0x2652_AE59_ECD1_2BF8,
            ),
            (
                "collect cell seed (0x517C…)",
                0x51_7C_C1_B7_27_22_0A_95,
                0x9D2D_29D5_4055_0453,
            ),
        ] {
            assert_eq!(fold(init, [1, 2, 3]), want, "{domain} fold drifted");
        }
        // `ScenarioSpec::fingerprint` pre-multiplies each part by the
        // golden ratio at the call site.
        assert_eq!(
            fold(
                0x5CE9_A810_2020_0001,
                [1u64, 2, 3].map(|v| v.wrapping_mul(GAMMA))
            ),
            0x62AE_7004_C41E_F816,
            "scenario fingerprint fold drifted"
        );
        // A stream seeded directly, as `prop::cases` seeds a case.
        let mut r = SplitMix::new(42);
        assert_eq!(r.next_u64(), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(r.next_u64(), 0x28EF_E333_B266_F103);
        assert_eq!(SplitMix::new(7).next_f64().to_bits(), 4600694168356277378);
        assert!(unit(0) == 0.0 && unit(u64::MAX) < 1.0);
    }

    /// The anchor of the generator re-baseline: the first output of every
    /// draw. One that drifts moves every flow, so it also means bumping
    /// `lockdown_traffic::config::GENERATOR_STREAM`.
    #[test]
    fn first_draws_are_pinned() {
        let rng = || SplitMix::new(2020);
        assert_eq!(rng().next_u64(), 0xD812_1ACC_BF8B_8A0E);
        assert_eq!(rng().next_f64().to_bits(), 4605777532205658481);
        assert_eq!(rng().below(1_000), 844);
        assert_eq!(rng().range(32_768..61_000), 56_596);
        assert!(!rng().chance(0.5) && rng().chance(0.85));
        assert_eq!(rng().pick(&[25u16, 110, 143, 465, 587, 993, 995]), 993);
        let mut deck = [0u8, 1, 2, 3, 4, 5, 6, 7];
        rng().shuffle(&mut deck);
        assert_eq!(deck, [3, 7, 5, 0, 1, 2, 4, 6]);
    }

    #[test]
    fn mul_index_spreads_consecutive_keys() {
        assert_eq!(mul_index(0, 8), 0);
        assert_eq!(mul_index(1, 8), (GAMMA >> 56) as usize);
        // 256 consecutive keys over a 1024-entry table: no index repeats.
        let mut seen = [false; 1_024];
        for key in 64_496..64_496 + 256 {
            let i = mul_index(key, 10);
            assert!(!seen[i], "key {key} repeats index {i}");
            seen[i] = true;
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut rng = SplitMix::new(3);
        let mut seen = [false; 7];
        for _ in 0..2_000 {
            seen[rng.below(7) as usize] = true;
            assert!((32_768..61_000).contains(&rng.range(32_768..61_000)));
            assert_eq!(rng.below(1), 0);
            assert_eq!(rng.range(9..10), 9);
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn chance_tracks_its_probability() {
        let mut rng = SplitMix::new(4);
        for p in [0.125, 0.5, 0.85] {
            let hits = (0..100_000).filter(|_| rng.chance(p)).count() as f64;
            assert!(
                (hits / 100_000.0 - p).abs() < 0.01,
                "{hits} hits at p = {p}"
            );
        }
        assert!((0..10_000).all(|_| rng.chance(1.0) && !rng.chance(0.0)));
    }

    #[test]
    fn shuffle_permutes_and_pick_returns_members() {
        let mut rng = SplitMix::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        rng.shuffle::<u32>(&mut []);
        let mut picked = [0u32; 4];
        for _ in 0..400 {
            picked[rng.pick(&[0usize, 1, 2, 3])] += 1;
        }
        assert!(picked.iter().all(|&n| n > 50), "{picked:?}");
        // Every draw but `shuffle` advances the stream by exactly one.
        let (mut a, mut b) = (SplitMix::new(6), SplitMix::new(6));
        let _ = (a.below(9), a.range(2..5), a.chance(0.3), a.pick(&[1, 2]));
        let _ = [(); 4].map(|()| b.next_u64());
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
