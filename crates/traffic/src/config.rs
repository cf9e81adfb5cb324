//! Generator configuration and scaling knobs.

use crate::plan::{Stream, FINGERPRINT_INIT};
use lockdown_base::hash::{fold, SplitMix};
use lockdown_flow::time::Date;

/// Version of everything that shapes a flow and is code, not a knob or
/// scenario data: bump it whenever a draw is added, dropped, reordered or
/// re-seeded (here, in the DNS corpus or in `lockdown_base::hash`) or a
/// calibration constant of the demand model moves. Folded into
/// [`GeneratorConfig::scenario_hash`], so an archive spilled by a build
/// that generated differently is recreated, not replayed.
pub const GENERATOR_STREAM: u64 = 1;

/// Initial constant of the cell-stream fold (e's fractional digits).
const CELL_INIT: u64 = 0xB7E1_5162_8AED_2A6A;

/// Tuning knobs for the synthetic trace generator.
///
/// The real vantage points carry Tbps and billions of flows; a reproduction
/// must *scale down* without changing the statistics any figure depends on.
/// Every figure in the paper is either normalized (volumes relative to a
/// baseline) or a ratio, so a global flows-per-volume scale cancels out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Master RNG seed; all generation is deterministic given this.
    pub seed: u64,
    /// Flow records generated per Gbps of expected hourly demand. Higher
    /// values give smoother statistics at linear cost.
    pub flows_per_gbps: f64,
    /// Online-user population per Gbps of demand, controlling unique-IP
    /// statistics (Fig. 8 counts distinct addresses).
    pub users_per_gbps: f64,
    /// Lower bound on flows per non-empty (class, hour) cell so tiny
    /// classes stay observable.
    pub min_flows: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0x10CD_07E0,
            flows_per_gbps: 0.35,
            users_per_gbps: 6.0,
            min_flows: 2,
        }
    }
}

impl GeneratorConfig {
    /// A configuration with a specific seed and default scaling.
    pub fn with_seed(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        }
    }

    /// A high-resolution configuration for this crate's statistics-hungry
    /// tests (port distributions, unique-IP counts).
    #[cfg(test)]
    pub(crate) fn high_resolution(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            seed,
            flows_per_gbps: 2.0,
            users_per_gbps: 25.0,
            min_flows: 4,
        }
    }

    /// A coarse configuration for long time-range sweeps (Fig. 1's
    /// 20 weeks × 7 vantage points).
    pub fn coarse(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            seed,
            flows_per_gbps: 0.1,
            users_per_gbps: 2.0,
            min_flows: 1,
        }
    }

    /// The stream one generation cell draws from, addressed by its
    /// coordinates (`class` numbers the streams inside a cell), so any
    /// cell regenerates bit-identically in isolation.
    pub(crate) fn cell_rng(&self, stream: Stream, class: u64, date: Date, hour: u8) -> SplitMix {
        SplitMix::new(fold(
            CELL_INIT,
            [
                self.seed,
                u64::from(stream.wire_id()),
                class,
                date.day_number() as u64,
                u64::from(hour),
            ],
        ))
    }

    /// Stable fingerprint of everything that shapes generated traffic
    /// *except* the seed (archives key on the seed separately): every
    /// knob and [`GENERATOR_STREAM`]. Two configurations hash equal exactly
    /// when they would emit identical cells for identical seeds, so an
    /// archive written at another fidelity or stream is never replayed.
    pub fn scenario_hash(&self) -> u64 {
        fold(
            FINGERPRINT_INIT,
            [
                GENERATOR_STREAM,
                self.flows_per_gbps.to_bits(),
                self.users_per_gbps.to_bits(),
                self.min_flows as u64,
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_hash_ignores_seed_but_not_scaling() {
        assert_eq!(
            GeneratorConfig::coarse(1).scenario_hash(),
            GeneratorConfig::coarse(99).scenario_hash()
        );
        assert_ne!(
            GeneratorConfig::coarse(1).scenario_hash(),
            GeneratorConfig::with_seed(1).scenario_hash()
        );
        assert_ne!(
            GeneratorConfig::with_seed(1).scenario_hash(),
            GeneratorConfig::high_resolution(1).scenario_hash()
        );
    }

    #[test]
    fn presets_ordered_by_resolution() {
        let c = GeneratorConfig::coarse(1);
        let d = GeneratorConfig::with_seed(1);
        let h = GeneratorConfig::high_resolution(1);
        assert!(c.flows_per_gbps < d.flows_per_gbps);
        assert!(d.flows_per_gbps < h.flows_per_gbps);
        assert_eq!(c.seed, h.seed);
    }
}
