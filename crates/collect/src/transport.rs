//! Fault-injecting datagram transport.
//!
//! Models the UDP path between exporter and collector with three seeded
//! fault classes — drop, duplicate, and adjacent reorder — plus the restart
//! cadence the fleet applies to its exporters. Faults are decided by a
//! splitmix64 stream over the per-cell seed, so a given `(seed, profile)`
//! pair always yields the same delivery schedule.
//!
//! Drops are decided *first*, before duplication, so the ground-truth count
//! of lost records is exactly the record total of dropped datagrams: a
//! dropped datagram never leaves a duplicate behind, and a duplicated
//! datagram is never retroactively dropped. This makes the transport report
//! an exact reference for validating collector-side loss estimates.

use crate::fleet::WireDatagram;
use lockdown_base::hash::SplitMix;

/// Probabilities and cadences for injected faults. All probabilities are
/// per-datagram and clamped to `[0, 0.95]` on construction paths that parse
/// user input; `FaultProfile::zero()` is the identity transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability that a datagram is dropped in flight.
    pub loss: f64,
    /// Probability that a delivered datagram is followed by a duplicate.
    pub duplicate: f64,
    /// Probability that adjacent delivered datagrams are swapped.
    pub reorder: f64,
    /// Restart each exporter after this many emitted datagrams
    /// (0 disables restarts). Applied by the fleet, not the transport,
    /// but carried here so one profile describes the whole fault surface.
    pub restart_every: u32,
}

impl FaultProfile {
    /// The identity profile: nothing dropped, duplicated, reordered or
    /// restarted. Wire mode with this profile must reproduce in-process
    /// figure output byte for byte.
    pub fn zero() -> FaultProfile {
        FaultProfile {
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            restart_every: 0,
        }
    }

    /// Whether this profile injects no faults at all.
    pub fn is_zero(&self) -> bool {
        self.loss == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0 && self.restart_every == 0
    }

    /// The largest fault probability a profile honours: a transport that
    /// drops everything would make loss accounting vacuous.
    pub const MAX_PROBABILITY: f64 = 0.95;

    /// Clamp probabilities into `[0, MAX_PROBABILITY]`.
    pub fn clamped(mut self) -> FaultProfile {
        for p in [&mut self.loss, &mut self.duplicate, &mut self.reorder] {
            if !p.is_finite() || *p < 0.0 {
                *p = 0.0;
            } else if *p > Self::MAX_PROBABILITY {
                *p = Self::MAX_PROBABILITY;
            }
        }
        self
    }
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::zero()
    }
}

/// Ground truth of what one transport pass did to a datagram sequence.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportReport {
    /// Datagrams delivered (duplicates included).
    pub delivered: u64,
    /// Datagrams dropped.
    pub dropped_datagrams: u64,
    /// Flow records inside dropped datagrams — the exact loss ground truth.
    pub dropped_records: u64,
    /// Flow-record byte counters inside dropped datagrams.
    pub dropped_bytes: u64,
    /// Flow-record packet counters inside dropped datagrams.
    pub dropped_packets: u64,
    /// Duplicates injected.
    pub duplicated: u64,
    /// Flow records inside injected duplicates — what a collector that
    /// failed to deduplicate would double-count.
    pub duplicated_records: u64,
    /// Adjacent swaps applied.
    pub reordered: u64,
}

/// A seeded single-use transport for one cell's datagram sequence.
#[derive(Debug)]
pub struct Transport {
    profile: FaultProfile,
    rng: SplitMix,
}

impl Transport {
    /// A transport applying `profile`, seeded for one cell.
    pub fn new(profile: FaultProfile, seed: u64) -> Transport {
        Transport {
            profile,
            rng: SplitMix::new(seed),
        }
    }

    /// Push a datagram sequence through the faulty path, returning what the
    /// collector will actually see plus the ground-truth fault report.
    pub fn deliver(mut self, datagrams: Vec<WireDatagram>) -> (Vec<WireDatagram>, TransportReport) {
        let mut report = TransportReport::default();
        let mut out = Vec::with_capacity(datagrams.len());
        for dg in datagrams {
            if self.profile.loss > 0.0 && self.rng.next_f64() < self.profile.loss {
                report.dropped_datagrams += 1;
                report.dropped_records += u64::from(dg.records);
                report.dropped_bytes += dg.flow_bytes;
                report.dropped_packets += dg.flow_packets;
                continue;
            }
            let duplicate =
                self.profile.duplicate > 0.0 && self.rng.next_f64() < self.profile.duplicate;
            if duplicate {
                report.duplicated += 1;
                report.duplicated_records += u64::from(dg.records);
                out.push(dg.clone());
            }
            out.push(dg);
        }
        if self.profile.reorder > 0.0 {
            for i in 1..out.len() {
                if self.rng.next_f64() < self.profile.reorder {
                    out.swap(i - 1, i);
                    report.reordered += 1;
                }
            }
        }
        report.delivered = out.len() as u64;
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dgs(n: u32) -> Vec<WireDatagram> {
        (0..n)
            .map(|i| WireDatagram {
                domain: 1,
                records: 10,
                flow_bytes: 1_000,
                flow_packets: 20,
                bytes: vec![i as u8; 4],
            })
            .collect()
    }

    #[test]
    fn zero_profile_is_identity() {
        let input = dgs(50);
        let (out, report) = Transport::new(FaultProfile::zero(), 99).deliver(input.clone());
        assert_eq!(out, input);
        assert_eq!(report.dropped_datagrams, 0);
        assert_eq!(report.duplicated, 0);
        assert_eq!(report.reordered, 0);
        assert_eq!(report.delivered, 50);
    }

    #[test]
    fn same_seed_same_schedule() {
        let profile = FaultProfile {
            loss: 0.2,
            duplicate: 0.1,
            reorder: 0.15,
            restart_every: 0,
        };
        let (a, ra) = Transport::new(profile, 7).deliver(dgs(200));
        let (b, rb) = Transport::new(profile, 7).deliver(dgs(200));
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        let (c, _) = Transport::new(profile, 8).deliver(dgs(200));
        assert_ne!(a, c);
    }

    #[test]
    fn dropped_records_match_dropped_datagrams() {
        let profile = FaultProfile {
            loss: 0.3,
            duplicate: 0.2,
            reorder: 0.0,
            restart_every: 0,
        };
        let (out, report) = Transport::new(profile, 3).deliver(dgs(500));
        // Every datagram carries 10 records; ground truth must be exact.
        assert_eq!(report.dropped_records, report.dropped_datagrams * 10);
        assert_eq!(report.dropped_bytes, report.dropped_datagrams * 1_000);
        assert_eq!(report.dropped_packets, report.dropped_datagrams * 20);
        assert_eq!(report.duplicated_records, report.duplicated * 10);
        assert!(report.dropped_datagrams > 0, "seeded loss should fire");
        assert_eq!(
            out.len() as u64,
            500 - report.dropped_datagrams + report.duplicated
        );
    }

    #[test]
    fn clamp_bounds_probabilities() {
        let p = FaultProfile {
            loss: 2.0,
            duplicate: -1.0,
            reorder: f64::NAN,
            restart_every: 5,
        }
        .clamped();
        assert_eq!(p.loss, 0.95);
        assert_eq!(p.duplicate, 0.0);
        assert_eq!(p.reorder, 0.0);
    }
}
