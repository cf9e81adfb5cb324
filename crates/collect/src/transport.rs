//! Fault-injecting datagram transport.
//!
//! Models the UDP path between exporter and collector: each datagram's
//! drop or duplicate fate, and each adjacent swap, is decided by
//! [`lockdown_base::fault::Schedule`] keyed on the cell and the datagram's
//! index — the one drop/dup body the UDP proxy calls too — so a given
//! `(seed, profile, cell)` always yields the same delivery schedule, and a
//! datagram's fate never depends on the fates before it.
//!
//! A dropped datagram is never duplicated, so the ground-truth count of
//! lost records is exactly the record total of dropped datagrams. This
//! makes the transport report an exact reference for validating
//! collector-side loss estimates.

use crate::fleet::WireDatagram;
use lockdown_base::fault::{DatagramFault, FaultProfile, Schedule};

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
    schedule: Schedule,
    cell: u64,
}

impl Transport {
    /// A transport applying `profile` to the datagrams of the cell keyed
    /// `cell`.
    pub fn new(profile: FaultProfile, cell: u64) -> Transport {
        Transport {
            schedule: Schedule::new(profile),
            cell,
        }
    }

    /// Push a datagram sequence through the faulty path, returning what the
    /// collector will actually see plus the ground-truth fault report.
    pub fn deliver(self, datagrams: Vec<WireDatagram>) -> (Vec<WireDatagram>, TransportReport) {
        let mut report = TransportReport::default();
        let mut out = Vec::with_capacity(datagrams.len());
        for (i, dg) in datagrams.into_iter().enumerate() {
            match self.schedule.datagram(self.cell, i as u64, dg.bytes.len()) {
                DatagramFault::Drop => {
                    report.dropped_datagrams += 1;
                    report.dropped_records += u64::from(dg.records);
                    report.dropped_bytes += dg.flow_bytes;
                    report.dropped_packets += dg.flow_packets;
                    continue;
                }
                DatagramFault::Duplicate => {
                    report.duplicated += 1;
                    report.duplicated_records += u64::from(dg.records);
                    out.push(dg.clone());
                }
                // Byte faults are the proxies' (no `figures --wire` key).
                _ => {}
            }
            out.push(dg);
        }
        for i in 1..out.len() {
            if self.schedule.reorders(self.cell, i as u64) {
                out.swap(i - 1, i);
                report.reordered += 1;
            }
        }
        report.delivered = out.len() as u64;
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_base::prop::cases;

    /// `n` datagrams carrying `1 + i % 7` records each, tagged with their
    /// index so a test can tell which survived.
    fn dgs(n: u32) -> Vec<WireDatagram> {
        (0..n)
            .map(|i| WireDatagram {
                domain: 1,
                records: 1 + i % 7,
                flow_bytes: 1_000 * u64::from(1 + i % 7),
                flow_packets: 20 * u64::from(1 + i % 7),
                bytes: i.to_be_bytes().to_vec(),
            })
            .collect()
    }

    fn index(dg: &WireDatagram) -> u32 {
        u32::from_be_bytes(dg.bytes[..4].try_into().unwrap())
    }

    /// The indices `deliver` dropped: those absent from its output.
    fn dropped(n: u32, profile: FaultProfile, cell: u64) -> (Vec<u32>, TransportReport) {
        let (out, report) = Transport::new(profile, cell).deliver(dgs(n));
        let seen: std::collections::BTreeSet<u32> = out.iter().map(index).collect();
        ((0..n).filter(|i| !seen.contains(i)).collect(), report)
    }

    /// The indices `base::fault` drops, without running the transport.
    fn predicted(n: u32, profile: FaultProfile, cell: u64) -> Vec<u32> {
        let s = Schedule::new(profile);
        (0..n)
            .filter(|&i| s.datagram(cell, u64::from(i), 4) == DatagramFault::Drop)
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

    /// Same seed and cell, same schedule; another seed or another cell,
    /// another one.
    #[test]
    fn same_seed_same_schedule() {
        let profile = FaultProfile {
            seed: 7,
            drop: 0.2,
            dup: 0.1,
            reorder: 0.15,
            ..FaultProfile::zero()
        };
        let (a, ra) = Transport::new(profile, 7).deliver(dgs(200));
        let (b, rb) = Transport::new(profile, 7).deliver(dgs(200));
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        let reseeded = FaultProfile { seed: 8, ..profile };
        assert_ne!(a, Transport::new(reseeded, 7).deliver(dgs(200)).0);
        assert_ne!(a, Transport::new(profile, 8).deliver(dgs(200)).0);
    }

    /// The report is the exact ground truth of the schedule: the dropped
    /// set is the one `base::fault` predicts, and every tally sums over it.
    #[test]
    fn dropped_records_match_dropped_datagrams() {
        cases(24, |rng, _| {
            let profile = FaultProfile {
                seed: rng.next_u64(),
                drop: 0.05 + 0.5 * rng.next_f64(),
                dup: 0.3 * rng.next_f64(),
                reorder: 0.3 * rng.next_f64(),
                ..FaultProfile::zero()
            };
            let (cell, n) = (rng.next_u64(), 300);
            let (lost, report) = dropped(n, profile, cell);
            assert_eq!(lost, predicted(n, profile, cell), "the keyed drop set");
            assert!(!lost.is_empty(), "seeded loss should fire");
            let input = dgs(n);
            let sum = |f: fn(&WireDatagram) -> u64| -> u64 {
                lost.iter().map(|&i| f(&input[i as usize])).sum()
            };
            assert_eq!(report.dropped_datagrams, lost.len() as u64);
            assert_eq!(report.dropped_records, sum(|d| u64::from(d.records)));
            assert_eq!(report.dropped_bytes, sum(|d| d.flow_bytes));
            assert_eq!(report.dropped_packets, sum(|d| d.flow_packets));
            assert_eq!(
                report.delivered,
                u64::from(n) - report.dropped_datagrams + report.duplicated
            );
        });
    }

    /// A datagram's fate does not depend on the fates before it. Raising
    /// the drop probability forces earlier datagrams to drop that did not,
    /// and a duplicate probability changes how many copies went before;
    /// every datagram dropped before is dropped still, and nothing else
    /// moves. A sequential stream, whose draws shift with every earlier
    /// fate, fails both.
    #[test]
    fn fates_are_independent_of_earlier_fates() {
        cases(24, |rng, _| {
            let p = 0.05 + 0.3 * rng.next_f64();
            let profile = FaultProfile {
                seed: rng.next_u64(),
                drop: p,
                ..FaultProfile::zero()
            };
            let (cell, n) = (rng.next_u64(), 300);
            let (base, _) = dropped(n, profile, cell);
            let dupped = FaultProfile {
                dup: 0.5,
                ..profile
            };
            assert_eq!(dropped(n, dupped, cell).0, base, "duplicates move no drop");
            let forced = FaultProfile {
                drop: p + 0.3,
                ..profile
            };
            let (more, _) = dropped(n, forced, cell);
            assert!(more.len() > base.len(), "a wider band forces drops");
            assert!(base.iter().all(|i| more.contains(i)), "a drop stays a drop");
            assert_eq!(more, predicted(n, forced, cell));
        });
    }
}
