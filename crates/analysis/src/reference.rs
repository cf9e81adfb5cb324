//! The sparse forms of the three keyed accumulators, as they were before
//! dense slots: `PortProfile` as two `BTreeMap`s, `AsDayTotals` as a
//! SipHash `HashMap`, and the hypergiant split's per-run fold with
//! `Option` sides and a scan of Table 2. Each is the one reference its
//! dense form is held to: over random and foreign records, equal
//! `encode_frame` bytes and equal accessors, alone and fed both halves
//! in either order.

use crate::asgroup::{AsDayTotals, DayPart, HypergiantSplit, RatioGroup};
use crate::codec::{self, encode_frame, CodecError, ConsumerTag, StateReader};
use crate::consumer::{AsTotalsConsumer, FlowConsumer, HypergiantConsumer, PortConsumer};
use crate::ports::{tcp443, tcp80, ServiceKey};
use crate::support;
use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::protocol::IpProtocol;
use lockdown_flow::record::{FlowRecord, HourRun};
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_scenario::calendar::{day_type, DayType};
use lockdown_topology::asn::{Asn, Region};
use lockdown_topology::hypergiants::HYPERGIANTS;
use std::collections::{BTreeMap, HashMap, HashSet};

/// [`PortConsumer`] as `(service, weekend, hour)` and service `BTreeMap`s.
#[derive(Debug)]
struct SparsePorts {
    bins: BTreeMap<(ServiceKey, bool, u8), u64>,
    totals: BTreeMap<ServiceKey, u64>,
    region: Region,
}

impl SparsePorts {
    fn new(region: Region) -> SparsePorts {
        SparsePorts {
            bins: BTreeMap::new(),
            totals: BTreeMap::new(),
            region,
        }
    }

    fn total(&self, key: ServiceKey) -> u64 {
        self.totals.get(&key).copied().unwrap_or(0)
    }

    fn top_services(&self, n: usize, exclude: &[ServiceKey]) -> Vec<ServiceKey> {
        let mut entries: Vec<(&ServiceKey, &u64)> = self
            .totals
            .iter()
            .filter(|(k, _)| !exclude.contains(k))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        entries.into_iter().take(n).map(|(k, _)| *k).collect()
    }

    fn share_of(&self, keys: &[ServiceKey]) -> f64 {
        let selected: u64 = keys.iter().map(|k| self.total(*k)).sum();
        let all: u64 = self.totals.values().sum();
        if all == 0 {
            0.0
        } else {
            selected as f64 / all as f64
        }
    }
}

impl FlowConsumer for SparsePorts {
    fn observe_run(&mut self, run: &HourRun<'_>) {
        let weekend = day_type(run.date, self.region) != DayType::Workday;
        for record in run.records {
            if let Some(key) = ServiceKey::of(record) {
                *self.bins.entry((key, weekend, run.hour)).or_insert(0) += record.bytes;
                *self.totals.entry(key).or_insert(0) += record.bytes;
            }
        }
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_PORT_CONSUMER
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let put_key = |out: &mut Vec<u8>, key: ServiceKey| match key {
            ServiceKey::Port(proto, port) => {
                out.extend_from_slice(&[0, proto]);
                out.put_u16_be(port);
            }
            ServiceKey::Protocol(proto) => out.extend_from_slice(&[1, proto]),
        };
        out.put_u64_be(self.bins.len() as u64);
        for ((key, weekend, hour), bytes) in &self.bins {
            put_key(out, *key);
            out.extend_from_slice(&[u8::from(*weekend), *hour]);
            out.put_u64_be(*bytes);
        }
        out.put_u64_be(self.totals.len() as u64);
        for (key, bytes) in &self.totals {
            put_key(out, *key);
            out.put_u64_be(*bytes);
        }
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        Err(r.error(REFERENCE_ONLY))
    }
}

/// [`AsTotalsConsumer`] as a SipHash `HashMap` of `(workday, weekend)`.
#[derive(Debug)]
struct SparseAsTotals {
    totals: HashMap<u32, (u64, u64)>,
    days_seen: (HashSet<i64>, HashSet<i64>),
    region: Region,
    require_asn: Option<u32>,
}

impl SparseAsTotals {
    fn new(region: Region, require_asn: Option<u32>) -> SparseAsTotals {
        SparseAsTotals {
            totals: HashMap::new(),
            days_seen: (HashSet::new(), HashSet::new()),
            region,
            require_asn,
        }
    }

    fn group_of(&self, asn: Asn) -> Option<RatioGroup> {
        let (wd_bytes, we_bytes) = self.totals.get(&asn.0).copied()?;
        let wd_days = self.days_seen.0.len() as f64;
        let we_days = self.days_seen.1.len() as f64;
        if wd_days == 0.0 || we_days == 0.0 {
            return None;
        }
        let wd_rate = wd_bytes as f64 / wd_days;
        let we_rate = we_bytes as f64 / we_days;
        if we_rate == 0.0 && wd_rate == 0.0 {
            return None;
        }
        let ratio = if we_rate == 0.0 {
            f64::INFINITY
        } else {
            wd_rate / we_rate
        };
        Some(if ratio > 1.3 {
            RatioGroup::WorkdayDominated
        } else if ratio < 0.8 {
            RatioGroup::WeekendDominated
        } else {
            RatioGroup::Balanced
        })
    }

    fn in_group(&self, group: RatioGroup) -> Vec<Asn> {
        let mut out: Vec<Asn> = (self.totals.keys())
            .map(|&a| Asn(a))
            .filter(|&a| self.group_of(a) == Some(group))
            .collect();
        out.sort();
        out
    }

    fn mean_daily_bytes(&self, asn: Asn) -> f64 {
        let Some(&(wd, we)) = self.totals.get(&asn.0) else {
            return 0.0;
        };
        let days = (self.days_seen.0.len() + self.days_seen.1.len()).max(1) as f64;
        (wd + we) as f64 / days
    }
}

impl FlowConsumer for SparseAsTotals {
    fn observe_run(&mut self, run: &HourRun<'_>) {
        let weekend = day_type(run.date, self.region).is_weekend_like();
        for record in run.records {
            if self
                .require_asn
                .is_some_and(|a| record.src_as != a && record.dst_as != a)
            {
                continue;
            }
            for asn in [record.src_as, record.dst_as] {
                if asn == 0 {
                    continue;
                }
                let entry = self.totals.entry(asn).or_insert((0, 0));
                if weekend {
                    entry.1 += record.bytes;
                } else {
                    entry.0 += record.bytes;
                }
            }
            let days = if weekend {
                &mut self.days_seen.1
            } else {
                &mut self.days_seen.0
            };
            days.insert(run.day_number);
        }
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_AS_TOTALS_CONSUMER
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let mut asns: Vec<u32> = self.totals.keys().copied().collect();
        asns.sort_unstable();
        out.put_u64_be(asns.len() as u64);
        for asn in asns {
            let (wd, we) = self.totals[&asn];
            out.put_u32_be(asn);
            out.put_u64_be(wd);
            out.put_u64_be(we);
        }
        for set in [&self.days_seen.0, &self.days_seen.1] {
            let mut sorted: Vec<i64> = set.iter().copied().collect();
            sorted.sort_unstable();
            out.put_u64_be(sorted.len() as u64);
            for d in sorted {
                codec::put_i64(out, d);
            }
        }
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        Err(r.error(REFERENCE_ONLY))
    }
}

/// [`HypergiantConsumer`] folding each flow into `Option` sides, its
/// content AS looked up by a scan of Table 2.
#[derive(Debug)]
struct SparseSplit {
    split: HypergiantSplit,
    region: Region,
    eyeball: Asn,
}

impl FlowConsumer for SparseSplit {
    fn observe_run(&mut self, run: &HourRun<'_>) {
        let Some(part) = DayPart::of(run.date, run.hour, self.region) else {
            return;
        };
        for record in run.records {
            let content_asn = if record.src_as == self.eyeball.0 {
                Asn(record.dst_as)
            } else {
                Asn(record.src_as)
            };
            let hg = HYPERGIANTS.iter().any(|h| h.asn == content_asn);
            let mut sides: [Option<u64>; 2] = [None; 2];
            *sides[usize::from(hg)].get_or_insert(0) += record.bytes;
            self.split.add_sides(run, part, sides);
        }
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_HYPERGIANT_CONSUMER
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.split.encode_split(out);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        Err(r.error(REFERENCE_ONLY))
    }
}

/// A reference is held to its dense form's frames and accessors; it is
/// never merged.
const REFERENCE_ONLY: &str = "a reference form is never merged";

/// `a` and `b` fed their records, then both in either order.
fn fed_in_both_orders<C: FlowConsumer>(
    make: impl Fn() -> C,
    a: &[FlowRecord],
    b: &[FlowRecord],
) -> [C; 4] {
    let (mut ca, mut cb, mut ab, mut ba) = (make(), make(), make(), make());
    ca.observe_all(a);
    cb.observe_all(b);
    for (c, first, then) in [(&mut ab, a, b), (&mut ba, b, a)] {
        c.observe_all(first);
        c.observe_all(then);
    }
    [ca, cb, ab, ba]
}

/// Seeded flows around the calendar's edges, five in nine made foreign: a
/// port-less or unknown protocol, ephemeral ports on one or both sides,
/// ASN 0 or one past 16 bits.
fn records(rng: &mut SplitMix, n: usize) -> Vec<FlowRecord> {
    // Maundy Thursday to Easter Monday; ISO week 52 of 2019 into week 1;
    // a plain lockdown week.
    let from = rng.pick(&[
        Date::new(2020, 4, 9),
        Date::new(2019, 12, 28),
        Date::new(2020, 3, 23),
    ]);
    let mut out = support::flows(rng, n, from.at_hour(0), 5 * 86_400);
    for r in &mut out {
        match rng.below(9) {
            0 => {
                r.key.protocol =
                    rng.pick(&[IpProtocol::Gre, IpProtocol::Esp, IpProtocol::Other(132)])
            }
            1 => {
                (r.key.src_port, r.key.dst_port) = (
                    rng.range(32_768..65_536) as u16,
                    rng.range(32_768..65_536) as u16,
                )
            }
            2 => r.key.dst_port = rng.range(32_768..65_536) as u16,
            3 => r.src_as = rng.pick(&[0, 65_536, 4_200_000_000, u32::MAX]),
            4 => r.dst_as = rng.range(65_536..1 << 32) as u32,
            _ => {}
        }
    }
    out
}

/// Service keys the records may or may not have reached.
const PROBE_KEYS: [ServiceKey; 7] = [
    ServiceKey::Port(6, 443),
    ServiceKey::Port(6, 80),
    ServiceKey::Port(17, 443),
    ServiceKey::Port(17, 40_000),
    ServiceKey::Protocol(47),
    ServiceKey::Protocol(50),
    ServiceKey::Protocol(132),
];

#[test]
fn dense_forms_match_their_sparse_references() {
    cases(48, |rng, size| {
        let flows = records(rng, 4 * size);
        let (a, b) = flows.split_at(rng.below(flows.len() as u64 + 1) as usize);
        for region in [Region::CentralEurope, Region::UsEast] {
            let dense = fed_in_both_orders(|| PortConsumer::new(region), a, b);
            let sparse = fed_in_both_orders(|| SparsePorts::new(region), a, b);
            for (d, s) in dense.iter().zip(&sparse) {
                assert_eq!(encode_frame(d), encode_frame(s), "PortConsumer frame");
                let d = &d.profile;
                for key in s.totals.keys().chain(&PROBE_KEYS) {
                    assert_eq!(d.total(*key), s.total(*key), "total of {key}");
                }
                for n in [0, 3, 12, s.totals.len() + 1] {
                    for exclude in [&[][..], &[tcp443(), tcp80()], &PROBE_KEYS] {
                        assert_eq!(d.top_services(n, exclude), s.top_services(n, exclude));
                        assert_eq!(d.share_of(exclude), s.share_of(exclude));
                    }
                }
            }

            for gate in [None, Some(support::EYEBALL), Some(0)] {
                let make = || match gate {
                    None => AsTotalsConsumer::all(region),
                    Some(asn) => AsTotalsConsumer::touching(region, Asn(asn)),
                };
                let dense = fed_in_both_orders(make, a, b);
                let sparse = fed_in_both_orders(|| SparseAsTotals::new(region, gate), a, b);
                for (d, s) in dense.iter().zip(&sparse) {
                    assert_eq!(encode_frame(d), encode_frame(s), "AsTotalsConsumer frame");
                    let d: &AsDayTotals = &d.totals;
                    for asn in s.totals.keys().copied().chain([0, 7, 15_169, u32::MAX]) {
                        assert_eq!(d.group_of(Asn(asn)), s.group_of(Asn(asn)), "AS{asn}");
                        assert_eq!(d.mean_daily_bytes(Asn(asn)), s.mean_daily_bytes(Asn(asn)));
                    }
                    for group in [
                        RatioGroup::WorkdayDominated,
                        RatioGroup::Balanced,
                        RatioGroup::WeekendDominated,
                    ] {
                        assert_eq!(d.in_group(group), s.in_group(group));
                    }
                }
            }

            let eyeball = Asn(support::EYEBALL);
            let dense = fed_in_both_orders(|| HypergiantConsumer::new(region, eyeball), a, b);
            let sparse = fed_in_both_orders(
                || SparseSplit {
                    split: HypergiantSplit::new(),
                    region,
                    eyeball,
                },
                a,
                b,
            );
            for (d, s) in dense.iter().zip(&sparse) {
                assert_eq!(encode_frame(d), encode_frame(s), "HypergiantConsumer frame");
                for (week, part, hg) in (0..=53).flat_map(|w| {
                    DayPart::ALL
                        .into_iter()
                        .flat_map(move |p| [(w, p, false), (w, p, true)])
                }) {
                    assert_eq!(d.split.get(week, part, hg), s.split.get(week, part, hg));
                    assert_eq!(
                        d.split.mean_daily(week, part, hg),
                        s.split.mean_daily(week, part, hg)
                    );
                }
            }
        }
    });
}
