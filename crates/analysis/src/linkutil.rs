//! IXP member port-utilization analysis (Fig. 5, §3.3).
//!
//! The paper compares, per IXP-CE customer port, the minimum, average and
//! maximum utilization (traffic relative to physical capacity) between the
//! base week and stage 2, finding every ECDF shifted right.
//!
//! The reproduction's traces are scaled down by a global factor, so raw
//! bytes cannot be divided by real port capacities directly. Instead the
//! analysis calibrates one sensor factor per member on the base day — such
//! that the member's base *average* utilization equals the fabric model's
//! baseline — and then applies that fixed calibration to any other day.
//! Growth (the thing Fig. 5 shows) is measured purely from flow data; the
//! member model only anchors the axis. Capacity upgrades between the two
//! dates lower utilization, exactly as a real port upgrade would.
//!
//! Per-bin resolution is one hour (the paper uses one minute; at the
//! reproduction's flow resolution minute bins would be mostly empty —
//! documented in EXPERIMENTS.md).

use crate::consumer::FlowConsumer;
use lockdown_flow::record::{FlowRecord, HourRun};
use lockdown_flow::time::{Date, SECS_PER_HOUR};
use lockdown_flow::wire::PutBe;
use lockdown_topology::asn::Asn;
use lockdown_topology::ixp::IxpFabric;
use std::collections::HashMap;

/// Min/avg/max utilization of one member port on one day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberUtilization {
    /// The member.
    pub asn: Asn,
    /// Minimum hourly utilization (fraction of capacity).
    pub min: f64,
    /// Mean hourly utilization.
    pub avg: f64,
    /// Maximum hourly utilization.
    pub max: f64,
}

/// Streaming per-AS hourly byte totals for one day. A flow counts toward
/// *both* endpoint ASes (the paper measures the member's *port*, which
/// both directions traverse); membership is filtered later, at
/// calibration/stats time, so this accumulator needs no fabric handle and
/// can be fed by the trace engine.
#[derive(Debug, Clone)]
pub struct AsHourly {
    date: Date,
    day_start_unix: u64,
    bins: HashMap<u32, [u64; 24]>,
}

impl AsHourly {
    /// An empty accumulator for one day.
    pub fn new(date: Date) -> AsHourly {
        AsHourly {
            date,
            day_start_unix: date.midnight().unix(),
            bins: HashMap::new(),
        }
    }

    /// The day being accumulated.
    pub(crate) fn date(&self) -> Date {
        self.date
    }

    /// Add one hour run: the hour slot is the run's (a run outside the
    /// day is ignored).
    pub(crate) fn add_run(&mut self, run: &HourRun<'_>) {
        let since_midnight = run.hour_start.unix().saturating_sub(self.day_start_unix);
        let hour = (since_midnight / SECS_PER_HOUR) as usize;
        if hour >= 24 {
            return;
        }
        for record in run.records {
            for asn in [record.src_as, record.dst_as] {
                if asn != 0 {
                    self.bins.entry(asn).or_insert([0; 24])[hour] += record.bytes;
                }
            }
        }
    }

    /// Shard-codec payload: the day number, then per-AS 24-hour rows
    /// sorted by ASN.
    pub(crate) fn encode_hourly(&self, out: &mut Vec<u8>) {
        crate::codec::put_i64(out, self.date.day_number());
        let mut asns: Vec<u32> = self.bins.keys().copied().collect();
        asns.sort_unstable();
        out.put_u64_be(asns.len() as u64);
        for asn in asns {
            out.put_u32_be(asn);
            for b in &self.bins[&asn] {
                out.put_u64_be(*b);
            }
        }
    }

    /// Decode a shard-codec payload and merge it additively. The encoded
    /// day must match this accumulator's day.
    pub(crate) fn merge_hourly(
        &mut self,
        r: &mut crate::codec::StateReader<'_>,
    ) -> Result<(), crate::codec::CodecError> {
        let day = r.i64("day number")?;
        if day != self.date.day_number() {
            return Err(r.error(format!(
                "day {day} does not match this accumulator's day {}",
                self.date.day_number()
            )));
        }
        let n = r.len("AS rows", 4 + 24 * 8)?;
        for _ in 0..n {
            let asn = r.u32("asn")?;
            let row = self.bins.entry(asn).or_insert([0; 24]);
            for slot in row.iter_mut() {
                *slot += r.u64("hour bytes")?;
            }
        }
        Ok(())
    }

    /// Accumulate a batch of flows.
    pub(crate) fn from_flows(flows: &[FlowRecord], date: Date) -> AsHourly {
        let mut h = AsHourly::new(date);
        h.observe_all(flows);
        h
    }

    /// One AS's 24 hourly totals, if it carried traffic.
    pub(crate) fn hours(&self, asn: Asn) -> Option<&[u64; 24]> {
        self.bins.get(&asn.0)
    }
}

/// Calibrated link-utilization analyzer for one IXP fabric.
#[derive(Debug)]
pub struct LinkUtilization<'a> {
    fabric: &'a IxpFabric,
    /// Per-member factor such that `bytes_per_hour × factor` is the
    /// absolute throughput in "capacity Gbps-equivalent" units.
    gbps_equivalent: HashMap<Asn, f64>,
}

impl<'a> LinkUtilization<'a> {
    /// Calibrate against a base day: each member's average utilization on
    /// `base_date` is anchored to its modelled baseline utilization.
    pub fn calibrate(fabric: &'a IxpFabric, base_flows: &[FlowRecord], base_date: Date) -> Self {
        Self::calibrate_hourly(fabric, &AsHourly::from_flows(base_flows, base_date))
    }

    /// Like [`LinkUtilization::calibrate`], from a pre-accumulated
    /// [`AsHourly`] (the engine's streaming path).
    pub fn calibrate_hourly(fabric: &'a IxpFabric, hourly: &AsHourly) -> Self {
        let base_date = hourly.date();
        let mut gbps_equivalent = HashMap::new();
        for m in &fabric.members {
            let Some(bins) = hourly.hours(m.asn) else {
                continue; // member silent in the base trace: uncalibratable
            };
            let avg_bytes = bins.iter().sum::<u64>() as f64 / 24.0;
            if avg_bytes > 0.0 {
                // avg_bytes/hour corresponds to base_utilization × capacity.
                let base_gbps = m.base_utilization * m.capacity_gbps(base_date);
                gbps_equivalent.insert(m.asn, base_gbps / avg_bytes);
            }
        }
        LinkUtilization {
            fabric,
            gbps_equivalent,
        }
    }

    /// Per-member min/avg/max utilization for one day of flows.
    /// Members without calibration or traffic that day are omitted.
    pub fn day_stats(&self, flows: &[FlowRecord], date: Date) -> Vec<MemberUtilization> {
        self.day_stats_hourly(&AsHourly::from_flows(flows, date))
    }

    /// Like [`LinkUtilization::day_stats`], from a pre-accumulated
    /// [`AsHourly`].
    pub fn day_stats_hourly(&self, hourly: &AsHourly) -> Vec<MemberUtilization> {
        let date = hourly.date();
        let mut out = Vec::new();
        for m in &self.fabric.members {
            let Some(factor) = self.gbps_equivalent.get(&m.asn) else {
                continue;
            };
            let Some(bins) = hourly.hours(m.asn) else {
                continue;
            };
            let capacity = m.capacity_gbps(date);
            let utils: Vec<f64> = bins
                .iter()
                .map(|&b| ((b as f64) * factor / capacity).min(1.0))
                .collect();
            let min = utils.iter().copied().fold(f64::INFINITY, f64::min);
            let max = utils.iter().copied().fold(0.0f64, f64::max);
            let avg = utils.iter().sum::<f64>() / utils.len() as f64;
            out.push(MemberUtilization {
                asn: m.asn,
                min,
                avg,
                max,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::protocol::IpProtocol;
    use lockdown_flow::record::{Direction, FlowKey};
    use lockdown_topology::registry::Registry;
    use lockdown_topology::vantage::VantagePoint;
    use std::net::Ipv4Addr;

    /// Hand-build flows giving each of the first `n` members a flat
    /// `bytes_per_hour` for all 24 hours of `date`, scaled by `factor`.
    fn flat_day(fabric: &IxpFabric, n: usize, date: Date, bytes_per_hour: u64) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for m in fabric.members.iter().take(n) {
            for h in 0..24u8 {
                let t = date.at_hour(h);
                out.push(
                    FlowRecord::builder(
                        FlowKey {
                            src_addr: Ipv4Addr::new(192, 0, 2, 1),
                            dst_addr: Ipv4Addr::new(192, 0, 2, 2),
                            src_port: 443,
                            dst_port: 50_000,
                            protocol: IpProtocol::Tcp,
                        },
                        t,
                    )
                    .end(t.add_secs(30))
                    .bytes(bytes_per_hour)
                    .packets(10)
                    .asns(m.asn.0, 0)
                    .direction(Direction::Unknown)
                    .build(),
                );
            }
        }
        out
    }

    fn fabric() -> (Registry, IxpFabric) {
        let r = Registry::synthesize();
        let f = IxpFabric::synthesize(VantagePoint::IxpSe, &r, 3);
        (r, f)
    }

    #[test]
    fn base_day_average_matches_model() {
        let (_r, f) = fabric();
        let base = Date::new(2020, 2, 20);
        let flows = flat_day(&f, 10, base, 1_000_000);
        let lu = LinkUtilization::calibrate(&f, &flows, base);
        let stats = lu.day_stats(&flows, base);
        assert_eq!(stats.len(), 10, "every member with traffic is calibrated");
        for s in stats {
            let m = f.members.iter().find(|m| m.asn == s.asn).unwrap();
            assert!(
                (s.avg - m.base_utilization).abs() < 1e-9,
                "avg {} vs anchor {}",
                s.avg,
                m.base_utilization
            );
            // Flat traffic: min == avg == max.
            assert!((s.min - s.max).abs() < 1e-9);
        }
    }

    #[test]
    fn growth_shifts_utilization_right() {
        let (_r, f) = fabric();
        let base = Date::new(2020, 2, 20);
        // Use members without upgrades for a pure-growth check.
        let stage2 = Date::new(2020, 4, 23);
        let flows_base = flat_day(&f, 20, base, 1_000_000);
        let flows_stage2 = flat_day(&f, 20, stage2, 1_300_000); // +30%
        let lu = LinkUtilization::calibrate(&f, &flows_base, base);
        let b = lu.day_stats(&flows_base, base);
        let s = lu.day_stats(&flows_stage2, stage2);
        for (sb, ss) in b.iter().zip(&s) {
            let m = f.members.iter().find(|m| m.asn == sb.asn).unwrap();
            if ss.avg >= 1.0 {
                continue; // saturated the 100% cap; growth not measurable
            }
            if m.upgrade_gbps == 0.0 {
                assert!(
                    ss.avg > sb.avg * 1.2,
                    "{}: {} -> {}",
                    sb.asn,
                    sb.avg,
                    ss.avg
                );
            } else {
                // Upgraded members: utilization rises less (or falls).
                let cap_growth = m.capacity_gbps(stage2) / m.base_capacity_gbps;
                assert!((ss.avg * cap_growth / 1.3 - sb.avg).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn utilization_capped_at_one() {
        let (_r, f) = fabric();
        let base = Date::new(2020, 2, 20);
        let flows_base = flat_day(&f, 5, base, 1_000);
        let lu = LinkUtilization::calibrate(&f, &flows_base, base);
        // 1000× growth would exceed physical capacity: cap at 1.0.
        let flows_big = flat_day(&f, 5, base, 1_000_000_000);
        for s in lu.day_stats(&flows_big, base) {
            assert!(s.max <= 1.0 && s.avg <= 1.0);
        }
    }

    #[test]
    fn silent_members_omitted() {
        let (_r, f) = fabric();
        let base = Date::new(2020, 2, 20);
        let flows = flat_day(&f, 5, base, 1_000_000);
        let lu = LinkUtilization::calibrate(&f, &flows, base);
        assert_eq!(lu.day_stats(&flows, base).len(), 5);
        let later = flat_day(&f, 3, base, 500_000);
        assert_eq!(lu.day_stats(&later, base).len(), 3);
    }

    #[test]
    fn min_avg_max_ordering() {
        let (_r, f) = fabric();
        let base = Date::new(2020, 2, 20);
        // Uneven traffic: heavier in hour 20.
        let mut flows = flat_day(&f, 8, base, 800_000);
        for m in f.members.iter().take(8) {
            let t = base.at_hour(20);
            flows.push(
                FlowRecord::builder(
                    FlowKey {
                        src_addr: Ipv4Addr::new(192, 0, 2, 3),
                        dst_addr: Ipv4Addr::new(192, 0, 2, 4),
                        src_port: 443,
                        dst_port: 50_001,
                        protocol: IpProtocol::Tcp,
                    },
                    t,
                )
                .end(t.add_secs(5))
                .bytes(2_000_000)
                .packets(10)
                .asns(0, m.asn.0)
                .build(),
            );
        }
        let lu = LinkUtilization::calibrate(&f, &flows, base);
        for s in lu.day_stats(&flows, base) {
            assert!(s.min <= s.avg && s.avg <= s.max);
            assert!(s.max > s.min, "hour-20 spike must show");
        }
    }
}
