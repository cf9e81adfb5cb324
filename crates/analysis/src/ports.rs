//! Port-level application analysis (§4, Fig. 7).
//!
//! Flow records carry two ports; the analysis must decide which one names
//! the *service*. The classic heuristic (used here, as in production flow
//! pipelines): the service port is the lower, well-known/registered side;
//! two ephemeral ports mean the flow stays unattributed. Port-less
//! protocols (GRE, ESP) are first-class citizens — Fig. 7 plots them as
//! their own rows.

use lockdown_flow::protocol::IpProtocol;
use lockdown_flow::record::{FlowRecord, HourRun};
use lockdown_flow::wire::PutBe;
use lockdown_scenario::calendar::{day_type, DayType};
use lockdown_topology::asn::Region;
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// First port of the ephemeral range for service-port attribution.
pub const EPHEMERAL_START: u16 = 32_768;

/// The service port of a flow that carries ports: the lower side, unless
/// it too is ephemeral (ephemeral↔ephemeral is unattributable). Two
/// registered ports resolve to the lower one, like most flow tools.
pub fn service_port(record: &FlowRecord) -> Option<u16> {
    let lo = record.key.src_port.min(record.key.dst_port);
    (lo < EPHEMERAL_START).then_some(lo)
}

/// The client address of a flow: the ephemeral-port side, falling back to
/// the source (§5 counts these to "approximate the order of households").
pub fn client_addr(record: &FlowRecord) -> Ipv4Addr {
    if record.key.src_port >= EPHEMERAL_START || record.key.src_port == 0 {
        record.key.src_addr
    } else {
        record.key.dst_addr
    }
}

/// A service identity at the transport layer: either a concrete
/// protocol/port pair, or a port-less protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceKey {
    /// Protocol + well-known/registered server port.
    Port(u8, u16),
    /// Port-less IP protocol (GRE, ESP, ICMP, …).
    Protocol(u8),
}

impl ServiceKey {
    /// Attribute a flow to a service, if possible.
    pub fn of(record: &FlowRecord) -> Option<ServiceKey> {
        let proto = record.key.protocol;
        if !proto.has_ports() {
            return Some(ServiceKey::Protocol(proto.number()));
        }
        service_port(record).map(|port| ServiceKey::Port(proto.number(), port))
    }

    /// Human-readable form ("TCP/443", "GRE").
    pub fn label(&self) -> String {
        match self {
            ServiceKey::Port(p, port) => format!("{}/{}", IpProtocol::from_number(*p), port),
            ServiceKey::Protocol(p) => IpProtocol::from_number(*p).to_string(),
        }
    }
}

impl fmt::Display for ServiceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Fig. 7's unit of aggregation: bytes per (service, workday/weekend,
/// hour of day), accumulated over one analysis week.
#[derive(Debug, Clone, Default)]
pub struct PortProfile {
    bins: BTreeMap<(ServiceKey, bool, u8), u64>,
    totals: BTreeMap<ServiceKey, u64>,
}

impl PortProfile {
    /// An empty profile.
    pub fn new() -> PortProfile {
        PortProfile::default()
    }

    /// Add one flow observed in `region` (the region's calendar decides
    /// workday vs. weekend; Easter counts as weekend, §4).
    pub fn add(&mut self, record: &FlowRecord, region: Region) {
        self.add_run(&HourRun::of(record), region);
    }

    /// Add one hour run observed in `region`: the day type is the run's,
    /// only the service key is per flow.
    pub fn add_run(&mut self, run: &HourRun<'_>, region: Region) {
        let weekend = day_type(run.date, region) != DayType::Workday;
        for record in run.records {
            let Some(key) = ServiceKey::of(record) else {
                continue;
            };
            *self.bins.entry((key, weekend, run.hour)).or_insert(0) += record.bytes;
            *self.totals.entry(key).or_insert(0) += record.bytes;
        }
    }

    /// Add many flows.
    pub fn add_all<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a FlowRecord>,
        region: Region,
    ) {
        for r in records {
            self.add(r, region);
        }
    }

    /// Merge another profile into this one (bins are additive).
    pub fn merge(&mut self, other: &PortProfile) {
        for (k, v) in &other.bins {
            *self.bins.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.totals {
            *self.totals.entry(*k).or_insert(0) += v;
        }
    }

    /// Total bytes attributed to a service.
    pub fn total(&self, key: ServiceKey) -> u64 {
        self.totals.get(&key).copied().unwrap_or(0)
    }

    /// Hourly byte curve for (service, weekend?).
    pub fn curve(&self, key: ServiceKey, weekend: bool) -> [u64; 24] {
        let mut out = [0u64; 24];
        for (h, slot) in out.iter_mut().enumerate() {
            *slot = self
                .bins
                .get(&(key, weekend, h as u8))
                .copied()
                .unwrap_or(0);
        }
        out
    }

    /// The top `n` services by total bytes, after removing `exclude`
    /// (Fig. 7 omits TCP/443 and TCP/80 "for readability purposes" and
    /// shows the top 3–12).
    pub fn top_services(&self, n: usize, exclude: &[ServiceKey]) -> Vec<ServiceKey> {
        let mut entries: Vec<(&ServiceKey, &u64)> = self
            .totals
            .iter()
            .filter(|(k, _)| !exclude.contains(k))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        entries.into_iter().take(n).map(|(k, _)| *k).collect()
    }

    /// All services seen.
    pub fn services(&self) -> impl Iterator<Item = ServiceKey> + '_ {
        self.totals.keys().copied()
    }

    /// Share of total bytes carried by a set of services (e.g. the §4
    /// claim that TCP/443+TCP/80 carry 80% at the ISP).
    pub fn share_of(&self, keys: &[ServiceKey]) -> f64 {
        let selected: u64 = keys.iter().map(|k| self.total(*k)).sum();
        let all: u64 = self.totals.values().sum();
        if all == 0 {
            0.0
        } else {
            selected as f64 / all as f64
        }
    }

    /// Shard-codec payload: both maps in key order.
    pub(crate) fn encode_profile(&self, out: &mut Vec<u8>) {
        out.put_u64_be(self.bins.len() as u64);
        for ((key, weekend, hour), bytes) in &self.bins {
            put_service_key(out, *key);
            crate::codec::put_bool(out, *weekend);
            out.push(*hour);
            out.put_u64_be(*bytes);
        }
        out.put_u64_be(self.totals.len() as u64);
        for (key, bytes) in &self.totals {
            put_service_key(out, *key);
            out.put_u64_be(*bytes);
        }
    }

    /// Decode a shard-codec payload and merge it additively.
    pub(crate) fn merge_profile(
        &mut self,
        r: &mut crate::codec::StateReader<'_>,
    ) -> Result<(), crate::codec::CodecError> {
        // Smallest bins entry: 2-byte key + weekend + hour + 8-byte count.
        let n = r.len("port bins", 12)?;
        for _ in 0..n {
            let key = read_service_key(r)?;
            let weekend = r.bool("weekend flag")?;
            let hour = r.u8("hour")?;
            let bytes = r.u64("bin bytes")?;
            if hour >= 24 {
                return Err(r.error(format!("hour {hour} out of range")));
            }
            *self.bins.entry((key, weekend, hour)).or_insert(0) += bytes;
        }
        let n = r.len("port totals", 10)?;
        for _ in 0..n {
            let key = read_service_key(r)?;
            let bytes = r.u64("total bytes")?;
            *self.totals.entry(key).or_insert(0) += bytes;
        }
        Ok(())
    }
}

/// [`ServiceKey`] wire form: variant byte 0 = `Port(proto, port)`,
/// 1 = `Protocol(proto)`.
fn put_service_key(out: &mut Vec<u8>, key: ServiceKey) {
    match key {
        ServiceKey::Port(proto, port) => {
            out.push(0);
            out.push(proto);
            out.put_u16_be(port);
        }
        ServiceKey::Protocol(proto) => {
            out.push(1);
            out.push(proto);
        }
    }
}

fn read_service_key(
    r: &mut crate::codec::StateReader<'_>,
) -> Result<ServiceKey, crate::codec::CodecError> {
    match r.u8("service key variant")? {
        0 => Ok(ServiceKey::Port(r.u8("protocol")?, r.u16("port")?)),
        1 => Ok(ServiceKey::Protocol(r.u8("protocol")?)),
        other => Err(r.error(format!("unknown service key variant {other}"))),
    }
}

/// Convenience constructors for the two ports Fig. 7 excludes.
pub fn tcp443() -> ServiceKey {
    ServiceKey::Port(6, 443)
}

/// TCP/80.
pub fn tcp80() -> ServiceKey {
    ServiceKey::Port(6, 80)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::record::FlowKey;
    use lockdown_flow::time::Date;
    use lockdown_flow::time::Timestamp;
    use std::net::Ipv4Addr;

    fn flow(
        proto: IpProtocol,
        src_port: u16,
        dst_port: u16,
        at: Timestamp,
        bytes: u64,
    ) -> FlowRecord {
        FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(192, 0, 2, 1),
                dst_addr: Ipv4Addr::new(192, 0, 2, 2),
                src_port,
                dst_port,
                protocol: proto,
            },
            at,
        )
        .end(at.add_secs(1))
        .bytes(bytes)
        .packets(1)
        .build()
    }

    #[test]
    fn service_attribution() {
        let t = Date::new(2020, 2, 19).at_hour(10);
        // Server on low side, either direction.
        let f1 = flow(IpProtocol::Tcp, 443, 50_000, t, 1);
        let f2 = flow(IpProtocol::Tcp, 50_000, 443, t, 1);
        assert_eq!(ServiceKey::of(&f1), Some(ServiceKey::Port(6, 443)));
        assert_eq!(ServiceKey::of(&f2), Some(ServiceKey::Port(6, 443)));
        // Ephemeral both sides: unattributable.
        let f3 = flow(IpProtocol::Udp, 40_000, 50_000, t, 1);
        assert_eq!(ServiceKey::of(&f3), None);
        // Port-less protocol.
        let f4 = flow(IpProtocol::Esp, 0, 0, t, 1);
        assert_eq!(ServiceKey::of(&f4), Some(ServiceKey::Protocol(50)));
    }

    #[test]
    fn labels() {
        assert_eq!(ServiceKey::Port(17, 443).label(), "UDP/443");
        assert_eq!(ServiceKey::Protocol(47).label(), "GRE");
        assert_eq!(tcp443().label(), "TCP/443");
    }

    #[test]
    fn profile_curves_and_daytypes() {
        let mut p = PortProfile::new();
        let wed = Date::new(2020, 2, 19);
        let sat = Date::new(2020, 2, 22);
        p.add(
            &flow(IpProtocol::Udp, 443, 40_000, wed.at_hour(9), 100),
            Region::CentralEurope,
        );
        p.add(
            &flow(IpProtocol::Udp, 443, 40_001, wed.at_hour(9), 50),
            Region::CentralEurope,
        );
        p.add(
            &flow(IpProtocol::Udp, 40_002, 443, sat.at_hour(20), 70),
            Region::CentralEurope,
        );
        let quic = ServiceKey::Port(17, 443);
        assert_eq!(p.curve(quic, false)[9], 150);
        assert_eq!(p.curve(quic, true)[20], 70);
        assert_eq!(p.total(quic), 220);
    }

    #[test]
    fn easter_is_weekend() {
        let mut p = PortProfile::new();
        // Apr 13 (Easter Monday) is a Monday but classifies as weekend.
        p.add(
            &flow(
                IpProtocol::Tcp,
                993,
                40_000,
                Date::new(2020, 4, 13).at_hour(10),
                10,
            ),
            Region::CentralEurope,
        );
        let k = ServiceKey::Port(6, 993);
        assert_eq!(p.curve(k, true)[10], 10);
        assert_eq!(p.curve(k, false)[10], 0);
    }

    #[test]
    fn top_services_with_exclusion() {
        let mut p = PortProfile::new();
        let t = Date::new(2020, 2, 19).at_hour(12);
        p.add(
            &flow(IpProtocol::Tcp, 443, 40_000, t, 1_000),
            Region::CentralEurope,
        );
        p.add(
            &flow(IpProtocol::Tcp, 80, 40_001, t, 500),
            Region::CentralEurope,
        );
        p.add(
            &flow(IpProtocol::Udp, 443, 40_002, t, 300),
            Region::CentralEurope,
        );
        p.add(
            &flow(IpProtocol::Udp, 4_500, 40_003, t, 200),
            Region::CentralEurope,
        );
        p.add(&flow(IpProtocol::Gre, 0, 0, t, 100), Region::CentralEurope);
        let top = p.top_services(3, &[tcp443(), tcp80()]);
        assert_eq!(
            top,
            vec![
                ServiceKey::Port(17, 443),
                ServiceKey::Port(17, 4_500),
                ServiceKey::Protocol(47)
            ]
        );
        let share = p.share_of(&[tcp443(), tcp80()]);
        assert!((share - 1_500.0 / 2_100.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_tie_break() {
        let mut p = PortProfile::new();
        let t = Date::new(2020, 2, 19).at_hour(12);
        p.add(
            &flow(IpProtocol::Tcp, 22, 40_000, t, 100),
            Region::CentralEurope,
        );
        p.add(
            &flow(IpProtocol::Tcp, 25, 40_001, t, 100),
            Region::CentralEurope,
        );
        let top = p.top_services(2, &[]);
        assert_eq!(top, vec![ServiceKey::Port(6, 22), ServiceKey::Port(6, 25)]);
    }
}
