//! Port-level application analysis (§4, Fig. 7).
//!
//! Flow records carry two ports; the analysis must decide which one names
//! the *service*. The classic heuristic (used here, as in production flow
//! pipelines): the service port is the lower, well-known/registered side;
//! two ephemeral ports mean the flow stays unattributed. Port-less
//! protocols (GRE, ESP) are first-class citizens — Fig. 7 plots them as
//! their own rows.

use crate::slots::Slots;
use lockdown_flow::protocol::IpProtocol;
use lockdown_flow::record::{FlowRecord, HourRun};
use lockdown_flow::wire::PutBe;
use lockdown_scenario::calendar::{day_type, DayType};
use lockdown_topology::asn::Region;
use std::fmt;
use std::net::Ipv4Addr;

/// First port of the ephemeral range for service-port attribution.
pub(crate) const EPHEMERAL_START: u16 = 32_768;

/// The service port of a flow that carries ports: the lower side, unless
/// it too is ephemeral (ephemeral↔ephemeral is unattributable). Two
/// registered ports resolve to the lower one, like most flow tools.
pub(crate) fn service_port(record: &FlowRecord) -> Option<u16> {
    let lo = record.key.src_port.min(record.key.dst_port);
    (lo < EPHEMERAL_START).then_some(lo)
}

/// The client address of a flow: the ephemeral-port side, falling back to
/// the source (§5 counts these to "approximate the order of households").
pub(crate) fn client_addr(record: &FlowRecord) -> Ipv4Addr {
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

    /// The key as one `u32` whose order is the key's order: `Port(p,
    /// port)` is `p << 16 | port`, below every `Protocol(p)`, which is
    /// `1 << 24 | p`. [`ServiceKey::of`] yields `Port(6 | 17, 0..32768)`
    /// and `Protocol(0..=255)`, so the keys a flow can have pack into 65 792
    /// values.
    pub(crate) fn pack(self) -> u32 {
        match self {
            ServiceKey::Port(proto, port) => u32::from(proto) << 16 | u32::from(port),
            ServiceKey::Protocol(proto) => 1 << 24 | u32::from(proto),
        }
    }

    /// Inverse of [`ServiceKey::pack`].
    pub(crate) fn unpack(packed: u32) -> ServiceKey {
        if packed >> 24 == 0 {
            ServiceKey::Port((packed >> 16) as u8, packed as u16)
        } else {
            ServiceKey::Protocol(packed as u8)
        }
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
///
/// Dense: each service seen has a slot holding its total, its 48 bins
/// (`weekend * 24 + hour`) and a mask of the bins a flow reached — a bin
/// exists once a flow, even a zero-byte one, lands in it.
#[derive(Debug, Clone, Default)]
pub struct PortProfile {
    /// Slots of packed [`ServiceKey`]s.
    slots: Slots,
    /// `(presence mask, total)` per slot, apart from the bins so that a
    /// walk over the services reads them from a few cache lines.
    heads: Vec<(u64, u64)>,
    bins: Vec<[u64; 48]>,
}

impl PortProfile {
    /// An empty profile.
    pub fn new() -> PortProfile {
        PortProfile::default()
    }

    /// The slot of a packed service key, with zeroed counters if new.
    #[inline]
    fn slot(&mut self, key: u32) -> usize {
        let slot = self.slots.slot(key);
        if slot == self.heads.len() {
            self.heads.push((0, 0));
            self.bins.push([0; 48]);
        }
        slot
    }

    /// Add one hour run observed in `region`: the day type and so the bin
    /// are the run's (the region's calendar decides workday vs. weekend;
    /// Easter counts as weekend, §4), only the service key is per flow.
    pub(crate) fn add_run(&mut self, run: &HourRun<'_>, region: Region) {
        let weekend = day_type(run.date, region) != DayType::Workday;
        let bin = usize::from(weekend) * 24 + usize::from(run.hour);
        for record in run.records {
            let Some(key) = ServiceKey::of(record) else {
                continue;
            };
            let slot = self.slot(key.pack());
            let head = &mut self.heads[slot];
            head.0 |= 1 << bin;
            head.1 += record.bytes;
            self.bins[slot][bin] += record.bytes;
        }
    }

    /// Merge another profile into this one (bins are additive).
    pub fn merge(&mut self, other: &PortProfile) {
        for (theirs, &key) in other.slots.keys().iter().enumerate() {
            let ours = self.slot(key);
            let (present, total) = other.heads[theirs];
            self.heads[ours].0 |= present;
            self.heads[ours].1 += total;
            for (a, b) in self.bins[ours].iter_mut().zip(other.bins[theirs]) {
                *a += b;
            }
        }
    }

    /// Total bytes attributed to a service.
    pub fn total(&self, key: ServiceKey) -> u64 {
        self.slots.get(key.pack()).map_or(0, |s| self.heads[s].1)
    }

    /// The top `n` services by total bytes, after removing `exclude`
    /// (Fig. 7 omits TCP/443 and TCP/80 "for readability purposes" and
    /// shows the top 3–12).
    pub fn top_services(&self, n: usize, exclude: &[ServiceKey]) -> Vec<ServiceKey> {
        let mut entries: Vec<(ServiceKey, u64)> = (self.slots.keys().iter())
            .zip(&self.heads)
            .map(|(&key, &(_, total))| (ServiceKey::unpack(key), total))
            .filter(|(k, _)| !exclude.contains(k))
            .collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.into_iter().take(n).map(|(k, _)| k).collect()
    }

    /// Share of total bytes carried by a set of services (e.g. the §4
    /// claim that TCP/443+TCP/80 carry 80% at the ISP).
    pub fn share_of(&self, keys: &[ServiceKey]) -> f64 {
        let selected: u64 = keys.iter().map(|k| self.total(*k)).sum();
        let all: u64 = self.heads.iter().map(|h| h.1).sum();
        if all == 0 {
            0.0
        } else {
            selected as f64 / all as f64
        }
    }

    /// Shard-codec payload: every `(service, weekend, hour)` bin that
    /// exists, then every service's total, each in key order.
    pub(crate) fn encode_profile(&self, out: &mut Vec<u8>) {
        let bins: u32 = self.heads.iter().map(|h| h.0.count_ones()).sum();
        // At most 14 bytes a bin and 12 a total.
        out.reserve(16 + 14 * bins as usize + 12 * self.slots.len());
        out.put_u64_be(u64::from(bins));
        for (key, slot) in self.slots.sorted() {
            // The entry's key bytes once, then weekend, hour and bytes.
            let mut entry = [0u8; 14];
            let at = service_key_bytes(ServiceKey::unpack(key), &mut entry);
            let mut present = self.heads[slot].0;
            while present != 0 {
                let bin = present.trailing_zeros() as usize;
                present &= present - 1;
                entry[at] = u8::from(bin >= 24);
                entry[at + 1] = (bin % 24) as u8;
                entry[at + 2..at + 10].copy_from_slice(&self.bins[slot][bin].to_be_bytes());
                out.extend_from_slice(&entry[..at + 10]);
            }
        }
        out.put_u64_be(self.slots.len() as u64);
        for (key, slot) in self.slots.sorted() {
            put_service_key(out, ServiceKey::unpack(key));
            out.put_u64_be(self.heads[slot].1);
        }
    }

    /// Decode a shard-codec payload and merge it additively. A payload no
    /// flows could have produced is an error, and merges nothing: a key
    /// outside the service-key space, or bins and totals that name
    /// different services (every flow makes both).
    pub(crate) fn merge_profile(
        &mut self,
        r: &mut crate::codec::StateReader<'_>,
    ) -> Result<(), crate::codec::CodecError> {
        // Smallest bins entry: 2-byte key + weekend + hour + 8-byte count.
        let n = r.len("port bins", 12)?;
        let mut bins = Vec::with_capacity(n);
        for _ in 0..n {
            let key = read_service_key(r)?;
            let weekend = r.bool("weekend flag")?;
            let hour = r.u8("hour")?;
            let bytes = r.u64("bin bytes")?;
            if hour >= 24 {
                return Err(r.error(format!("hour {hour} out of range")));
            }
            bins.push((
                key.pack(),
                usize::from(weekend) * 24 + usize::from(hour),
                bytes,
            ));
        }
        let n = r.len("port totals", 10)?;
        let mut totals = Vec::with_capacity(n);
        for _ in 0..n {
            let key = read_service_key(r)?;
            totals.push((key.pack(), r.u64("total bytes")?));
        }
        /// The services `keys` name, sorted.
        fn named(keys: impl Iterator<Item = u32>) -> Vec<u32> {
            let mut keys: Vec<u32> = keys.collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        }
        let in_bins = named(bins.iter().map(|b| b.0));
        let in_totals = named(totals.iter().map(|t| t.0));
        let unnamed = |these: &[u32], those: &[u32]| {
            let key = these.iter().find(|k| those.binary_search(k).is_err());
            key.map(|&k| ServiceKey::unpack(k))
        };
        if let Some(key) = unnamed(&in_bins, &in_totals) {
            return Err(r.error(format!("bins name service {key} that no total names")));
        }
        if let Some(key) = unnamed(&in_totals, &in_bins) {
            return Err(r.error(format!("totals name service {key} that no bin names")));
        }
        for (key, bin, bytes) in bins {
            let slot = self.slot(key);
            self.heads[slot].0 |= 1 << bin;
            self.bins[slot][bin] += bytes;
        }
        for (key, bytes) in totals {
            let slot = self.slot(key);
            self.heads[slot].1 += bytes;
        }
        Ok(())
    }
}

/// [`ServiceKey`] wire form: variant byte 0 = `Port(proto, port)`,
/// 1 = `Protocol(proto)`.
fn put_service_key(out: &mut Vec<u8>, key: ServiceKey) {
    let mut buf = [0u8; 4];
    let len = service_key_bytes(key, &mut buf);
    out.extend_from_slice(&buf[..len]);
}

/// Write `key`'s wire form at the start of `buf`; returns its length.
fn service_key_bytes(key: ServiceKey, buf: &mut [u8]) -> usize {
    match key {
        ServiceKey::Port(proto, port) => {
            let [hi, lo] = port.to_be_bytes();
            buf[..4].copy_from_slice(&[0, proto, hi, lo]);
            4
        }
        ServiceKey::Protocol(proto) => {
            buf[..2].copy_from_slice(&[1, proto]);
            2
        }
    }
}

/// Read a [`ServiceKey`], refusing any [`ServiceKey::of`] never yields: a
/// port of a protocol without ports, or an ephemeral one.
fn read_service_key(
    r: &mut crate::codec::StateReader<'_>,
) -> Result<ServiceKey, crate::codec::CodecError> {
    match r.u8("service key variant")? {
        0 => {
            let (proto, port) = (r.u8("protocol")?, r.u16("port")?);
            if !IpProtocol::from_number(proto).has_ports() {
                return Err(r.error(format!(
                    "service key names port {port} of protocol {proto}, which has no ports"
                )));
            }
            if port >= EPHEMERAL_START {
                return Err(r.error(format!(
                    "service key names ephemeral port {proto}/{port}, never a service port"
                )));
            }
            Ok(ServiceKey::Port(proto, port))
        }
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
    use crate::codec::tests::Crafted;
    use crate::consumer::{FlowConsumer, PortConsumer};
    use lockdown_flow::record::FlowKey;
    use lockdown_flow::time::Date;
    use lockdown_flow::time::Timestamp;
    use std::net::Ipv4Addr;

    /// The profile of `flows` observed in Central Europe.
    fn profile(flows: &[FlowRecord]) -> PortProfile {
        let mut c = PortConsumer::new(Region::CentralEurope);
        c.observe_all(flows);
        c.profile
    }

    /// Bytes of one service in hour `h` of its workday or weekend curve.
    fn hour_bin(p: &PortProfile, key: ServiceKey, weekend: bool, h: usize) -> u64 {
        let s = p.slots.get(key.pack()).expect("service seen");
        p.bins[s][usize::from(weekend) * 24 + h]
    }

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
        let wed = Date::new(2020, 2, 19);
        let sat = Date::new(2020, 2, 22);
        let p = profile(&[
            flow(IpProtocol::Udp, 443, 40_000, wed.at_hour(9), 100),
            flow(IpProtocol::Udp, 443, 40_001, wed.at_hour(9), 50),
            flow(IpProtocol::Udp, 40_002, 443, sat.at_hour(20), 70),
        ]);
        let quic = ServiceKey::Port(17, 443);
        assert_eq!(hour_bin(&p, quic, false, 9), 150);
        assert_eq!(hour_bin(&p, quic, true, 20), 70);
        assert_eq!(p.total(quic), 220);
    }

    #[test]
    fn easter_is_weekend() {
        // Apr 13 (Easter Monday) is a Monday but classifies as weekend.
        let p = profile(&[flow(
            IpProtocol::Tcp,
            993,
            40_000,
            Date::new(2020, 4, 13).at_hour(10),
            10,
        )]);
        let k = ServiceKey::Port(6, 993);
        assert_eq!(hour_bin(&p, k, true, 10), 10);
        assert_eq!(hour_bin(&p, k, false, 10), 0);
    }

    #[test]
    fn top_services_with_exclusion() {
        let t = Date::new(2020, 2, 19).at_hour(12);
        let p = profile(&[
            flow(IpProtocol::Tcp, 443, 40_000, t, 1_000),
            flow(IpProtocol::Tcp, 80, 40_001, t, 500),
            flow(IpProtocol::Udp, 443, 40_002, t, 300),
            flow(IpProtocol::Udp, 4_500, 40_003, t, 200),
            flow(IpProtocol::Gre, 0, 0, t, 100),
        ]);
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
        let t = Date::new(2020, 2, 19).at_hour(12);
        let p = profile(&[
            flow(IpProtocol::Tcp, 22, 40_000, t, 100),
            flow(IpProtocol::Tcp, 25, 40_001, t, 100),
        ]);
        let top = p.top_services(2, &[]);
        assert_eq!(top, vec![ServiceKey::Port(6, 22), ServiceKey::Port(6, 25)]);
    }

    /// A port state written byte by byte, framed like a consumer's own.
    fn crafted(payload: Vec<u8>) -> Crafted {
        Crafted(crate::codec::TAG_PORT_CONSUMER, payload)
    }

    /// The payload of `bins` `(key, weekend, hour, bytes)` and `totals`.
    fn payload(bins: &[(ServiceKey, bool, u8, u64)], totals: &[(ServiceKey, u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64_be(bins.len() as u64);
        for &(key, weekend, hour, bytes) in bins {
            put_service_key(&mut out, key);
            out.extend_from_slice(&[u8::from(weekend), hour]);
            out.put_u64_be(bytes);
        }
        out.put_u64_be(totals.len() as u64);
        for &(key, bytes) in totals {
            put_service_key(&mut out, key);
            out.put_u64_be(bytes);
        }
        out
    }

    /// `ServiceKey::of` yields `Port(6 | 17, < 32768)` or `Protocol(_)`,
    /// and every flow makes a bin and a total of its service: a frame
    /// that says otherwise is a named error that merges nothing, never a
    /// service no flow had.
    #[test]
    fn port_states_no_flow_can_produce_are_named_errors() {
        use crate::codec::{encode_frame, merge_frame};
        let (gre80, tcp40k, gre) = (
            ServiceKey::Port(47, 80),
            ServiceKey::Port(6, 40_000),
            ServiceKey::Protocol(47),
        );
        let (https, http) = (tcp443(), tcp80());
        for (bins, totals, named) in [
            (
                vec![(gre80, false, 9, 5)],
                vec![(gre80, 5)],
                "service key names port 80 of protocol 47, which has no ports",
            ),
            (
                vec![(tcp40k, true, 3, 5)],
                vec![(tcp40k, 5)],
                "service key names ephemeral port 6/40000, never a service port",
            ),
            (
                vec![(https, false, 9, 5)],
                vec![(https, 5), (http, 1)],
                "totals name service TCP/80 that no bin names",
            ),
            (
                vec![(https, false, 9, 5), (gre, true, 23, 0)],
                vec![(https, 5)],
                "bins name service GRE that no total names",
            ),
        ] {
            let frame = encode_frame(&crafted(payload(&bins, &totals)));
            let mut sink = PortConsumer::new(Region::CentralEurope);
            let e = merge_frame(&mut sink, &frame).expect_err(named);
            assert_eq!((e.consumer, e.detail.as_str()), ("PortConsumer", named));
            assert!(sink.profile.bins.is_empty(), "{named}: merged");
        }

        // The same services in both halves decode to the state that
        // re-encodes them, zero-byte bins and all, in key order.
        let unsorted = payload(
            &[
                (https, false, 9, 5),
                (gre, true, 23, 0),
                (https, true, 0, 2),
            ],
            &[(https, 7), (gre, 0)],
        );
        let mut sink = PortConsumer::new(Region::CentralEurope);
        merge_frame(&mut sink, &encode_frame(&crafted(unsorted))).expect("a state flows make");
        let sorted = payload(
            &[
                (https, false, 9, 5),
                (https, true, 0, 2),
                (gre, true, 23, 0),
            ],
            &[(https, 7), (gre, 0)],
        );
        assert_eq!(encode_frame(&sink), encode_frame(&crafted(sorted)));
    }
}
