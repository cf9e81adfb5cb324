//! Educational-network analysis (§7, Figs. 11–12).
//!
//! Volume and directionality at the EDU border, plus the connection-level
//! per-class analysis. Directionality is *re-derived* the way the paper
//! does ("using the AS numbers of each end-point, interfaces, and port
//! pairs"), not read from generator state: a connection is oriented by
//! which endpoint owns a recognized service port and whether that endpoint
//! is inside the EDU network. Flows with no recognizable service port stay
//! undetermined — the paper reports 39% of flows in that state.

use crate::timeseries::HourlyVolume;
use lockdown_flow::protocol::IpProtocol;
use lockdown_flow::record::{Direction, FlowRecord, HourRun};
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_topology::registry::{EDU_ASN, SPOTIFY_ASN};
use std::collections::BTreeMap;

/// Connection orientation relative to the EDU network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Orientation {
    /// Established from outside toward a service inside EDU.
    Incoming,
    /// Established from inside EDU toward an external service.
    Outgoing,
    /// Cannot be determined (P2P-like, marginal protocols, unknown ports).
    Undetermined,
}

/// Appendix B's traffic classes for the EDU analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EduTrafficClass {
    /// TCP/80, TCP/443, UDP/443, TCP/8000, TCP/8080.
    Web,
    /// UDP/443.
    Quic,
    /// TCP/5223, TCP/5228.
    PushNotif,
    /// TCP/25, 110, 143, 465, 587, 993, 995.
    Email,
    /// UDP/500, ESP, GRE, TCP/UDP 1194, UDP/4500.
    Vpn,
    /// TCP/22.
    Ssh,
    /// TCP/UDP 1494, TCP/3389, TCP/UDP 5938.
    RemoteDesktop,
    /// TCP/4070 or AS8403.
    Spotify,
    /// Anything else.
    Other,
}

impl EduTrafficClass {
    /// All classes.
    pub const ALL: [EduTrafficClass; 9] = [
        EduTrafficClass::Web,
        EduTrafficClass::Quic,
        EduTrafficClass::PushNotif,
        EduTrafficClass::Email,
        EduTrafficClass::Vpn,
        EduTrafficClass::Ssh,
        EduTrafficClass::RemoteDesktop,
        EduTrafficClass::Spotify,
        EduTrafficClass::Other,
    ];

    /// Classify by Appendix B's port lists (plus Spotify's ASN).
    pub fn of(record: &FlowRecord) -> EduTrafficClass {
        use EduTrafficClass::*;
        if record.src_as == SPOTIFY_ASN.0 || record.dst_as == SPOTIFY_ASN.0 {
            return Spotify;
        }
        match record.key.protocol {
            IpProtocol::Esp | IpProtocol::Gre => return Vpn,
            _ => {}
        }
        let Some((proto, port)) = service_port(record) else {
            return Other;
        };
        let tcp = proto == IpProtocol::Tcp;
        let udp = proto == IpProtocol::Udp;
        match port {
            443 if udp => Quic,
            80 | 443 | 8_000 | 8_080 if tcp => Web,
            5_223 | 5_228 if tcp => PushNotif,
            25 | 110 | 143 | 465 | 587 | 993 | 995 if tcp => Email,
            500 | 4_500 if udp => Vpn,
            1_194 => Vpn,
            22 if tcp => Ssh,
            1_494 | 5_938 => RemoteDesktop,
            3_389 if tcp => RemoteDesktop,
            4_070 if tcp => Spotify,
            _ => Other,
        }
    }
}

/// The recognized service port of a flow, if any: the destination port if
/// it is a known service port, else the source port if it is. Mirrors the
/// "port pairs" part of the paper's directionality method.
fn service_port(record: &FlowRecord) -> Option<(IpProtocol, u16)> {
    let proto = record.key.protocol;
    if !proto.has_ports() {
        return None;
    }
    if is_known_service(proto, record.key.dst_port) {
        Some((proto, record.key.dst_port))
    } else if is_known_service(proto, record.key.src_port) {
        Some((proto, record.key.src_port))
    } else {
        None
    }
}

/// Appendix B's recognized service ports.
fn is_known_service(proto: IpProtocol, port: u16) -> bool {
    let tcp = proto == IpProtocol::Tcp;
    let udp = proto == IpProtocol::Udp;
    matches!(
        (tcp, udp, port),
        (true, _, 80 | 443 | 8_000 | 8_080)
            | (_, true, 443)
            | (true, _, 5_223 | 5_228)
            | (true, _, 25 | 110 | 143 | 465 | 587 | 993 | 995)
            | (_, true, 500 | 4_500)
            | (_, _, 1_194)
            | (true, _, 22)
            | (_, _, 1_494 | 5_938)
            | (true, _, 3_389)
            | (true, _, 4_070)
    )
}

/// Re-derive a connection's orientation (§7's method).
pub fn orientation(record: &FlowRecord) -> Orientation {
    // Tunnelling protocols carry no ports but are services by definition:
    // orient by which side is the EDU network.
    let edu_src = record.src_as == EDU_ASN.0;
    let edu_dst = record.dst_as == EDU_ASN.0;
    if !edu_src && !edu_dst {
        return Orientation::Undetermined;
    }
    match record.key.protocol {
        IpProtocol::Esp | IpProtocol::Gre => {
            return if edu_dst {
                Orientation::Incoming
            } else {
                Orientation::Outgoing
            };
        }
        _ => {}
    }
    // The service side is the endpoint holding a recognized service port.
    let dst_is_service = is_known_service(record.key.protocol, record.key.dst_port);
    let src_is_service = is_known_service(record.key.protocol, record.key.src_port);
    match (dst_is_service, src_is_service) {
        (true, _) => {
            if edu_dst {
                Orientation::Incoming
            } else {
                Orientation::Outgoing
            }
        }
        (false, true) => {
            // The flow is the server-to-client half; the connection was
            // made toward the source.
            if edu_src {
                Orientation::Incoming
            } else {
                Orientation::Outgoing
            }
        }
        (false, false) => Orientation::Undetermined,
    }
}

/// Streaming §7 connection-level accumulator: daily connection counts per
/// (traffic class, orientation), plus ingress/egress volume.
#[derive(Debug, Clone, Default)]
pub struct EduAnalysis {
    /// (date, class, orientation) → connections.
    connections: BTreeMap<(i64, EduTrafficClass, Orientation), u64>,
    /// Ingress volume (bytes) by hour.
    pub ingress: HourlyVolume,
    /// Egress volume (bytes) by hour.
    pub egress: HourlyVolume,
    /// Total flows seen.
    pub flows: u64,
    /// Flows with undetermined orientation.
    pub undetermined: u64,
}

impl EduAnalysis {
    /// An empty accumulator.
    pub fn new() -> EduAnalysis {
        EduAnalysis::default()
    }

    /// Add one hour run: connections are counted per (class, orientation)
    /// and volume per direction in locals, then flushed under the run's
    /// day and hour — one map entry per key the run touched.
    pub(crate) fn add_run(&mut self, run: &HourRun<'_>) {
        let mut connections = [[0u64; ORIENTATIONS.len()]; EduTrafficClass::ALL.len()];
        let mut ingress: Option<u64> = None;
        let mut egress: Option<u64> = None;
        for record in run.records {
            let orient = orientation(record);
            if orient == Orientation::Undetermined {
                self.undetermined += 1;
            }
            let class = class_index(EduTrafficClass::of(record));
            connections[usize::from(class)][usize::from(orientation_index(orient))] += 1;

            // Volume accounting uses the exporter's interface direction, as
            // NetFlow provides it (§7's volumetric analysis).
            match record.direction {
                Direction::Ingress => *ingress.get_or_insert(0) += record.bytes,
                Direction::Egress => *egress.get_or_insert(0) += record.bytes,
                Direction::Unknown => {}
            }
        }
        self.flows += run.records.len() as u64;
        for (class, row) in EduTrafficClass::ALL.into_iter().zip(connections) {
            for (orient, count) in ORIENTATIONS.into_iter().zip(row) {
                if count > 0 {
                    *self
                        .connections
                        .entry((run.day_number, class, orient))
                        .or_insert(0) += count;
                }
            }
        }
        for (volume, bytes) in [(&mut self.ingress, ingress), (&mut self.egress, egress)] {
            if let Some(bytes) = bytes {
                volume.add_bytes(run.hour_start, bytes);
            }
        }
    }

    /// Shard-codec payload: connection bins (class/orientation as indexes
    /// into their `ALL` arrays), both volume series, then the counters.
    pub(crate) fn encode_payload(&self, out: &mut Vec<u8>) {
        out.put_u64_be(self.connections.len() as u64);
        for ((day, class, orient), count) in &self.connections {
            crate::codec::put_i64(out, *day);
            out.push(class_index(*class));
            out.push(orientation_index(*orient));
            out.put_u64_be(*count);
        }
        self.ingress.encode_bins(out);
        self.egress.encode_bins(out);
        out.put_u64_be(self.flows);
        out.put_u64_be(self.undetermined);
    }

    /// Decode a shard-codec payload and merge it additively.
    pub(crate) fn merge_payload(
        &mut self,
        r: &mut crate::codec::StateReader<'_>,
    ) -> Result<(), crate::codec::CodecError> {
        let n = r.len("connection bins", 18)?;
        for _ in 0..n {
            let day = r.i64("day number")?;
            let class = r.u8("traffic class")?;
            let class = EduTrafficClass::ALL
                .get(class as usize)
                .copied()
                .ok_or_else(|| r.error(format!("unknown traffic class {class}")))?;
            let orient = r.u8("orientation")?;
            let orient = ORIENTATIONS
                .get(orient as usize)
                .copied()
                .ok_or_else(|| r.error(format!("unknown orientation {orient}")))?;
            let count = r.u64("connections")?;
            *self.connections.entry((day, class, orient)).or_insert(0) += count;
        }
        self.ingress.merge_bins(r)?;
        self.egress.merge_bins(r)?;
        self.flows += r.u64("flow count")?;
        self.undetermined += r.u64("undetermined count")?;
        Ok(())
    }

    /// Daily connections for (class, orientation).
    pub(crate) fn daily_connections(
        &self,
        date: Date,
        class: EduTrafficClass,
        orient: Orientation,
    ) -> u64 {
        self.connections
            .get(&(date.day_number(), class, orient))
            .copied()
            .unwrap_or(0)
    }

    /// Total daily connections by orientation (all classes).
    pub fn daily_by_orientation(&self, date: Date, orient: Orientation) -> u64 {
        EduTrafficClass::ALL
            .iter()
            .map(|&c| self.daily_connections(date, c, orient))
            .sum()
    }

    /// Fraction of flows whose orientation could not be determined
    /// (the paper: 39%).
    pub fn undetermined_fraction(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.undetermined as f64 / self.flows as f64
        }
    }

    /// Daily ingress/egress volume ratio (Fig. 11b). `None` when egress is
    /// zero.
    pub fn in_out_ratio(&self, date: Date) -> Option<f64> {
        let i = self.ingress.daily_total(date);
        let e = self.egress.daily_total(date);
        if e == 0 {
            None
        } else {
            Some(i as f64 / e as f64)
        }
    }

    /// Fig. 12's series: daily connections of (class, orientation)
    /// relative to the count on `base_date`, over an inclusive range.
    pub fn relative_growth(
        &self,
        class: EduTrafficClass,
        orient: Orientation,
        base_date: Date,
        start: Date,
        end: Date,
    ) -> Vec<(Date, f64)> {
        let base = self.daily_connections(base_date, class, orient).max(1) as f64;
        start
            .range_inclusive(end)
            .map(|d| (d, self.daily_connections(d, class, orient) as f64 / base))
            .collect()
    }

    /// Median daily connections for (class, orientation) over a window —
    /// §7 reports medians ("the median number of daily incoming web
    /// connections increases by over 77%").
    pub fn median_daily(
        &self,
        class: EduTrafficClass,
        orient: Orientation,
        start: Date,
        end: Date,
    ) -> f64 {
        let counts: Vec<f64> = start
            .range_inclusive(end)
            .map(|d| self.daily_connections(d, class, orient) as f64)
            .collect();
        crate::timeseries::median(&counts)
    }
}

/// Orientation wire order (shard codec).
pub(crate) const ORIENTATIONS: [Orientation; 3] = [
    Orientation::Incoming,
    Orientation::Outgoing,
    Orientation::Undetermined,
];

/// Shard-codec wire byte for a traffic class: index into
/// [`EduTrafficClass::ALL`].
pub(crate) fn class_index(class: EduTrafficClass) -> u8 {
    EduTrafficClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("every class is in ALL") as u8
}

/// Shard-codec wire byte for an orientation: index into [`ORIENTATIONS`].
pub(crate) fn orientation_index(orient: Orientation) -> u8 {
    ORIENTATIONS
        .iter()
        .position(|&o| o == orient)
        .expect("every orientation is listed") as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::FlowConsumer;
    use lockdown_flow::protocol::TcpFlags;
    use lockdown_flow::record::FlowKey;
    use std::net::Ipv4Addr;

    const EDU_IP: Ipv4Addr = Ipv4Addr::new(11, 50, 0, 1);
    const EXT_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

    fn flow(
        proto: IpProtocol,
        sport: u16,
        dport: u16,
        src_edu: bool,
        direction: Direction,
    ) -> FlowRecord {
        let t = Date::new(2020, 3, 3).at_hour(10);
        let (src, dst, src_as, dst_as) = if src_edu {
            (EDU_IP, EXT_IP, EDU_ASN.0, 65_001)
        } else {
            (EXT_IP, EDU_IP, 65_001, EDU_ASN.0)
        };
        FlowRecord::builder(
            FlowKey {
                src_addr: src,
                dst_addr: dst,
                src_port: sport,
                dst_port: dport,
                protocol: proto,
            },
            t,
        )
        .end(t.add_secs(5))
        .bytes(1_000)
        .packets(4)
        .tcp_flags(TcpFlags::complete_connection())
        .asns(src_as, dst_as)
        .direction(direction)
        .build()
    }

    #[test]
    fn orientation_rules() {
        // External client → EDU web server: incoming.
        let f = flow(IpProtocol::Tcp, 50_000, 443, false, Direction::Ingress);
        assert_eq!(orientation(&f), Orientation::Incoming);
        // EDU client → external service: outgoing.
        let f = flow(IpProtocol::Tcp, 50_000, 443, true, Direction::Egress);
        assert_eq!(orientation(&f), Orientation::Outgoing);
        // Server-to-client half (service port on the source side).
        let f = flow(IpProtocol::Tcp, 443, 50_000, true, Direction::Egress);
        assert_eq!(orientation(&f), Orientation::Incoming);
        // High ports both sides: undetermined.
        let f = flow(IpProtocol::Udp, 40_000, 50_000, true, Direction::Unknown);
        assert_eq!(orientation(&f), Orientation::Undetermined);
        // ESP toward EDU: incoming VPN.
        let f = flow(IpProtocol::Esp, 0, 0, false, Direction::Ingress);
        assert_eq!(orientation(&f), Orientation::Incoming);
    }

    #[test]
    fn classes() {
        assert_eq!(
            EduTrafficClass::of(&flow(
                IpProtocol::Tcp,
                50_000,
                443,
                false,
                Direction::Ingress
            )),
            EduTrafficClass::Web
        );
        assert_eq!(
            EduTrafficClass::of(&flow(IpProtocol::Udp, 50_000, 443, true, Direction::Egress)),
            EduTrafficClass::Quic
        );
        assert_eq!(
            EduTrafficClass::of(&flow(
                IpProtocol::Udp,
                50_000,
                4_500,
                false,
                Direction::Ingress
            )),
            EduTrafficClass::Vpn
        );
        assert_eq!(
            EduTrafficClass::of(&flow(
                IpProtocol::Tcp,
                50_000,
                22,
                false,
                Direction::Ingress
            )),
            EduTrafficClass::Ssh
        );
        assert_eq!(
            EduTrafficClass::of(&flow(
                IpProtocol::Tcp,
                50_000,
                3_389,
                false,
                Direction::Ingress
            )),
            EduTrafficClass::RemoteDesktop
        );
        assert_eq!(
            EduTrafficClass::of(&flow(
                IpProtocol::Tcp,
                50_000,
                4_070,
                true,
                Direction::Egress
            )),
            EduTrafficClass::Spotify
        );
        assert_eq!(
            EduTrafficClass::of(&flow(
                IpProtocol::Udp,
                40_000,
                50_000,
                true,
                Direction::Unknown
            )),
            EduTrafficClass::Other
        );
    }

    #[test]
    fn spotify_by_asn() {
        let t = Date::new(2020, 3, 3).at_hour(10);
        let f = FlowRecord::builder(
            FlowKey {
                src_addr: EDU_IP,
                dst_addr: EXT_IP,
                src_port: 50_000,
                dst_port: 443,
                protocol: IpProtocol::Tcp,
            },
            t,
        )
        .end(t.add_secs(1))
        .bytes(1)
        .packets(1)
        .asns(EDU_ASN.0, SPOTIFY_ASN.0)
        .build();
        assert_eq!(EduTrafficClass::of(&f), EduTrafficClass::Spotify);
    }

    #[test]
    fn accumulator_counts_and_volume() {
        let mut a = EduAnalysis::new();
        let d = Date::new(2020, 3, 3);
        a.observe_all(&[flow(
            IpProtocol::Tcp,
            50_000,
            443,
            false,
            Direction::Ingress,
        )]);
        a.observe_all(&[flow(
            IpProtocol::Tcp,
            50_000,
            443,
            false,
            Direction::Ingress,
        )]);
        a.observe_all(&[flow(IpProtocol::Tcp, 50_000, 443, true, Direction::Egress)]);
        a.observe_all(&[flow(
            IpProtocol::Udp,
            40_000,
            50_000,
            true,
            Direction::Unknown,
        )]);
        assert_eq!(
            a.daily_connections(d, EduTrafficClass::Web, Orientation::Incoming),
            2
        );
        assert_eq!(a.daily_by_orientation(d, Orientation::Outgoing), 1);
        assert_eq!(a.undetermined_fraction(), 0.25);
        assert_eq!(a.in_out_ratio(d), Some(2.0));
        assert_eq!(a.ingress.daily_total(d), 2_000);
    }

    #[test]
    fn growth_series_and_median() {
        let mut a = EduAnalysis::new();
        // 1 connection on Mar 3, 3 on Mar 4.
        a.observe_all(&[flow(IpProtocol::Tcp, 50_000, 22, false, Direction::Ingress)]);
        for _ in 0..3 {
            let mut f = flow(IpProtocol::Tcp, 50_000, 22, false, Direction::Ingress);
            f.start = Date::new(2020, 3, 4).at_hour(9);
            f.end = f.start.add_secs(2);
            a.observe_all(&[f]);
        }
        let series = a.relative_growth(
            EduTrafficClass::Ssh,
            Orientation::Incoming,
            Date::new(2020, 3, 3),
            Date::new(2020, 3, 3),
            Date::new(2020, 3, 4),
        );
        assert_eq!(series[0].1, 1.0);
        assert_eq!(series[1].1, 3.0);
        let med = a.median_daily(
            EduTrafficClass::Ssh,
            Orientation::Incoming,
            Date::new(2020, 3, 3),
            Date::new(2020, 3, 4),
        );
        assert_eq!(med, 2.0);
    }

    #[test]
    fn ratio_none_without_egress() {
        let mut a = EduAnalysis::new();
        a.observe_all(&[flow(
            IpProtocol::Tcp,
            50_000,
            443,
            false,
            Direction::Ingress,
        )]);
        assert_eq!(a.in_out_ratio(Date::new(2020, 3, 3)), None);
    }
}
