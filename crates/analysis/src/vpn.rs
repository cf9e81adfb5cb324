//! Two-method VPN traffic classification (§6, Fig. 10).
//!
//! Method 1 (port-based): the well-known VPN transport signatures —
//! IPsec (UDP/500, UDP/4500), OpenVPN (1194), L2TP (1701), PPTP (1723) on
//! both TCP and UDP, plus the ESP and GRE tunnelling protocols that carry
//! IPsec payloads (Appendix B's VPN class).
//!
//! Method 2 (domain-based): TCP/443 flows to addresses identified by the
//! `topology::dns` `*vpn*` procedure. The paper's finding — reproduced by
//! Fig. 10 — is that method 1 shows almost no change across the lockdown
//! while method 2 surfaces a >200% working-hours increase, because
//! enterprise SSL-VPN rides TCP/443 where port-based counting cannot see
//! it.

use lockdown_flow::protocol::IpProtocol;
use lockdown_flow::record::FlowRecord;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Which §6 method identified a flow as VPN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VpnMethod {
    /// Well-known VPN port/protocol.
    Port,
    /// TCP/443 to a `*vpn*` domain's address.
    Domain,
}

/// VPN ports checked on both TCP and UDP (§6).
pub(crate) const VPN_PORTS: [u16; 5] = [500, 4_500, 1_194, 1_701, 1_723];

/// The §6 classifier.
#[derive(Debug, Clone, Default)]
pub struct VpnClassifier {
    vpn_ips: BTreeSet<Ipv4Addr>,
}

impl VpnClassifier {
    /// Build from the candidate VPN endpoint set produced by
    /// [`lockdown_topology::dns::vpn::identify_vpn_ips`].
    pub fn new(vpn_ips: BTreeSet<Ipv4Addr>) -> VpnClassifier {
        VpnClassifier { vpn_ips }
    }

    /// Number of candidate endpoints.
    pub fn candidate_count(&self) -> usize {
        self.vpn_ips.len()
    }

    /// Classify one flow. Port-based identification wins when both apply
    /// (a VPN port to a VPN host is unambiguous anyway).
    pub fn classify(&self, record: &FlowRecord) -> Option<VpnMethod> {
        if is_port_vpn(record) {
            return Some(VpnMethod::Port);
        }
        if self.is_domain_vpn(record) {
            return Some(VpnMethod::Domain);
        }
        None
    }

    /// Method 2: TCP/443 with a known VPN endpoint on either side.
    pub fn is_domain_vpn(&self, record: &FlowRecord) -> bool {
        let https = record.key.protocol == IpProtocol::Tcp
            && (record.key.src_port == 443 || record.key.dst_port == 443);
        https
            && (self.vpn_ips.contains(&record.key.src_addr)
                || self.vpn_ips.contains(&record.key.dst_addr))
    }
}

/// Method 1: well-known VPN transport signature.
pub fn is_port_vpn(record: &FlowRecord) -> bool {
    match record.key.protocol {
        IpProtocol::Esp | IpProtocol::Gre => true,
        IpProtocol::Tcp | IpProtocol::Udp => {
            let lo = record.key.src_port.min(record.key.dst_port);
            VPN_PORTS.contains(&lo)
                || VPN_PORTS.contains(&record.key.src_port)
                || VPN_PORTS.contains(&record.key.dst_port)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::record::FlowKey;
    use lockdown_flow::time::Date;

    fn flow(proto: IpProtocol, sport: u16, dport: u16, src: [u8; 4], dst: [u8; 4]) -> FlowRecord {
        let t = Date::new(2020, 3, 25).at_hour(11);
        FlowRecord::builder(
            FlowKey {
                src_addr: src.into(),
                dst_addr: dst.into(),
                src_port: sport,
                dst_port: dport,
                protocol: proto,
            },
            t,
        )
        .end(t.add_secs(10))
        .bytes(1_000)
        .packets(5)
        .build()
    }

    const A: [u8; 4] = [192, 0, 2, 1];
    const B: [u8; 4] = [198, 51, 100, 2];
    const GW: [u8; 4] = [203, 0, 113, 9];

    fn classifier() -> VpnClassifier {
        VpnClassifier::new([Ipv4Addr::from(GW)].into_iter().collect())
    }

    #[test]
    fn port_method() {
        assert!(is_port_vpn(&flow(IpProtocol::Udp, 50_000, 4_500, A, B)));
        assert!(is_port_vpn(&flow(IpProtocol::Udp, 1_194, 40_000, A, B)));
        assert!(is_port_vpn(&flow(IpProtocol::Tcp, 1_723, 40_000, A, B)));
        assert!(is_port_vpn(&flow(IpProtocol::Esp, 0, 0, A, B)));
        assert!(is_port_vpn(&flow(IpProtocol::Gre, 0, 0, A, B)));
        assert!(!is_port_vpn(&flow(IpProtocol::Tcp, 443, 40_000, A, B)));
        assert!(!is_port_vpn(&flow(IpProtocol::Icmp, 0, 0, A, B)));
    }

    #[test]
    fn domain_method() {
        let c = classifier();
        // HTTPS to the gateway: domain-identified VPN.
        let f = flow(IpProtocol::Tcp, 50_000, 443, A, GW);
        assert_eq!(c.classify(&f), Some(VpnMethod::Domain));
        // Reverse direction too.
        let f = flow(IpProtocol::Tcp, 443, 50_000, GW, A);
        assert_eq!(c.classify(&f), Some(VpnMethod::Domain));
        // HTTPS to a non-VPN host: nothing.
        assert_eq!(c.classify(&flow(IpProtocol::Tcp, 443, 50_000, A, B)), None);
        // Non-HTTPS traffic to the gateway is not the §6 method's target.
        assert_eq!(c.classify(&flow(IpProtocol::Udp, 53, 50_000, A, GW)), None);
    }

    #[test]
    fn port_method_wins_ties() {
        let c = classifier();
        let f = flow(IpProtocol::Udp, 4_500, 50_000, GW, A);
        assert_eq!(c.classify(&f), Some(VpnMethod::Port));
    }

    #[test]
    fn counts() {
        assert_eq!(classifier().candidate_count(), 1);
        assert_eq!(VpnClassifier::default().candidate_count(), 0);
    }
}
