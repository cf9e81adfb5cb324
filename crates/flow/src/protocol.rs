//! Transport/IP protocol numbers and TCP flags as they appear in flow records.

use std::fmt;

/// IP protocol numbers relevant to the paper's analyses.
///
/// The paper's port-level analysis (§4) and the EDU/VPN traffic classes
/// (§6, Appendix B) distinguish TCP, UDP, and the tunnelling protocols ESP
/// (IPsec payload) and GRE, which carry no ports. Everything else is folded
/// into [`IpProtocol::Other`] with its raw protocol number preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IpProtocol {
    /// ICMP (protocol 1).
    Icmp,
    /// TCP (protocol 6).
    Tcp,
    /// UDP (protocol 17).
    Udp,
    /// Generic Routing Encapsulation (protocol 47) — IPsec/VPN tunnels.
    Gre,
    /// IPsec Encapsulating Security Payload (protocol 50).
    Esp,
    /// Any other protocol, by IANA number.
    Other(u8),
}

impl IpProtocol {
    /// Parse from the IANA protocol number: one load from a table built at
    /// compile time, since the segment decoder and the v9/IPFIX decoders
    /// call it once per record.
    pub fn from_number(n: u8) -> IpProtocol {
        static BY_NUMBER: [IpProtocol; 256] = {
            let mut table = [IpProtocol::Other(0); 256];
            let mut n = 0;
            while n < 256 {
                table[n] = match n as u8 {
                    1 => IpProtocol::Icmp,
                    6 => IpProtocol::Tcp,
                    17 => IpProtocol::Udp,
                    47 => IpProtocol::Gre,
                    50 => IpProtocol::Esp,
                    other => IpProtocol::Other(other),
                };
                n += 1;
            }
            table
        };
        BY_NUMBER[usize::from(n)]
    }

    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Gre => 47,
            IpProtocol::Esp => 50,
            IpProtocol::Other(n) => n,
        }
    }

    /// Whether this protocol carries transport-layer ports.
    pub fn has_ports(self) -> bool {
        matches!(self, IpProtocol::Tcp | IpProtocol::Udp)
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "ICMP"),
            IpProtocol::Tcp => write!(f, "TCP"),
            IpProtocol::Udp => write!(f, "UDP"),
            IpProtocol::Gre => write!(f, "GRE"),
            IpProtocol::Esp => write!(f, "ESP"),
            IpProtocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// TCP control-bit flags, as accumulated over a flow by NetFlow/IPFIX
/// exporters (`tcpControlBits`, IE 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags(pub u8);

#[allow(missing_docs)] // the six flag constants are self-describing
impl TcpFlags {
    pub(crate) const FIN: u8 = 0x01;
    pub(crate) const SYN: u8 = 0x02;
    pub(crate) const RST: u8 = 0x04;
    pub(crate) const PSH: u8 = 0x08;
    pub(crate) const ACK: u8 = 0x10;
    pub(crate) const URG: u8 = 0x20;

    /// Flags typical of a complete connection (SYN + ACK + FIN).
    pub fn complete_connection() -> TcpFlags {
        TcpFlags(Self::SYN | Self::ACK | Self::FIN | Self::PSH)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [(u8, char); 6] = [
            (TcpFlags::URG, 'U'),
            (TcpFlags::ACK, 'A'),
            (TcpFlags::PSH, 'P'),
            (TcpFlags::RST, 'R'),
            (TcpFlags::SYN, 'S'),
            (TcpFlags::FIN, 'F'),
        ];
        for (bit, ch) in NAMES {
            if self.0 & bit != 0 {
                write!(f, "{ch}")?;
            } else {
                write!(f, ".")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_roundtrip() {
        // Every table entry: the number comes back, and only the five
        // named numbers are not `Other`.
        for n in 0..=255u8 {
            let p = IpProtocol::from_number(n);
            assert_eq!(p.number(), n);
            let named = [1, 6, 17, 47, 50].contains(&n);
            assert_eq!(p == IpProtocol::Other(n), !named, "{n}: {p:?}");
        }
    }

    #[test]
    fn named_protocols() {
        assert_eq!(IpProtocol::from_number(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from_number(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from_number(47), IpProtocol::Gre);
        assert_eq!(IpProtocol::from_number(50), IpProtocol::Esp);
        assert!(IpProtocol::Tcp.has_ports());
        assert!(IpProtocol::Udp.has_ports());
        assert!(!IpProtocol::Gre.has_ports());
        assert!(!IpProtocol::Esp.has_ports());
    }

    #[test]
    fn display() {
        assert_eq!(IpProtocol::Tcp.to_string(), "TCP");
        assert_eq!(IpProtocol::Other(132).to_string(), "proto132");
        assert_eq!(
            TcpFlags(TcpFlags::SYN | TcpFlags::ACK).to_string(),
            ".A..S."
        );
    }

    #[test]
    fn flags() {
        let f = TcpFlags::complete_connection();
        assert_eq!(f.0 & TcpFlags::SYN, TcpFlags::SYN);
        assert_eq!(f.0 & TcpFlags::FIN, TcpFlags::FIN);
        assert_eq!(f.0 & TcpFlags::RST, 0);
    }
}
