//! The paper's vantage points (§2).
//!
//! Six observation networks: one residential ISP, three IXPs, one
//! educational metropolitan network, one mobile operator, plus the roaming
//! exchange (IPX). Each vantage point pairs a network kind with a region —
//! the region decides which lockdown timeline applies, the kind decides the
//! traffic composition.

use crate::asn::Region;
use std::fmt;

/// What kind of network a vantage point observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VantageKind {
    /// Residential broadband ISP (border-router NetFlow, non-transit focus).
    Isp,
    /// Internet exchange point (peering-fabric IPFIX).
    Ixp,
    /// Educational/research metropolitan network (border NetFlow).
    Edu,
    /// Mobile network operator.
    Mobile,
    /// Roaming interconnect (IPX).
    Roaming,
}

/// One of the paper's vantage points.
///
/// The ordering follows the paper's presentation order (`ALL`); the trace
/// engine relies on it to enumerate generation cells deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VantagePoint {
    /// Large Central-European ISP, >15M fixed lines ("L-ISP"/"ISP-CE").
    IspCe,
    /// Central-European IXP, >900 members, >8 Tbps peak ("IXP-CE").
    IxpCe,
    /// Southern-European IXP, >170 members, ~500 Gbps peak ("IXP-SE").
    IxpSe,
    /// US East Coast IXP, 250 members, >600 Gbps peak ("IXP-US").
    IxpUs,
    /// Educational metropolitan network, 16 institutions ("EDU").
    Edu,
    /// Central-European mobile operator, >40M customers.
    MobileCe,
    /// Roaming/IPX interconnect co-located with ISP-CE.
    RoamingIpx,
}

impl VantagePoint {
    /// All vantage points, in the paper's presentation order.
    pub const ALL: [VantagePoint; 7] = [
        VantagePoint::IspCe,
        VantagePoint::IxpCe,
        VantagePoint::IxpSe,
        VantagePoint::IxpUs,
        VantagePoint::Edu,
        VantagePoint::MobileCe,
        VantagePoint::RoamingIpx,
    ];

    /// The four vantage points Fig. 3 and Fig. 9 analyze.
    pub const CORE_FOUR: [VantagePoint; 4] = [
        VantagePoint::IspCe,
        VantagePoint::IxpCe,
        VantagePoint::IxpSe,
        VantagePoint::IxpUs,
    ];

    /// Network kind.
    pub fn kind(self) -> VantageKind {
        match self {
            VantagePoint::IspCe => VantageKind::Isp,
            VantagePoint::IxpCe | VantagePoint::IxpSe | VantagePoint::IxpUs => VantageKind::Ixp,
            VantagePoint::Edu => VantageKind::Edu,
            VantagePoint::MobileCe => VantageKind::Mobile,
            VantagePoint::RoamingIpx => VantageKind::Roaming,
        }
    }

    /// Geographic region, controlling which lockdown timeline applies.
    pub fn region(self) -> Region {
        match self {
            VantagePoint::IspCe
            | VantagePoint::IxpCe
            | VantagePoint::MobileCe
            | VantagePoint::RoamingIpx => Region::CentralEurope,
            VantagePoint::IxpSe | VantagePoint::Edu => Region::SouthernEurope,
            VantagePoint::IxpUs => Region::UsEast,
        }
    }

    /// Nominal peak traffic in Gbps, used to scale synthetic volumes to
    /// the relative magnitudes the paper reports.
    pub fn peak_gbps(self) -> f64 {
        match self {
            VantagePoint::IspCe => 4_000.0,
            VantagePoint::IxpCe => 8_000.0,
            VantagePoint::IxpSe => 500.0,
            VantagePoint::IxpUs => 600.0,
            VantagePoint::Edu => 40.0,
            VantagePoint::MobileCe => 1_500.0,
            VantagePoint::RoamingIpx => 100.0,
        }
    }

    /// Short label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            VantagePoint::IspCe => "ISP-CE",
            VantagePoint::IxpCe => "IXP-CE",
            VantagePoint::IxpSe => "IXP-SE",
            VantagePoint::IxpUs => "IXP-US",
            VantagePoint::Edu => "EDU",
            VantagePoint::MobileCe => "MOBILE-CE",
            VantagePoint::RoamingIpx => "IPX",
        }
    }
}

impl fmt::Display for VantagePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_regions() {
        assert_eq!(VantagePoint::IspCe.kind(), VantageKind::Isp);
        assert_eq!(VantagePoint::IxpUs.kind(), VantageKind::Ixp);
        assert_eq!(VantagePoint::IxpUs.region(), Region::UsEast);
        assert_eq!(VantagePoint::Edu.region(), Region::SouthernEurope);
        assert_eq!(VantagePoint::RoamingIpx.region(), Region::CentralEurope);
    }

    #[test]
    fn peak_ordering() {
        // IXP-CE is the biggest fabric; EDU the smallest network.
        assert!(VantagePoint::IxpCe.peak_gbps() > VantagePoint::IspCe.peak_gbps());
        assert!(VantagePoint::Edu.peak_gbps() < VantagePoint::IxpSe.peak_gbps());
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = VantagePoint::ALL.iter().map(|v| v.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), VantagePoint::ALL.len());
    }
}
