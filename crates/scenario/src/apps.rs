//! Application traffic classes and their transport-port signatures.
//!
//! This is the generator-side taxonomy: every synthetic flow belongs to one
//! [`AppClass`], which fixes its transport ports (from §4, Table 1, and
//! Appendix B of the paper) and the AS categories it is exchanged with.
//! The *analysis* side (crate `lockdown-analysis`) re-derives classes from
//! ports and ASNs exactly the way the paper does — the two sides meeting is
//! what the integration tests check.

use lockdown_flow::protocol::IpProtocol;
use lockdown_topology::asn::AsCategory;
use std::fmt;

/// A transport endpoint signature: protocol + server-side port.
/// GRE and ESP carry no ports; their signature is the protocol alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortSig {
    /// IP protocol of the signature.
    pub protocol: IpProtocol,
    /// Server port; ignored (0) for port-less protocols.
    pub port: u16,
}

impl PortSig {
    /// TCP port shorthand.
    pub const fn tcp(port: u16) -> PortSig {
        PortSig {
            protocol: IpProtocol::Tcp,
            port,
        }
    }

    /// UDP port shorthand.
    pub const fn udp(port: u16) -> PortSig {
        PortSig {
            protocol: IpProtocol::Udp,
            port,
        }
    }
}

impl fmt::Display for PortSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.protocol.has_ports() {
            write!(f, "{}/{}", self.protocol, self.port)
        } else {
            write!(f, "{}", self.protocol)
        }
    }
}

/// Generator-level application classes.
///
/// Superset of the paper's nine Table 1 classes: the §4 port analysis and
/// the §6/§7 studies need finer classes (QUIC vs. Web, the two VPN flavors,
/// push notifications, remote desktop, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppClass {
    /// HTTP(S) on TCP/80 + TCP/443 — the dominant share everywhere.
    Web,
    /// QUIC on UDP/443 (streaming by Google, Akamai, … §4).
    Quic,
    /// Alternative HTTP on TCP/8080 (flat through the pandemic, §4).
    AltHttp,
    /// Web conferencing & telephony: UDP/3480 (Teams/Skype STUN),
    /// UDP/8801 (Zoom connector).
    WebConf,
    /// Video-on-demand from VoD provider ASes (no distinctive port).
    Vod,
    /// Russian-TV style online streaming on TCP/8200 (IXP-CE, §4).
    TvStreaming,
    /// Gaming: 5 provider ASes and 57 typical ports (Table 1).
    Gaming,
    /// Social networks.
    SocialMedia,
    /// Messaging services.
    Messaging,
    /// Email: IMAP/TLS TCP/993 and friends (Appendix B).
    Email,
    /// Educational network traffic.
    Educational,
    /// Collaborative working suites.
    CollabWork,
    /// Content delivery networks (non-hypergiant classes of Table 1).
    Cdn,
    /// Road-warrior VPNs: IPsec NAT-traversal UDP/4500, IKE UDP/500,
    /// OpenVPN 1194, L2TP 1701, PPTP 1723.
    VpnUser,
    /// Site-to-site VPN transport: GRE and ESP (decline at the IXP, §4).
    VpnSiteToSite,
    /// TLS-tunnelled VPN on TCP/443 to `*vpn*` hosts — invisible to
    /// port-based classification (§6's headline point).
    VpnTls,
    /// Cloudflare load-balancer probes on UDP/2408 (flat, §4).
    CloudflareLb,
    /// The unattributable TCP/25461 traffic from hosting prefixes (§4).
    UnknownHosting,
    /// Mobile push notification channels TCP/5223 + TCP/5228 (App. B).
    PushNotif,
    /// Remote desktop: RDP TCP/3389, Citrix 1494, TeamViewer 5938.
    RemoteDesktop,
    /// SSH (TCP/22) — 9.1× incoming growth at the EDU network (§7).
    Ssh,
    /// Music streaming (Spotify: TCP/4070 or AS8403, App. B).
    MusicStreaming,
    /// Everything else (P2P-ish, marginal protocols, random high ports).
    Other,
}

impl AppClass {
    /// All classes.
    pub const ALL: [AppClass; 23] = [
        AppClass::Web,
        AppClass::Quic,
        AppClass::AltHttp,
        AppClass::WebConf,
        AppClass::Vod,
        AppClass::TvStreaming,
        AppClass::Gaming,
        AppClass::SocialMedia,
        AppClass::Messaging,
        AppClass::Email,
        AppClass::Educational,
        AppClass::CollabWork,
        AppClass::Cdn,
        AppClass::VpnUser,
        AppClass::VpnSiteToSite,
        AppClass::VpnTls,
        AppClass::CloudflareLb,
        AppClass::UnknownHosting,
        AppClass::PushNotif,
        AppClass::RemoteDesktop,
        AppClass::Ssh,
        AppClass::MusicStreaming,
        AppClass::Other,
    ];

    /// Server-side port signatures this class uses on the wire.
    pub fn port_signatures(self) -> &'static [PortSig] {
        const WEB: &[PortSig] = &[PortSig::tcp(443), PortSig::tcp(80)];
        const QUIC: &[PortSig] = &[PortSig::udp(443)];
        const ALT_HTTP: &[PortSig] = &[PortSig::tcp(8080), PortSig::tcp(8000)];
        const WEBCONF: &[PortSig] = &[PortSig::udp(3480), PortSig::udp(8801)];
        // VoD rides HTTPS; identified by AS, not port (Table 1).
        const VOD: &[PortSig] = &[PortSig::tcp(443)];
        const TV: &[PortSig] = &[PortSig::tcp(8200)];
        const SOCIAL: &[PortSig] = &[PortSig::tcp(443)];
        const MESSAGING: &[PortSig] = &[
            PortSig::tcp(1863), // classic messenger protocol
            PortSig::tcp(6667), // IRC
            PortSig::tcp(4443),
            PortSig::udp(4443),
            PortSig::tcp(5269), // XMPP server-to-server
        ];
        const EMAIL: &[PortSig] = &[
            PortSig::tcp(993),
            PortSig::tcp(25),
            PortSig::tcp(110),
            PortSig::tcp(143),
            PortSig::tcp(465),
            PortSig::tcp(587),
            PortSig::tcp(995),
        ];
        const COLLAB: &[PortSig] = &[PortSig::tcp(8443), PortSig::udp(8443), PortSig::tcp(7443)];
        const VPN_USER: &[PortSig] = &[
            PortSig::udp(4500),
            PortSig::udp(500),
            PortSig::udp(1194),
            PortSig::tcp(1194),
            PortSig::udp(1701),
            PortSig::tcp(1723),
        ];
        const VPN_S2S: &[PortSig] = &[
            PortSig {
                protocol: IpProtocol::Gre,
                port: 0,
            },
            PortSig {
                protocol: IpProtocol::Esp,
                port: 0,
            },
        ];
        const CF_LB: &[PortSig] = &[PortSig::udp(2408)];
        const UNKNOWN: &[PortSig] = &[PortSig::tcp(25461)];
        const PUSH: &[PortSig] = &[PortSig::tcp(5223), PortSig::tcp(5228)];
        const RDP: &[PortSig] = &[
            PortSig::tcp(3389),
            PortSig::tcp(1494),
            PortSig::udp(1494),
            PortSig::tcp(5938),
            PortSig::udp(5938),
        ];
        const SSH: &[PortSig] = &[PortSig::tcp(22)];
        const MUSIC: &[PortSig] = &[PortSig::tcp(4070), PortSig::tcp(443)];
        match self {
            AppClass::Web => WEB,
            AppClass::Quic => QUIC,
            AppClass::AltHttp => ALT_HTTP,
            AppClass::WebConf => WEBCONF,
            AppClass::Vod => VOD,
            AppClass::TvStreaming => TV,
            AppClass::Gaming => GAMING_PORTS,
            AppClass::SocialMedia => SOCIAL,
            AppClass::Messaging => MESSAGING,
            AppClass::Email => EMAIL,
            AppClass::Educational => WEB,
            AppClass::CollabWork => COLLAB,
            AppClass::Cdn => WEB,
            AppClass::VpnUser => VPN_USER,
            AppClass::VpnSiteToSite => VPN_S2S,
            AppClass::VpnTls => VOD,
            AppClass::CloudflareLb => CF_LB,
            AppClass::UnknownHosting => UNKNOWN,
            AppClass::PushNotif => PUSH,
            AppClass::RemoteDesktop => RDP,
            AppClass::Ssh => SSH,
            AppClass::MusicStreaming => MUSIC,
            AppClass::Other => OTHER_PORTS,
        }
    }

    /// AS categories that *serve* this class's traffic (the content side of
    /// each flow). Used by the generator to pick server ASes and by Fig. 4
    /// to produce the hypergiant/other split.
    pub fn server_categories(self) -> &'static [AsCategory] {
        match self {
            AppClass::Web => &[
                AsCategory::Hypergiant,
                AsCategory::Cdn,
                AsCategory::CloudProvider,
                AsCategory::Hosting,
            ],
            AppClass::Quic => &[AsCategory::Hypergiant],
            AppClass::AltHttp => &[AsCategory::Hosting, AsCategory::CloudProvider],
            AppClass::WebConf => &[AsCategory::ConferencingProvider, AsCategory::Hypergiant],
            AppClass::Vod => &[AsCategory::VodProvider],
            AppClass::TvStreaming => &[AsCategory::TvBroadcaster],
            AppClass::Gaming => &[AsCategory::GamingProvider],
            AppClass::SocialMedia => &[AsCategory::SocialMedia],
            AppClass::Messaging => &[AsCategory::MessagingProvider, AsCategory::Hypergiant],
            AppClass::Email => &[
                AsCategory::CloudProvider,
                AsCategory::Enterprise,
                AsCategory::Hypergiant,
            ],
            AppClass::Educational => &[AsCategory::Educational],
            AppClass::CollabWork => &[AsCategory::CollaborationProvider, AsCategory::CloudProvider],
            AppClass::Cdn => &[AsCategory::Cdn],
            AppClass::VpnUser => &[AsCategory::Enterprise, AsCategory::CloudProvider],
            AppClass::VpnSiteToSite => &[AsCategory::Enterprise, AsCategory::CloudProvider],
            AppClass::VpnTls => &[AsCategory::Enterprise, AsCategory::CloudProvider],
            AppClass::CloudflareLb => &[AsCategory::Hypergiant], // Cloudflare is in Table 2
            AppClass::UnknownHosting => &[AsCategory::Hosting],
            AppClass::PushNotif => &[AsCategory::Hypergiant], // Apple/Google
            AppClass::RemoteDesktop => &[AsCategory::Enterprise, AsCategory::CloudProvider],
            AppClass::Ssh => &[AsCategory::CloudProvider, AsCategory::Enterprise],
            AppClass::MusicStreaming => &[AsCategory::MusicStreaming],
            AppClass::Other => &[
                AsCategory::Hosting,
                AsCategory::Transit,
                AsCategory::Enterprise,
            ],
        }
    }

    /// Fraction of this class's bytes served by hypergiant ASes — drives
    /// the Fig. 4 hypergiant/other growth split.
    pub fn hypergiant_share(self) -> f64 {
        match self {
            AppClass::Quic | AppClass::PushNotif | AppClass::CloudflareLb => 0.95,
            AppClass::Web => 0.72,
            AppClass::Vod => 0.75,
            AppClass::SocialMedia => 0.85,
            AppClass::Cdn => 0.35,     // Table 1 CDNs are the non-HG ones
            AppClass::WebConf => 0.45, // Teams/Skype (MS) vs Zoom
            AppClass::Messaging => 0.40,
            AppClass::Email => 0.30,
            AppClass::CollabWork => 0.25,
            AppClass::Gaming => 0.15,
            AppClass::AltHttp | AppClass::Other | AppClass::UnknownHosting => 0.10,
            AppClass::MusicStreaming => 0.0,
            AppClass::TvStreaming => 0.0,
            AppClass::Educational => 0.0,
            AppClass::VpnUser | AppClass::VpnSiteToSite | AppClass::VpnTls => 0.05,
            AppClass::RemoteDesktop | AppClass::Ssh => 0.05,
        }
    }

    /// Which hypergiant ASNs serve this class. The generator draws the
    /// hypergiant share of a class's traffic from this pool, so the
    /// analysis-side Table 1 filters (which enumerate concrete ASNs) can
    /// recover it.
    pub fn hypergiant_pool(self) -> &'static [u32] {
        match self {
            // Google, Akamai, Cloudflare, Facebook run QUIC at scale.
            AppClass::Quic => &[15_169, 20_940, 13_335, 32_934],
            // Netflix and Amazon are Table 2's VoD hypergiants.
            AppClass::Vod => &[2_906, 16_509],
            AppClass::SocialMedia => &[32_934, 13_414],
            AppClass::WebConf => &[8_075],
            AppClass::Messaging => &[32_934, 8_075],
            AppClass::Email => &[8_075, 15_169, 10_310],
            AppClass::CloudflareLb => &[13_335],
            AppClass::PushNotif => &[714, 15_169],
            AppClass::Cdn => &[20_940, 13_335, 22_822, 15_133],
            AppClass::CollabWork => &[8_075, 15_169],
            AppClass::Gaming => &[8_075, 16_509], // Xbox Live, Amazon-hosted games
            // Everything else draws from the full Table 2 list.
            _ => &[
                714, 16_509, 32_934, 15_169, 20_940, 10_310, 2_906, 6_939, 16_276, 22_822, 8_075,
                13_414, 46_489, 13_335, 15_133,
            ],
        }
    }

    /// Short label used in reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AppClass::Web => "Web",
            AppClass::Quic => "QUIC",
            AppClass::AltHttp => "alt-HTTP",
            AppClass::WebConf => "Web conf",
            AppClass::Vod => "VoD",
            AppClass::TvStreaming => "TV streaming",
            AppClass::Gaming => "gaming",
            AppClass::SocialMedia => "social media",
            AppClass::Messaging => "messaging",
            AppClass::Email => "email",
            AppClass::Educational => "educational",
            AppClass::CollabWork => "coll. working",
            AppClass::Cdn => "CDN",
            AppClass::VpnUser => "VPN (user)",
            AppClass::VpnSiteToSite => "VPN (site-to-site)",
            AppClass::VpnTls => "VPN (TLS)",
            AppClass::CloudflareLb => "Cloudflare LB",
            AppClass::UnknownHosting => "unknown (hosting)",
            AppClass::PushNotif => "push notifications",
            AppClass::RemoteDesktop => "remote desktop",
            AppClass::Ssh => "SSH",
            AppClass::MusicStreaming => "music streaming",
            AppClass::Other => "other",
        }
    }
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The 57 "typical gaming transport ports" of Table 1: the union of
/// well-known multiplayer/cloud-gaming port ranges (game-industry defaults:
/// Steam, consoles, major titles).
pub const GAMING_PORTS: &[PortSig] = &[
    // Steam & Source engine
    PortSig::udp(27015),
    PortSig::tcp(27015),
    PortSig::udp(27016),
    PortSig::udp(27017),
    PortSig::udp(27018),
    PortSig::udp(27019),
    PortSig::udp(27020),
    PortSig::udp(27031),
    PortSig::udp(27036),
    PortSig::tcp(27036),
    PortSig::udp(4380),
    // Xbox Live / PSN
    PortSig::udp(3074),
    PortSig::tcp(3074),
    PortSig::udp(3075),
    PortSig::udp(3076),
    PortSig::udp(3478),
    PortSig::udp(3479),
    PortSig::tcp(3480),
    PortSig::udp(9308),
    // Riot (League of Legends; referenced in Table 1's sources)
    PortSig::udp(5000),
    PortSig::udp(5100),
    PortSig::udp(5200),
    PortSig::udp(5300),
    PortSig::udp(5500),
    PortSig::tcp(5222),
    PortSig::tcp(5223),
    PortSig::tcp(2099),
    PortSig::tcp(8393),
    PortSig::tcp(8400),
    // Blizzard
    PortSig::tcp(1119),
    PortSig::udp(1119),
    PortSig::udp(6113),
    PortSig::tcp(6113),
    PortSig::tcp(3724),
    PortSig::udp(3724),
    // Fortnite / Epic
    PortSig::udp(9000),
    PortSig::udp(9001),
    PortSig::udp(9002),
    PortSig::udp(5795),
    PortSig::udp(5796),
    PortSig::udp(5797),
    // Minecraft / misc
    PortSig::tcp(25565),
    PortSig::udp(19132),
    PortSig::udp(19133),
    // Cloud gaming (Stadia/GeForce Now style RTP ranges)
    PortSig::udp(44700),
    PortSig::udp(44800),
    PortSig::udp(44810),
    PortSig::tcp(49005),
    PortSig::udp(49006),
    // Voice for gaming (Discord/TeamSpeak/Mumble)
    PortSig::udp(50000),
    PortSig::udp(9987),
    PortSig::tcp(30033),
    PortSig::udp(64738),
    PortSig::tcp(64738),
    // Classic shooters
    PortSig::udp(27960),
    PortSig::udp(28960),
    PortSig::udp(7777),
];

/// Port pool for the long tail of unclassified traffic.
const OTHER_PORTS: &[PortSig] = &[
    PortSig::tcp(8333),
    PortSig::udp(6881),
    PortSig::tcp(6881),
    PortSig::udp(51413),
    PortSig::tcp(9001),
    PortSig::udp(123),
    PortSig::tcp(21),
    PortSig::udp(53),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaming_port_count_matches_table1() {
        // Table 1: "57 distinct transport ports" for the gaming class.
        assert_eq!(GAMING_PORTS.len(), 57);
        let mut set: Vec<_> = GAMING_PORTS.to_vec();
        set.sort_by_key(|p| (p.protocol.number(), p.port));
        set.dedup();
        assert_eq!(set.len(), 57, "gaming ports must be distinct");
    }

    #[test]
    fn every_class_has_signatures_and_servers() {
        for c in AppClass::ALL {
            assert!(!c.port_signatures().is_empty(), "{c} has no ports");
            assert!(!c.server_categories().is_empty(), "{c} has no servers");
            let share = c.hypergiant_share();
            assert!((0.0..=1.0).contains(&share));
        }
    }

    #[test]
    fn vpn_user_ports_match_section6() {
        let sigs = AppClass::VpnUser.port_signatures();
        for p in [4500u16, 500, 1194, 1701, 1723] {
            assert!(
                sigs.iter().any(|s| s.port == p),
                "§6 port {p} missing from VpnUser"
            );
        }
    }

    #[test]
    fn site_to_site_is_portless() {
        for s in AppClass::VpnSiteToSite.port_signatures() {
            assert!(!s.protocol.has_ports());
        }
    }

    #[test]
    fn port_sig_display() {
        assert_eq!(PortSig::tcp(443).to_string(), "TCP/443");
        assert_eq!(PortSig::udp(4500).to_string(), "UDP/4500");
        assert_eq!(
            PortSig {
                protocol: IpProtocol::Gre,
                port: 0
            }
            .to_string(),
            "GRE"
        );
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = AppClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), AppClass::ALL.len());
    }
}
