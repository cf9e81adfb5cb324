//! Autonomous system identities and categories.

use std::fmt;

/// An autonomous system number (32-bit, RFC 6793).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Business category of an AS — the dimension every AS-level analysis in the
/// paper slices by (hypergiants §3.2, remote-work ASes §3.4, application
/// classes §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsCategory {
    /// One of the 15 hypergiants of Table 2 (Böttger et al.).
    Hypergiant,
    /// Residential broadband provider ("eyeball network").
    EyeballIsp,
    /// Mobile network operator.
    MobileOperator,
    /// Content delivery network (non-hypergiant).
    Cdn,
    /// Cloud/hosting provider used by enterprises.
    CloudProvider,
    /// Enterprise network (companies with their own AS).
    Enterprise,
    /// University / research network.
    Educational,
    /// Gaming provider (multiplayer or cloud gaming).
    GamingProvider,
    /// Video-on-demand streaming provider (non-hypergiant).
    VodProvider,
    /// Online TV broadcaster (the TCP/8200 Russian-TV streamer of §4).
    TvBroadcaster,
    /// Social network operator.
    SocialMedia,
    /// Video conferencing / telephony provider.
    ConferencingProvider,
    /// Online collaboration suite provider.
    CollaborationProvider,
    /// Messaging service operator.
    MessagingProvider,
    /// Generic hosting company (the unattributable TCP/25461 crowd of §4).
    Hosting,
    /// Transit-only carrier.
    Transit,
    /// Music streaming (the EDU analysis tracks Spotify specifically).
    MusicStreaming,
}

impl AsCategory {
    /// All categories, for exhaustive iteration in generators and tests.
    pub const ALL: [AsCategory; 17] = [
        AsCategory::Hypergiant,
        AsCategory::EyeballIsp,
        AsCategory::MobileOperator,
        AsCategory::Cdn,
        AsCategory::CloudProvider,
        AsCategory::Enterprise,
        AsCategory::Educational,
        AsCategory::GamingProvider,
        AsCategory::VodProvider,
        AsCategory::TvBroadcaster,
        AsCategory::SocialMedia,
        AsCategory::ConferencingProvider,
        AsCategory::CollaborationProvider,
        AsCategory::MessagingProvider,
        AsCategory::Hosting,
        AsCategory::Transit,
        AsCategory::MusicStreaming,
    ];
}

impl fmt::Display for AsCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AsCategory::Hypergiant => "hypergiant",
            AsCategory::EyeballIsp => "eyeball ISP",
            AsCategory::MobileOperator => "mobile operator",
            AsCategory::Cdn => "CDN",
            AsCategory::CloudProvider => "cloud provider",
            AsCategory::Enterprise => "enterprise",
            AsCategory::Educational => "educational",
            AsCategory::GamingProvider => "gaming provider",
            AsCategory::VodProvider => "VoD provider",
            AsCategory::TvBroadcaster => "TV broadcaster",
            AsCategory::SocialMedia => "social media",
            AsCategory::ConferencingProvider => "conferencing provider",
            AsCategory::CollaborationProvider => "collaboration provider",
            AsCategory::MessagingProvider => "messaging provider",
            AsCategory::Hosting => "hosting",
            AsCategory::Transit => "transit",
            AsCategory::MusicStreaming => "music streaming",
        };
        f.write_str(s)
    }
}

/// Geographic region of an AS or vantage point. Lockdown timing differs by
/// region (Europe locked down in March; the US East Coast later), which is
/// exactly the effect Fig. 1/3 show.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // region names are self-describing
pub enum Region {
    CentralEurope,
    SouthernEurope,
    UsEast,
}

impl Region {
    /// All regions.
    pub const ALL: [Region; 3] = [
        Region::CentralEurope,
        Region::SouthernEurope,
        Region::UsEast,
    ];
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::CentralEurope => "Central Europe",
            Region::SouthernEurope => "Southern Europe",
            Region::UsEast => "US East Coast",
        };
        f.write_str(s)
    }
}

/// Everything the pipeline knows about one AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsInfo {
    /// AS number.
    pub asn: Asn,
    /// Organization name.
    pub name: String,
    /// Business category.
    pub category: AsCategory,
    /// Home region.
    pub region: Region,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(Asn(15_169).to_string(), "AS15169");
        assert_eq!(AsCategory::EyeballIsp.to_string(), "eyeball ISP");
        assert_eq!(Region::UsEast.to_string(), "US East Coast");
    }

    #[test]
    fn all_categories_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in AsCategory::ALL {
            assert!(seen.insert(format!("{c:?}")));
        }
        assert_eq!(seen.len(), 17);
    }
}
