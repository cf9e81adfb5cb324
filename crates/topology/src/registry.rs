//! The synthetic AS-level Internet the generator populates.
//!
//! Real WHOIS/PeeringDB data cannot ship with this reproduction, so the
//! registry *synthesizes* an Internet with the same categorical structure
//! the paper's classification relies on: the 15 hypergiants of Table 2 with
//! their real ASNs, eyeball ISPs per region, and provider ASes for each
//! application class of Table 1 (5 VoD ASes, 5 gaming ASes, 4 social
//! networks, 9 educational networks, 2 collaboration suites, 8 CDNs, …).
//! Every AS receives deterministic IPv4 prefix allocations, and the
//! registry builds the longest-prefix-match table that attributes flow
//! addresses back to ASNs — the join at the heart of §3 and §5.

use crate::asn::{AsCategory, AsInfo, Asn, Region};
use crate::hypergiants::HYPERGIANTS;
use crate::prefix::{Ipv4Prefix, LpmTable};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The ISP-CE vantage point's own AS ("large European ISP … more than 15
/// million fixed lines", §2). Documentation-range ASN.
pub const ISP_CE_ASN: Asn = Asn(64_496);
/// The EDU metropolitan network's AS (REDImadrid-like, 16 institutions).
pub const EDU_ASN: Asn = Asn(64_497);
/// The Central-European mobile operator (>40M customers).
pub const MOBILE_ASN: Asn = Asn(64_498);
/// Spotify's real ASN; the EDU analysis (§7) tracks it by AS number.
pub const SPOTIFY_ASN: Asn = Asn(8_403);
/// The Zoom-like conferencing provider whose on-premise connectors drive
/// the UDP/8801 surge of §4.
pub const ZOOM_ASN: Asn = Asn(64_620);

/// Number of member institutions in the EDU network (§2: 16 universities
/// and research centers).
pub const EDU_INSTITUTIONS: usize = 16;

/// How many eyeball ISPs the synthetic Internet carries per region
/// (including ISP-CE itself in Central Europe).
pub(crate) const EYEBALLS_PER_REGION: usize = 12;

/// The complete synthetic AS registry.
#[derive(Debug, Clone)]
pub struct Registry {
    ases: Vec<AsInfo>,
    by_asn: HashMap<Asn, usize>,
    prefixes: HashMap<Asn, Vec<Ipv4Prefix>>,
    lpm: LpmTable<Asn>,
}

impl Registry {
    /// Build the standard synthetic Internet used throughout the workspace.
    ///
    /// Construction is fully deterministic (no RNG): category counts follow
    /// Table 1, hypergiants follow Table 2, prefixes are allocated
    /// sequentially. Deterministic construction means every experiment can
    /// rebuild an identical registry without shipping state.
    pub fn synthesize() -> Registry {
        let mut b = Builder::new();

        // Table 2 hypergiants — real ASNs. Regions: the split only matters
        // for lockdown timing of *demand*, which is keyed on vantage points,
        // not content ASes; we place them US-side as most are US companies.
        for hg in HYPERGIANTS {
            b.add(hg.asn, hg.name, AsCategory::Hypergiant, Region::UsEast, 4);
        }

        // The vantage-point networks themselves.
        b.add(
            ISP_CE_ASN,
            "ISP-CE Broadband",
            AsCategory::EyeballIsp,
            Region::CentralEurope,
            16,
        );
        b.add(
            EDU_ASN,
            "EDU Metropolitan Research Network",
            AsCategory::Educational,
            Region::SouthernEurope,
            4,
        );
        b.add(
            MOBILE_ASN,
            "Mobile-CE Wireless",
            AsCategory::MobileOperator,
            Region::CentralEurope,
            8,
        );

        // Eyeball ISPs per region (ISP-CE already accounts for one CE slot).
        for region in Region::ALL {
            let n = if region == Region::CentralEurope {
                EYEBALLS_PER_REGION - 1
            } else {
                EYEBALLS_PER_REGION
            };
            for i in 0..n {
                b.add_auto(
                    &format!("Eyeball-{region:?}-{i}"),
                    AsCategory::EyeballIsp,
                    region,
                    6,
                );
            }
        }

        // Application-class provider ASes (counts follow Table 1: the VoD
        // filter lists 5 ASNs — Netflix and Amazon from Table 2 plus these
        // three non-hypergiant streamers).
        for name in ["StreamFlix", "PrimeVid", "CineStream"] {
            b.add_auto(name, AsCategory::VodProvider, Region::UsEast, 3);
        }
        // Online TV broadcasters (the TCP/8200 streamer of §4 and a peer).
        for name in ["RuTV-Stream", "TVNow"] {
            b.add_auto(name, AsCategory::TvBroadcaster, Region::CentralEurope, 2);
        }
        // Gaming: 5 providers.
        for name in [
            "PlayNet",
            "GameCloud",
            "FragServ",
            "LootBox Interactive",
            "MMO-Hosting",
        ] {
            b.add_auto(name, AsCategory::GamingProvider, Region::UsEast, 3);
        }
        // Social media: 4 (Facebook/Twitter are hypergiants; these are the
        // remaining regional networks the Table 1 filter enumerates).
        for name in ["ChatterEU", "PicShare", "MicroBlog", "ForumNet"] {
            b.add_auto(name, AsCategory::SocialMedia, Region::CentralEurope, 2);
        }
        // Educational: 8 NRENs; together with the EDU vantage point the
        // educational filter lists 9 ASNs (Table 1).
        for i in 0..8 {
            let region = match i % 3 {
                0 => Region::CentralEurope,
                1 => Region::SouthernEurope,
                _ => Region::UsEast,
            };
            b.add_auto(&format!("NREN-{i}"), AsCategory::Educational, region, 2);
        }
        // Collaborative working: 2 providers.
        for name in ["DocsTogether", "TeamBoard"] {
            b.add_auto(name, AsCategory::CollaborationProvider, Region::UsEast, 2);
        }
        // CDNs: 4 synthetic — the Table 1 CDN filter lists 8 ASNs, these
        // plus the four CDN-heavy hypergiants (Akamai, Cloudflare,
        // Limelight, Verizon DMS).
        for i in 0..4 {
            b.add_auto(&format!("CDN-{i}"), AsCategory::Cdn, Region::UsEast, 3);
        }
        // Conferencing: Zoom-like provider (Table 1 Webconf lists 1 ASN;
        // Microsoft Teams/Skype traffic is attributed to AS8075 above).
        b.add(
            ZOOM_ASN,
            "ZoomRTC",
            AsCategory::ConferencingProvider,
            Region::UsEast,
            3,
        );
        // Messaging: 3 providers (Table 1 messaging uses ports + these).
        for name in ["MsgExpress", "PingMe", "SecureChat"] {
            b.add_auto(
                name,
                AsCategory::MessagingProvider,
                Region::CentralEurope,
                2,
            );
        }
        // Music streaming: Spotify, by its real ASN (§7, Appendix B).
        b.add(
            SPOTIFY_ASN,
            "Spotify",
            AsCategory::MusicStreaming,
            Region::CentralEurope,
            2,
        );

        // Cloud providers used by enterprises for remote work.
        for i in 0..8 {
            b.add_auto(
                &format!("Cloud-{i}"),
                AsCategory::CloudProvider,
                Region::UsEast,
                4,
            );
        }
        // Enterprises: the §3.4 remote-work scatter needs a population of
        // company ASes with their own address space.
        for i in 0..48 {
            let region = match i % 3 {
                0 => Region::CentralEurope,
                1 => Region::SouthernEurope,
                _ => Region::UsEast,
            };
            b.add_auto(
                &format!("Enterprise-{i}"),
                AsCategory::Enterprise,
                region,
                1,
            );
        }
        // Hosting companies (the unknown TCP/25461 port of §4 resolves to
        // "prefixes owned by hosting companies").
        for i in 0..6 {
            b.add_auto(
                &format!("Hosting-{i}"),
                AsCategory::Hosting,
                Region::CentralEurope,
                2,
            );
        }
        // Transit carriers.
        for i in 0..5 {
            b.add_auto(
                &format!("Transit-{i}"),
                AsCategory::Transit,
                Region::UsEast,
                2,
            );
        }

        b.finish()
    }

    /// All ASes.
    pub fn ases(&self) -> &[AsInfo] {
        &self.ases
    }

    /// Look up an AS by number.
    pub fn get(&self, asn: Asn) -> Option<&AsInfo> {
        self.by_asn.get(&asn).map(|&i| &self.ases[i])
    }

    /// All ASes in a category.
    pub fn in_category(&self, category: AsCategory) -> impl Iterator<Item = &AsInfo> {
        self.ases.iter().filter(move |a| a.category == category)
    }

    /// All ASes in a region.
    pub fn in_region(&self, region: Region) -> impl Iterator<Item = &AsInfo> {
        self.ases.iter().filter(move |a| a.region == region)
    }

    /// Prefixes allocated to an AS.
    pub fn prefixes_of(&self, asn: Asn) -> &[Ipv4Prefix] {
        self.prefixes.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Attribute an address to its AS via longest-prefix match.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.lpm.lookup(addr).copied()
    }

    /// Total number of allocated prefixes.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.values().map(Vec::len).sum()
    }

    /// A deterministic "random" host address inside one of an AS's
    /// prefixes, selected by an arbitrary index (generators pass RNG draws).
    pub fn host_addr(&self, asn: Asn, index: u64) -> Option<Ipv4Addr> {
        let prefixes = self.prefixes_of(asn);
        (!prefixes.is_empty()).then(|| Registry::host_in(prefixes, index))
    }

    /// [`Registry::host_addr`] over an AS's already-resolved, non-empty
    /// prefix list — generators resolve their pools once, not per flow.
    pub fn host_in(prefixes: &[Ipv4Prefix], index: u64) -> Ipv4Addr {
        let p = prefixes[(index % prefixes.len() as u64) as usize];
        // Rotate by a large odd constant so consecutive indices spread out.
        p.nth_addr(index.wrapping_mul(0x9E37_79B9))
    }
}

/// Incremental registry builder with a sequential prefix allocator.
struct Builder {
    ases: Vec<AsInfo>,
    prefixes: HashMap<Asn, Vec<Ipv4Prefix>>,
    /// Next /16 block index to hand out. Starts at 11.0.0.0 to stay clear
    /// of 10/8 and other low reserved space.
    next_block: u32,
    next_auto_asn: u32,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            ases: Vec::new(),
            prefixes: HashMap::new(),
            next_block: 11 << 8, // block index in units of /16: 11.0.0.0
            next_auto_asn: 65_000,
        }
    }

    /// Add an AS with `blocks` /16 prefixes.
    fn add(&mut self, asn: Asn, name: &str, category: AsCategory, region: Region, blocks: u32) {
        assert!(
            !self.prefixes.contains_key(&asn),
            "duplicate ASN {asn} in registry"
        );
        let mut allocated = Vec::with_capacity(blocks as usize);
        for _ in 0..blocks {
            let base = self.next_block;
            self.next_block += 1;
            // Skip into 100.64/10-free space if we ever run that far (we
            // allocate ~400 blocks; starting at 11.0.0.0 there is room for
            // thousands before any special-use range).
            let addr = Ipv4Addr::new((base >> 8) as u8, (base & 0xFF) as u8, 0, 0);
            allocated.push(Ipv4Prefix::new(addr, 16));
        }
        self.prefixes.insert(asn, allocated);
        self.ases.push(AsInfo {
            asn,
            name: name.to_string(),
            category,
            region,
        });
    }

    /// Add with an auto-assigned ASN from the synthetic range.
    fn add_auto(&mut self, name: &str, category: AsCategory, region: Region, blocks: u32) {
        let asn = Asn(self.next_auto_asn);
        self.next_auto_asn += 1;
        self.add(asn, name, category, region, blocks);
    }

    fn finish(self) -> Registry {
        let mut lpm = LpmTable::new();
        for (asn, prefixes) in &self.prefixes {
            for p in prefixes {
                lpm.insert(*p, *asn);
            }
        }
        let by_asn = self
            .ases
            .iter()
            .enumerate()
            .map(|(i, a)| (a.asn, i))
            .collect();
        Registry {
            ases: self.ases,
            by_asn,
            prefixes: self.prefixes,
            lpm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_counts_follow_table1() {
        let r = Registry::synthesize();
        let count = |c| r.in_category(c).count();
        assert_eq!(count(AsCategory::Hypergiant), 15);
        assert_eq!(count(AsCategory::VodProvider), 3);
        assert_eq!(count(AsCategory::TvBroadcaster), 2);
        assert_eq!(count(AsCategory::GamingProvider), 5);
        assert_eq!(count(AsCategory::SocialMedia), 4);
        assert_eq!(count(AsCategory::Educational), 9); // 8 NRENs + EDU vantage
        assert_eq!(count(AsCategory::CollaborationProvider), 2);
        assert_eq!(count(AsCategory::Cdn), 4);
        assert_eq!(count(AsCategory::ConferencingProvider), 1);
        assert_eq!(count(AsCategory::MessagingProvider), 3);
        assert_eq!(count(AsCategory::EyeballIsp), 3 * EYEBALLS_PER_REGION);
    }

    #[test]
    fn vantage_asns_present() {
        let r = Registry::synthesize();
        assert_eq!(r.get(ISP_CE_ASN).unwrap().category, AsCategory::EyeballIsp);
        assert_eq!(r.get(EDU_ASN).unwrap().category, AsCategory::Educational);
        assert_eq!(
            r.get(MOBILE_ASN).unwrap().category,
            AsCategory::MobileOperator
        );
        assert_eq!(r.get(SPOTIFY_ASN).unwrap().name, "Spotify");
        assert!(r.get(Asn(15_169)).is_some()); // Google from Table 2
    }

    #[test]
    fn prefixes_disjoint() {
        let r = Registry::synthesize();
        let mut all: Vec<Ipv4Prefix> = r
            .ases()
            .iter()
            .flat_map(|a| r.prefixes_of(a.asn).to_vec())
            .collect();
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "duplicate prefix allocations");
        // All same length here, so disjointness == uniqueness.
        assert_eq!(total, r.prefix_count());
    }

    #[test]
    fn lookup_attributes_host_addresses() {
        let r = Registry::synthesize();
        for a in r.ases() {
            for i in [0u64, 1, 17, 9_999] {
                let addr = r.host_addr(a.asn, i).unwrap();
                assert_eq!(addr, Registry::host_in(r.prefixes_of(a.asn), i));
                assert_eq!(
                    r.lookup(addr),
                    Some(a.asn),
                    "address {addr} of {} misattributed",
                    a.name
                );
            }
        }
        assert_eq!(r.host_addr(Asn(1), 0), None, "an AS the registry lacks");
    }

    #[test]
    fn lookup_unallocated_is_none() {
        let r = Registry::synthesize();
        assert_eq!(r.lookup(Ipv4Addr::new(203, 0, 113, 1)), None);
        assert_eq!(r.lookup(Ipv4Addr::new(8, 8, 8, 8)), None);
    }

    #[test]
    fn isp_ce_has_large_allocation() {
        let r = Registry::synthesize();
        // 15M fixed lines: ISP-CE must dwarf ordinary eyeballs.
        assert_eq!(r.prefixes_of(ISP_CE_ASN).len(), 16);
    }

    #[test]
    fn deterministic_synthesis() {
        let a = Registry::synthesize();
        let b = Registry::synthesize();
        assert_eq!(a.ases(), b.ases());
        assert_eq!(a.prefix_count(), b.prefix_count());
    }

    #[test]
    fn allocation_stays_in_safe_space() {
        let r = Registry::synthesize();
        for a in r.ases() {
            for p in r.prefixes_of(a.asn) {
                let first_octet = p.network().octets()[0];
                assert!(
                    (11..100).contains(&first_octet),
                    "prefix {p} strays outside the allocator range"
                );
            }
        }
    }
}
