//! Synthetic DNS corpus: the stand-in for CT logs, Rapid7 forward DNS,
//! and the Cisco Umbrella toplist.
//!
//! §6 of the paper mines 2.7B domains from CT logs, 1.9B from Rapid7 FDNS
//! and 8M from the Umbrella toplist to find `*vpn*` hosts. Those datasets
//! cannot ship here, so this module synthesizes a corpus with the same
//! *decision structure*:
//!
//! * enterprises/universities publish `www.`/`mail.` hosts plus — for most
//!   of them — one or more VPN gateways with `*vpn*` labels;
//! * a fraction of VPN gateways share their IP with the `www.` host
//!   (CDN-fronted or colocated), the case §6's elimination step exists
//!   for: those are deliberately dropped to keep the estimate
//!   conservative;
//! * chaff: plenty of non-VPN hostnames, including near-miss decoys
//!   (`vps1.…`) that must not match;
//! * commercial VPN providers with `vpn` inside the registrable label.
//!
//! The synthesizer also returns the *ground truth* (which IPs really are
//! VPN endpoints), which only tests and the traffic generator see — the
//! analysis pipeline works from the corpus alone, exactly like the paper.

use crate::domain::DomainName;
use lockdown_base::hash::{fold, SplitMix};
use lockdown_topology::asn::{AsCategory, Asn, Region};
use lockdown_topology::registry::Registry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Which §6 source datasets a domain was observed in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SourceSet {
    /// TLS certificates from Certificate Transparency logs (2015–2020).
    pub ct_logs: bool,
    /// Rapid7 forward-DNS dataset.
    pub fdns: bool,
    /// Cisco Umbrella toplist.
    pub toplist: bool,
}

/// One DNS name with its resolved addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DnsEntry {
    /// Resolved IPv4 addresses.
    pub addrs: Vec<Ipv4Addr>,
    /// Observation sources.
    pub sources: SourceSet,
}

/// The synthetic forward-DNS database.
#[derive(Debug, Clone, Default)]
pub struct DnsDb {
    records: BTreeMap<DomainName, DnsEntry>,
}

impl DnsDb {
    /// An empty database.
    pub(crate) fn new() -> DnsDb {
        DnsDb::default()
    }

    /// Insert (or extend) a record.
    pub(crate) fn insert(&mut self, name: DomainName, addr: Ipv4Addr, sources: SourceSet) {
        let e = self.records.entry(name).or_insert_with(|| DnsEntry {
            addrs: Vec::new(),
            sources: SourceSet::default(),
        });
        if !e.addrs.contains(&addr) {
            e.addrs.push(addr);
        }
        e.sources.ct_logs |= sources.ct_logs;
        e.sources.fdns |= sources.fdns;
        e.sources.toplist |= sources.toplist;
    }

    /// Resolve a name.
    pub(crate) fn resolve(&self, name: &DomainName) -> &[Ipv4Addr] {
        self.records
            .get(name)
            .map(|e| e.addrs.as_slice())
            .unwrap_or(&[])
    }

    /// All `(name, entry)` pairs in lexicographic order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&DomainName, &DnsEntry)> {
        self.records.iter()
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database holds no names.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Ground truth about VPN endpoints, for the generator and for tests.
#[derive(Debug, Clone, Default)]
pub struct VpnGroundTruth {
    /// All real VPN gateway IPs, with the AS that operates each.
    pub gateways: BTreeMap<Ipv4Addr, Asn>,
    /// The subset of gateway IPs that are shared with a `www.` host and
    /// will therefore (correctly, per the paper's conservative procedure)
    /// be eliminated from the candidate set.
    pub shared_with_www: BTreeSet<Ipv4Addr>,
}

impl VpnGroundTruth {
    /// Gateways that a perfect §6 run should discover (not www-shared).
    pub fn discoverable(&self) -> BTreeSet<Ipv4Addr> {
        self.gateways
            .keys()
            .filter(|ip| !self.shared_with_www.contains(ip))
            .copied()
            .collect()
    }
}

/// The synthesized corpus: database plus ground truth.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The forward-DNS view the analysis is allowed to see.
    pub db: DnsDb,
    /// What is actually true (generator/tests only).
    pub truth: VpnGroundTruth,
}

/// Initial constant of the corpus-stream fold (√5's fractional digits).
const CORPUS_INIT: u64 = 0x3C6E_F372_FE94_F82B;

/// TLD for an organization, by region.
fn tld_for(region: Region, rng: &mut SplitMix) -> &'static str {
    rng.pick(match region {
        Region::CentralEurope => &["de", "eu", "com"],
        Region::SouthernEurope => &["es", "com.es", "com"],
        Region::UsEast => &["com", "net", "org"],
    })
}

/// Slug from an AS name ("Enterprise-17" → "enterprise-17").
fn slug(name: &str) -> String {
    name.to_ascii_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Synthesize the corpus for a registry.
///
/// Deterministic per seed. Roughly: every enterprise/cloud/educational AS
/// gets a web presence; ~75% get VPN gateways; ~20% of gateways share the
/// `www.` address.
pub fn synthesize(registry: &Registry, seed: u64) -> Corpus {
    let mut rng = SplitMix::new(fold(CORPUS_INIT, [seed]));
    let mut db = DnsDb::new();
    let mut truth = VpnGroundTruth::default();

    const VPN_LABELS: [&str; 6] = [
        "vpn",
        "companyvpn3",
        "vpn-gw",
        "remote-vpn",
        "sslvpn2",
        "myvpn",
    ];
    const CHAFF_LABELS: [&str; 6] = ["portal", "git", "shop", "vps1", "mail2", "intranet"];

    let all = SourceSet {
        ct_logs: true,
        fdns: true,
        toplist: false,
    };
    let ct_only = SourceSet {
        ct_logs: true,
        fdns: false,
        toplist: false,
    };
    let fdns_only = SourceSet {
        ct_logs: false,
        fdns: true,
        toplist: false,
    };

    let orgs: Vec<_> = registry
        .ases()
        .iter()
        .filter(|a| {
            matches!(
                a.category,
                AsCategory::Enterprise | AsCategory::CloudProvider | AsCategory::Educational
            )
        })
        .cloned()
        .collect();

    for org in &orgs {
        let tld = tld_for(org.region, &mut rng);
        let base = slug(&org.name);
        let reg_dom = format!("{base}.{tld}");
        let www: DomainName = format!("www.{reg_dom}").parse().expect("valid domain");
        let www_ip = registry.host_addr(org.asn, 0).expect("org has prefixes");
        db.insert(www.clone(), www_ip, all);
        // Apex often shares the www address.
        db.insert(reg_dom.parse().expect("valid"), www_ip, fdns_only);
        let mail_ip = registry.host_addr(org.asn, 1).expect("org has prefixes");
        db.insert(
            format!("mail.{reg_dom}").parse().expect("valid"),
            mail_ip,
            all,
        );

        // Chaff hosts, including the vps decoy.
        for label in CHAFF_LABELS {
            if !rng.chance(0.5) {
                continue;
            }
            let ip = registry
                .host_addr(org.asn, rng.range(2..50))
                .expect("org has prefixes");
            db.insert(
                format!("{label}.{reg_dom}").parse().expect("valid"),
                ip,
                ct_only,
            );
        }

        // VPN gateways for most organizations.
        if rng.chance(0.75) {
            let n_gw = rng.range(1..3);
            for g in 0..n_gw {
                let label = rng.pick(&VPN_LABELS);
                let name: DomainName = if g == 0 {
                    format!("{label}.{reg_dom}").parse().expect("valid")
                } else {
                    format!("{label}{g}.{reg_dom}").parse().expect("valid")
                };
                let shared = rng.chance(0.2);
                let ip = if shared {
                    www_ip
                } else {
                    registry
                        .host_addr(org.asn, 100 + g)
                        .expect("org has prefixes")
                };
                db.insert(name, ip, ct_only);
                truth.gateways.insert(ip, org.asn);
                if shared {
                    truth.shared_with_www.insert(ip);
                }
            }
        }
    }

    // Commercial VPN providers hosted at hosting ASes: vpn inside the
    // registrable label, many point-of-presence hostnames.
    let hosters: Vec<_> = registry
        .ases()
        .iter()
        .filter(|a| a.category == AsCategory::Hosting)
        .cloned()
        .collect();
    for (i, h) in hosters.iter().take(3).enumerate() {
        let reg_dom = format!("fast-vpn-{i}.com");
        for pop in 0..10u64 {
            let name: DomainName = format!("us{pop}.{reg_dom}").parse().expect("valid");
            let ip = registry
                .host_addr(h.asn, 200 + pop)
                .expect("hoster has prefixes");
            db.insert(name, ip, fdns_only);
            truth.gateways.insert(ip, h.asn);
        }
        // The provider's website shares nothing with the PoPs.
        let www_ip = registry.host_addr(h.asn, 7).expect("hoster has prefixes");
        db.insert(
            format!("www.{reg_dom}").parse().expect("valid"),
            www_ip,
            all,
        );
    }

    // Popular unrelated domains (toplist flavour).
    for (i, name) in [
        "search-hub",
        "video-tube",
        "news-wire",
        "social-hive",
        "wiki-market",
    ]
    .iter()
    .enumerate()
    {
        let hg = &registry.ases()[i % 15]; // hypergiants lead the registry
        let ip = registry
            .host_addr(hg.asn, 3 + i as u64)
            .expect("hg has prefixes");
        db.insert(
            format!("www.{name}.com").parse().expect("valid"),
            ip,
            SourceSet {
                ct_logs: true,
                fdns: true,
                toplist: true,
            },
        );
    }

    Corpus { db, truth }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        synthesize(&Registry::synthesize(), 7)
    }

    #[test]
    fn corpus_is_populated() {
        let c = corpus();
        assert!(c.db.len() > 200, "corpus too small: {}", c.db.len());
        assert!(c.truth.gateways.len() > 40, "too few gateways");
        assert!(
            !c.truth.shared_with_www.is_empty(),
            "need www-shared gateways to exercise the elimination step"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let r = Registry::synthesize();
        let a = synthesize(&r, 9);
        let b = synthesize(&r, 9);
        assert_eq!(a.db.len(), b.db.len());
        assert_eq!(a.truth.gateways, b.truth.gateways);
        let c = synthesize(&r, 10);
        assert_ne!(a.truth.gateways, c.truth.gateways);
    }

    #[test]
    fn gateways_resolve_in_db() {
        let c = corpus();
        // Every non-shared gateway IP appears under some *vpn* name.
        let vpn_ips: BTreeSet<Ipv4Addr> =
            c.db.iter()
                .filter(|(d, _)| d.has_vpn_label())
                .flat_map(|(_, e)| e.addrs.iter().copied())
                .collect();
        for ip in c.truth.discoverable() {
            assert!(vpn_ips.contains(&ip), "gateway {ip} unlisted");
        }
    }

    #[test]
    fn gateways_belong_to_their_as() {
        let c = corpus();
        let r = Registry::synthesize();
        for (ip, asn) in &c.truth.gateways {
            assert_eq!(r.lookup(*ip), Some(*asn), "gateway {ip} misattributed");
        }
    }

    #[test]
    fn www_hosts_never_carry_vpn_labels() {
        let c = corpus();
        for (d, _) in c.db.iter() {
            if d.is_www() {
                assert!(
                    !d.labels_left_of_suffix()[1..]
                        .iter()
                        .any(|l| l.contains("vpn"))
                        || d.to_string().contains("fast-vpn"),
                    "unexpected vpn label under www: {d}"
                );
            }
        }
    }

    #[test]
    fn resolve_unknown_is_empty() {
        let c = corpus();
        let missing: DomainName = "definitely.not.there.example".parse().unwrap();
        assert!(c.db.resolve(&missing).is_empty());
    }
}
