//! §6's domain-based VPN endpoint identification, implemented verbatim.
//!
//! The procedure, quoting the paper:
//!
//! 1. "identify potential VPN domains by searching for `*vpn*` in any
//!    domain label left of the public suffix" across CT-log, forward-DNS
//!    and toplist names (but "not … www.");
//! 2. "resolve all matching domains to … candidate IP addresses";
//! 3. "we then also resolve the domains from the same public suffix
//!    prepended with www … If the returned addresses of the `*vpn*` domain
//!    and the www domain match, we eliminate them from our candidates" —
//!    the conservative step that avoids misclassifying Web traffic;
//! 4. classify TCP/443 traffic to the surviving addresses as VPN traffic.
//!
//! The output feeds `lockdown-analysis`'s Fig. 10 reproduction.

use crate::dns::corpus::DnsDb;
use crate::dns::domain::DomainName;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Result of the identification procedure.
#[derive(Debug, Clone, Default)]
pub struct VpnIdentification {
    /// `*vpn*` domains found (step 1).
    pub candidate_domains: Vec<DomainName>,
    /// Candidate IPs before elimination (step 2).
    pub raw_candidate_ips: BTreeSet<Ipv4Addr>,
    /// IPs removed because the `www.` sibling shares them (step 3).
    pub eliminated_ips: BTreeSet<Ipv4Addr>,
    /// Final candidate VPN IPs (step 4's classification set).
    pub vpn_ips: BTreeSet<Ipv4Addr>,
}

/// Run the §6 procedure over a DNS database.
pub fn identify_vpn_ips(db: &DnsDb) -> VpnIdentification {
    let mut out = VpnIdentification::default();

    // Step 1: *vpn* label left of the public suffix, not a www host.
    for (name, entry) in db.iter() {
        if name.has_vpn_label() && !name.is_www() {
            out.candidate_domains.push(name.clone());
            out.raw_candidate_ips.extend(entry.addrs.iter().copied());
        }
    }

    // Steps 2–3: per candidate domain, resolve the www sibling and
    // eliminate shared addresses.
    let mut eliminated = BTreeSet::new();
    for name in &out.candidate_domains {
        let Some(www) = name.www_sibling() else {
            continue;
        };
        let candidate_addrs: BTreeSet<Ipv4Addr> = db.resolve(name).iter().copied().collect();
        let www_addrs: BTreeSet<Ipv4Addr> = db.resolve(&www).iter().copied().collect();
        eliminated.extend(candidate_addrs.intersection(&www_addrs).copied());
    }

    out.vpn_ips = out
        .raw_candidate_ips
        .difference(&eliminated)
        .copied()
        .collect();
    out.eliminated_ips = eliminated;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::corpus::{synthesize, SourceSet};
    use crate::registry::Registry;

    fn setup() -> (crate::dns::corpus::Corpus, VpnIdentification) {
        let corpus = synthesize(&Registry::synthesize(), 42);
        let id = identify_vpn_ips(&corpus.db);
        (corpus, id)
    }

    #[test]
    fn finds_all_discoverable_gateways() {
        let (corpus, id) = setup();
        for ip in corpus.truth.discoverable() {
            assert!(id.vpn_ips.contains(&ip), "missed gateway {ip}");
        }
    }

    #[test]
    fn eliminates_www_shared_gateways() {
        let (corpus, id) = setup();
        assert!(
            !corpus.truth.shared_with_www.is_empty(),
            "corpus must contain shared gateways"
        );
        for ip in &corpus.truth.shared_with_www {
            assert!(
                !id.vpn_ips.contains(ip),
                "www-shared address {ip} must be eliminated (conservative estimate)"
            );
            assert!(id.eliminated_ips.contains(ip));
        }
    }

    #[test]
    fn no_plain_web_servers_classified() {
        let (corpus, id) = setup();
        // Any IP in the final set must be a true gateway: the synthetic
        // corpus gives VPN names dedicated addresses, so precision is 1.0.
        for ip in &id.vpn_ips {
            assert!(
                corpus.truth.gateways.contains_key(ip),
                "false positive: {ip}"
            );
        }
    }

    #[test]
    fn candidates_include_paper_example_shape() {
        let (_, id) = setup();
        assert!(
            id.candidate_domains
                .iter()
                .any(|d| d.to_string().starts_with("companyvpn3.")),
            "corpus should produce companyvpn3.* candidates like the paper's example"
        );
    }

    #[test]
    fn elimination_step_is_load_bearing() {
        let (corpus, id) = setup();
        // Without step 3, the www-shared addresses would have been counted.
        let would_be = id.raw_candidate_ips.len();
        let kept = id.vpn_ips.len();
        assert!(kept < would_be, "elimination removed nothing");
        assert_eq!(would_be - kept, id.eliminated_ips.len());
        assert!(corpus
            .truth
            .shared_with_www
            .iter()
            .all(|ip| id.eliminated_ips.contains(ip)));
    }

    #[test]
    fn handcrafted_example() {
        // The paper's example verbatim: companyvpn3.example.com and
        // www.example.com sharing an address → eliminated.
        let mut db = DnsDb::new();
        let s = SourceSet {
            ct_logs: true,
            fdns: false,
            toplist: false,
        };
        let shared: std::net::Ipv4Addr = "192.0.2.1".parse().unwrap();
        let dedicated: std::net::Ipv4Addr = "192.0.2.2".parse().unwrap();
        db.insert("companyvpn3.example.com".parse().unwrap(), shared, s);
        db.insert("www.example.com".parse().unwrap(), shared, s);
        db.insert("vpn.other.org".parse().unwrap(), dedicated, s);
        db.insert(
            "www.other.org".parse().unwrap(),
            "192.0.2.3".parse().unwrap(),
            s,
        );

        let id = identify_vpn_ips(&db);
        assert!(
            !id.vpn_ips.contains(&shared),
            "shared IP must be eliminated"
        );
        assert!(id.vpn_ips.contains(&dedicated));
        assert_eq!(id.candidate_domains.len(), 2);
    }

    #[test]
    fn www_vpn_domains_are_skipped() {
        // A literal www.vpn-host.example.com is excluded by the "not www"
        // rule even though a non-www label contains vpn.
        let mut db = DnsDb::new();
        let s = SourceSet::default();
        db.insert(
            "www.vpnportal.example.com".parse().unwrap(),
            "192.0.2.9".parse().unwrap(),
            s,
        );
        let id = identify_vpn_ips(&db);
        assert!(id.candidate_domains.is_empty());
        assert!(id.vpn_ips.is_empty());
    }
}
