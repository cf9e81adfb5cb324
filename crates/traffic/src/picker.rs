//! Endpoint selection: which ASes, addresses and ports a flow gets.

use lockdown_base::hash::{fold, unit, SplitMix};
use lockdown_dns::corpus::Corpus;
use lockdown_scenario::apps::{AppClass, PortSig};
use lockdown_topology::asn::{AsCategory, Asn, Region};
use lockdown_topology::registry::{Registry, ISP_CE_ASN, MOBILE_ASN};
use lockdown_topology::vantage::{VantageKind, VantagePoint};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Pre-indexed endpoint chooser shared by all generation cells.
#[derive(Debug)]
pub struct Picker<'a> {
    registry: &'a Registry,
    hypergiants: Vec<Asn>,
    by_category: HashMap<AsCategory, Vec<Asn>>,
    eyeballs_by_region: HashMap<Region, Vec<Asn>>,
    /// Discoverable VPN gateway endpoints (dedicated addresses).
    vpn_gateways: Vec<(Ipv4Addr, Asn)>,
    /// Gateways sharing their address with a `www.` host — traffic to
    /// these is real VPN traffic the §6 procedure deliberately undercounts.
    vpn_gateways_shared: Vec<(Ipv4Addr, Asn)>,
    /// The ISP's business-facing ASes (the rows of the §3.4 transit view,
    /// registry order) and their B2B partners, the cloud platforms.
    pub(crate) business: Vec<Asn>,
    pub(crate) partners: Vec<Asn>,
}

impl<'a> Picker<'a> {
    /// Index a registry and DNS corpus.
    pub fn new(registry: &'a Registry, corpus: &'a Corpus) -> Picker<'a> {
        let mut by_category: HashMap<AsCategory, Vec<Asn>> = HashMap::new();
        let mut eyeballs_by_region: HashMap<Region, Vec<Asn>> = HashMap::new();
        for a in registry.ases() {
            by_category.entry(a.category).or_default().push(a.asn);
            if a.category == AsCategory::EyeballIsp {
                eyeballs_by_region.entry(a.region).or_default().push(a.asn);
            }
        }
        let hypergiants = by_category
            .get(&AsCategory::Hypergiant)
            .cloned()
            .unwrap_or_default();
        let mut vpn_gateways = Vec::new();
        let mut vpn_gateways_shared = Vec::new();
        for (ip, asn) in &corpus.truth.gateways {
            if corpus.truth.shared_with_www.contains(ip) {
                vpn_gateways_shared.push((*ip, *asn));
            } else {
                vpn_gateways.push((*ip, *asn));
            }
        }
        let business = registry
            .ases()
            .iter()
            .filter(|a| {
                matches!(
                    a.category,
                    AsCategory::Enterprise
                        | AsCategory::CloudProvider
                        | AsCategory::ConferencingProvider
                        | AsCategory::CollaborationProvider
                        | AsCategory::Hosting
                )
            })
            .map(|a| a.asn)
            .collect();
        let partners = by_category
            .get(&AsCategory::CloudProvider)
            .cloned()
            .unwrap_or_default();
        Picker {
            registry,
            business,
            partners,
            hypergiants,
            by_category,
            eyeballs_by_region,
            vpn_gateways,
            vpn_gateways_shared,
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        self.registry
    }

    /// Pick the content/server side of a flow for an application class:
    /// an AS (hypergiant with the class's hypergiant share) and a stable
    /// server address within it.
    pub fn server(&self, app: AppClass, rng: &mut SplitMix) -> (Asn, Ipv4Addr) {
        // TLS-tunnelled VPN flows terminate at real gateway addresses so
        // the §6 classifier has something to find.
        if app == AppClass::VpnTls {
            let shared = !self.vpn_gateways_shared.is_empty() && rng.chance(0.15);
            let pool = if shared {
                &self.vpn_gateways_shared
            } else {
                &self.vpn_gateways
            };
            let (ip, asn) = rng.pick(pool);
            return (asn, ip);
        }

        let asn = if rng.chance(app.hypergiant_share()) && !self.hypergiants.is_empty() {
            // Draw from the class-appropriate hypergiant pool (Netflix for
            // VoD, Microsoft for conferencing, …) so AS-based classification
            // on the analysis side can recover the class.
            let pool = app.hypergiant_pool();
            Asn(rng.pick(pool))
        } else {
            let cats = app.server_categories();
            // Try categories in random order until one is populated.
            let start = rng.below(cats.len() as u64) as usize;
            let mut chosen = None;
            for k in 0..cats.len() {
                let cat = cats[(start + k) % cats.len()];
                if cat == AsCategory::Hypergiant {
                    // Stay within the class-appropriate hypergiant pool so
                    // AS-based classification stays coherent.
                    let pool = app.hypergiant_pool();
                    chosen = Some(Asn(rng.pick(pool)));
                    break;
                }
                if let Some(list) = self.by_category.get(&cat) {
                    if !list.is_empty() {
                        chosen = Some(rng.pick(list));
                        break;
                    }
                }
            }
            chosen.unwrap_or_else(|| {
                let pool = app.hypergiant_pool();
                Asn(rng.pick(pool))
            })
        };
        // Server farms live in a small, stable index range (< 90), disjoint
        // from the VPN gateway index range used by the DNS corpus.
        let ip = self
            .registry
            .host_addr(asn, rng.below(64))
            .expect("registry AS has prefixes");
        (asn, ip)
    }

    /// Pick the subscriber/client side for a vantage point. `user_pool` is
    /// the number of concurrently active users; unique-address statistics
    /// (Fig. 8) derive from it.
    pub fn client(&self, vp: VantagePoint, user_pool: u64, rng: &mut SplitMix) -> (Asn, Ipv4Addr) {
        let asn = match vp.kind() {
            VantageKind::Isp => ISP_CE_ASN,
            VantageKind::Mobile | VantageKind::Roaming => MOBILE_ASN,
            _ => {
                // IXPs see many eyeball networks, mostly regional.
                let region = if rng.chance(0.8) {
                    vp.region()
                } else {
                    rng.pick(&[
                        Region::CentralEurope,
                        Region::SouthernEurope,
                        Region::UsEast,
                    ])
                };
                let pool = self
                    .eyeballs_by_region
                    .get(&region)
                    .expect("every region has eyeballs");
                rng.pick(pool)
            }
        };
        let idx = rng.below(user_pool.max(1));
        // Client addresses live above the server/gateway index ranges.
        let ip = self
            .registry
            .host_addr(asn, 1_000 + idx)
            .expect("eyeball AS has prefixes");
        (asn, ip)
    }

    /// Pick a port signature for a class: the first (canonical) signature
    /// dominates, the rest share the remainder.
    pub fn port_sig(&self, app: AppClass, rng: &mut SplitMix) -> PortSig {
        let sigs = app.port_signatures();
        if sigs.len() == 1 || rng.chance(0.6) {
            sigs[0]
        } else {
            rng.pick(&sigs[1..])
        }
    }

    /// All discoverable gateway addresses (used by tests).
    pub fn vpn_gateway_count(&self) -> (usize, usize) {
        (self.vpn_gateways.len(), self.vpn_gateways_shared.len())
    }
}

/// Initial constant of the per-AS jitter fold (√2's fractional digits).
const JITTER_INIT: u64 = 0x6A09_E667_F3BC_C908;

/// Deterministic per-AS idiosyncrasy factor in `[1-spread, 1+spread)`,
/// used to scatter per-AS growth (Fig. 6's cloud of points). `trait_id`
/// numbers the independent factors one AS carries.
pub fn as_jitter(asn: Asn, seed: u64, trait_id: u64, spread: f64) -> f64 {
    let u = unit(fold(JITTER_INIT, [seed, trait_id, u64::from(asn.0)]));
    1.0 - spread + 2.0 * spread * u
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_dns::corpus::synthesize;
    use lockdown_topology::hypergiants::is_hypergiant;

    fn setup() -> (Registry, Corpus) {
        let r = Registry::synthesize();
        let c = synthesize(&r, 7);
        (r, c)
    }

    #[test]
    fn vpn_tls_targets_real_gateways() {
        let (r, c) = setup();
        let p = Picker::new(&r, &c);
        let mut rng = SplitMix::new(1);
        for _ in 0..200 {
            let (asn, ip) = p.server(AppClass::VpnTls, &mut rng);
            assert!(c.truth.gateways.contains_key(&ip), "{ip} not a gateway");
            assert_eq!(c.truth.gateways[&ip], asn);
        }
        // Both pools are exercised.
        let (ded, shared) = p.vpn_gateway_count();
        assert!(ded > 0 && shared > 0);
    }

    #[test]
    fn hypergiant_share_respected() {
        let (r, c) = setup();
        let p = Picker::new(&r, &c);
        let mut rng = SplitMix::new(2);
        let n = 2_000;
        let hg = (0..n)
            .filter(|_| is_hypergiant(p.server(AppClass::Quic, &mut rng).0))
            .count();
        // QUIC is 95% hypergiant.
        assert!(hg as f64 > 0.9 * n as f64, "only {hg}/{n} hypergiant");
        let hg_gaming = (0..n)
            .filter(|_| is_hypergiant(p.server(AppClass::Gaming, &mut rng).0))
            .count();
        assert!(
            (hg_gaming as f64) < 0.25 * n as f64,
            "{hg_gaming}/{n} gaming HG"
        );
    }

    #[test]
    fn client_pool_bounds_unique_addresses() {
        let (r, c) = setup();
        let p = Picker::new(&r, &c);
        let mut rng = SplitMix::new(3);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let (asn, ip) = p.client(VantagePoint::IspCe, 50, &mut rng);
            assert_eq!(asn, ISP_CE_ASN);
            distinct.insert(ip);
        }
        assert!(
            distinct.len() <= 50,
            "{} uniques from a pool of 50",
            distinct.len()
        );
        assert!(distinct.len() > 40);
    }

    #[test]
    fn server_and_client_attributable() {
        let (r, c) = setup();
        let p = Picker::new(&r, &c);
        let mut rng = SplitMix::new(4);
        for app in AppClass::ALL {
            let (asn, ip) = p.server(app, &mut rng);
            assert_eq!(r.lookup(ip), Some(asn), "{app}: server IP not in AS");
        }
        let (asn, ip) = p.client(VantagePoint::IxpSe, 1_000, &mut rng);
        assert_eq!(r.lookup(ip), Some(asn));
    }

    #[test]
    fn canonical_port_dominates() {
        let (r, c) = setup();
        let p = Picker::new(&r, &c);
        let mut rng = SplitMix::new(5);
        let canonical = AppClass::VpnUser.port_signatures()[0];
        let hits = (0..1_000)
            .filter(|_| p.port_sig(AppClass::VpnUser, &mut rng) == canonical)
            .count();
        assert!(hits > 550, "canonical port picked {hits}/1000");
    }

    #[test]
    fn jitter_deterministic_and_bounded() {
        let j1 = as_jitter(Asn(65_017), 9, 1, 0.4);
        let j2 = as_jitter(Asn(65_017), 9, 1, 0.4);
        assert_eq!(j1, j2);
        for asn in 64_000..64_200u32 {
            let j = as_jitter(Asn(asn), 1, 1, 0.4);
            assert!((0.6..=1.4).contains(&j), "jitter {j}");
        }
        assert_ne!(as_jitter(Asn(1), 1, 1, 0.4), as_jitter(Asn(2), 1, 1, 0.4));
        assert_ne!(as_jitter(Asn(1), 1, 1, 0.4), as_jitter(Asn(1), 1, 2, 0.4));
        assert_ne!(as_jitter(Asn(1), 1, 1, 0.4), as_jitter(Asn(1), 2, 1, 0.4));
    }
}
