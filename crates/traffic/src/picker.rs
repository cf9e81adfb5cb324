//! Endpoint selection: which ASes, addresses and ports a flow gets.

use lockdown_base::hash::{fold, unit, SplitMix};
use lockdown_dns::corpus::Corpus;
use lockdown_scenario::apps::{AppClass, PortSig};
use lockdown_topology::asn::{AsCategory, AsInfo, Asn, Region};
use lockdown_topology::prefix::Ipv4Prefix;
use lockdown_topology::registry::{Registry, ISP_CE_ASN, MOBILE_ASN};
use lockdown_topology::vantage::{VantageKind, VantagePoint};
use std::net::Ipv4Addr;

/// An AS with its prefixes already looked up: a host address is one
/// [`Registry::host_in`] away, with no registry probe per flow.
pub(crate) type Net<'a> = (Asn, &'a [Ipv4Prefix]);

/// Resolve one AS; every AS a generator draws from has address space.
pub(crate) fn net(registry: &Registry, asn: Asn) -> Net<'_> {
    let prefixes = registry.prefixes_of(asn);
    assert!(!prefixes.is_empty(), "registry AS {asn} has no prefixes");
    (asn, prefixes)
}

/// Resolve a list of ASes, keeping its order (order decides `rng.pick`).
pub(crate) fn nets<'a>(
    registry: &'a Registry,
    ases: impl Iterator<Item = &'a AsInfo>,
) -> Vec<Net<'a>> {
    ases.map(|a| net(registry, a.asn)).collect()
}

/// A region's eyeball ISPs, registry order.
pub(crate) fn eyeballs(registry: &Registry, region: Region) -> Vec<Net<'_>> {
    let in_region = registry.in_region(region);
    nets(
        registry,
        in_region.filter(|a| a.category == AsCategory::EyeballIsp),
    )
}

/// Where one class's servers live.
#[derive(Debug)]
struct ServerPools<'a> {
    hypergiant_share: f64,
    /// `AppClass::hypergiant_pool`, resolved.
    hypergiants: Vec<Net<'a>>,
    /// One pool per entry of `AppClass::server_categories`, in its order;
    /// the hypergiant category stands for the class's own hypergiant pool,
    /// so AS-based classification stays coherent.
    categories: Vec<Vec<Net<'a>>>,
}

/// Pre-resolved endpoint chooser shared by all generation cells.
#[derive(Debug)]
pub(crate) struct Picker<'a> {
    /// Indexed by `AppClass as usize`.
    servers: Vec<ServerPools<'a>>,
    /// Eyeball ISPs, indexed by `Region as usize`, registry order.
    eyeballs: [Vec<Net<'a>>; 3],
    pub(crate) isp: Net<'a>,
    mobile: Net<'a>,
    /// Discoverable VPN gateway endpoints (dedicated addresses).
    vpn_gateways: Vec<(Ipv4Addr, Asn)>,
    /// Gateways sharing their address with a `www.` host — traffic to
    /// these is real VPN traffic the §6 procedure deliberately undercounts.
    vpn_gateways_shared: Vec<(Ipv4Addr, Asn)>,
    /// The ISP's business-facing ASes (the rows of the §3.4 transit view,
    /// registry order) and their B2B partners, the cloud platforms.
    pub(crate) business: Vec<Net<'a>>,
    pub(crate) partners: Vec<Net<'a>>,
}

impl<'a> Picker<'a> {
    /// Resolve every pool a flow can draw from, once.
    pub(crate) fn new(registry: &'a Registry, corpus: &'a Corpus) -> Picker<'a> {
        let servers = AppClass::ALL
            .iter()
            .map(|app| {
                let hypergiants: Vec<Net<'a>> = app
                    .hypergiant_pool()
                    .iter()
                    .map(|&asn| net(registry, Asn(asn)))
                    .collect();
                let categories = app
                    .server_categories()
                    .iter()
                    .map(|&cat| match cat {
                        AsCategory::Hypergiant => hypergiants.clone(),
                        _ => nets(registry, registry.in_category(cat)),
                    })
                    .collect();
                ServerPools {
                    hypergiant_share: app.hypergiant_share(),
                    hypergiants,
                    categories,
                }
            })
            .collect();
        let mut vpn_gateways = Vec::new();
        let mut vpn_gateways_shared = Vec::new();
        for (ip, asn) in &corpus.truth.gateways {
            if corpus.truth.shared_with_www.contains(ip) {
                vpn_gateways_shared.push((*ip, *asn));
            } else {
                vpn_gateways.push((*ip, *asn));
            }
        }
        let business = registry.ases().iter().filter(|a| {
            matches!(
                a.category,
                AsCategory::Enterprise
                    | AsCategory::CloudProvider
                    | AsCategory::ConferencingProvider
                    | AsCategory::CollaborationProvider
                    | AsCategory::Hosting
            )
        });
        Picker {
            servers,
            eyeballs: Region::ALL.map(|region| eyeballs(registry, region)),
            isp: net(registry, ISP_CE_ASN),
            mobile: net(registry, MOBILE_ASN),
            business: nets(registry, business),
            partners: nets(registry, registry.in_category(AsCategory::CloudProvider)),
            vpn_gateways,
            vpn_gateways_shared,
        }
    }

    /// Pick the content/server side of a flow for an application class:
    /// an AS (hypergiant with the class's hypergiant share) and a stable
    /// server address within it.
    pub(crate) fn server(&self, app: AppClass, rng: &mut SplitMix) -> (Asn, Ipv4Addr) {
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

        let pools = &self.servers[app as usize];
        // Draw from the class-appropriate hypergiant pool (Netflix for VoD,
        // Microsoft for conferencing, …) so AS-based classification on the
        // analysis side can recover the class.
        let pool = if rng.chance(pools.hypergiant_share) {
            &pools.hypergiants
        } else {
            // Try categories from a random start until one is populated.
            let cats = &pools.categories;
            let start = rng.below(cats.len() as u64) as usize;
            (0..cats.len())
                .map(|k| &cats[(start + k) % cats.len()])
                .find(|pool| !pool.is_empty())
                .unwrap_or(&pools.hypergiants)
        };
        let (asn, prefixes) = rng.pick(pool);
        // Server farms live in a small, stable index range (< 90), disjoint
        // from the VPN gateway index range used by the DNS corpus.
        (asn, Registry::host_in(prefixes, rng.below(64)))
    }

    /// Pick the subscriber/client side for a vantage point. `user_pool` is
    /// the number of concurrently active users; unique-address statistics
    /// (Fig. 8) derive from it.
    pub(crate) fn client(
        &self,
        vp: VantagePoint,
        user_pool: u64,
        rng: &mut SplitMix,
    ) -> (Asn, Ipv4Addr) {
        let (asn, prefixes) = match vp.kind() {
            VantageKind::Isp => self.isp,
            VantageKind::Mobile | VantageKind::Roaming => self.mobile,
            _ => {
                // IXPs see many eyeball networks, mostly regional.
                let region = if rng.chance(0.8) {
                    vp.region()
                } else {
                    rng.pick(&Region::ALL)
                };
                rng.pick(&self.eyeballs[region as usize])
            }
        };
        let idx = rng.below(user_pool.max(1));
        // Client addresses live above the server/gateway index ranges.
        (asn, Registry::host_in(prefixes, 1_000 + idx))
    }

    /// Pick a port signature for a class: the first (canonical) signature
    /// dominates, the rest share the remainder.
    pub(crate) fn port_sig(&self, app: AppClass, rng: &mut SplitMix) -> PortSig {
        let sigs = app.port_signatures();
        if sigs.len() == 1 || rng.chance(0.6) {
            sigs[0]
        } else {
            rng.pick(&sigs[1..])
        }
    }
}

/// Initial constant of the per-AS jitter fold (√2's fractional digits).
const JITTER_INIT: u64 = 0x6A09_E667_F3BC_C908;

/// Deterministic per-AS idiosyncrasy factor in `[1-spread, 1+spread)`,
/// used to scatter per-AS growth (Fig. 6's cloud of points). `trait_id`
/// numbers the independent factors one AS carries.
pub(crate) fn as_jitter(asn: Asn, seed: u64, trait_id: u64, spread: f64) -> f64 {
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

    /// Same members, same order: order decides `rng.pick`.
    #[test]
    fn pools_are_what_the_registry_and_class_tables_list() {
        let (r, c) = setup();
        let p = Picker::new(&r, &c);
        let asns = |pool: &[Net<'_>]| pool.iter().map(|n| n.0).collect::<Vec<_>>();
        for app in AppClass::ALL {
            let pools = &p.servers[app as usize];
            let class_hg: Vec<Asn> = app.hypergiant_pool().iter().map(|&a| Asn(a)).collect();
            assert_eq!(pools.hypergiant_share, app.hypergiant_share());
            assert_eq!(asns(&pools.hypergiants), class_hg, "{app}");
            assert_eq!(pools.categories.len(), app.server_categories().len());
            for (pool, &cat) in pools.categories.iter().zip(app.server_categories()) {
                let listed: Vec<Asn> = match cat {
                    AsCategory::Hypergiant => class_hg.clone(),
                    _ => r.in_category(cat).map(|a| a.asn).collect(),
                };
                assert_eq!(asns(pool), listed, "{app}, {cat:?}");
            }
        }
        for region in Region::ALL {
            let listed: Vec<Asn> = r
                .in_region(region)
                .filter(|a| a.category == AsCategory::EyeballIsp)
                .map(|a| a.asn)
                .collect();
            assert_eq!(asns(&p.eyeballs[region as usize]), listed, "{region}");
        }
        let all = [&p.eyeballs[..], &[vec![p.isp, p.mobile]]]
            .concat()
            .concat();
        for (asn, prefixes) in all {
            assert_eq!(prefixes, r.prefixes_of(asn));
        }
        assert_eq!((p.isp.0, p.mobile.0), (ISP_CE_ASN, MOBILE_ASN));
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
        assert!(!p.vpn_gateways.is_empty() && !p.vpn_gateways_shared.is_empty());
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
