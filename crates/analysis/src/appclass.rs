//! Application-class traffic classification (§5, Table 1, Figs. 8–9).
//!
//! The paper: "we apply a traffic classification based on a combination of
//! transport port and traffic source/sink criteria. In total, we define
//! more than 50 combinations of transport port and AS criteria". Classes
//! are "hiding" among existing traffic — ports collide (a STUN port is
//! used by gaming consoles and messengers alike) and AS membership is the
//! tiebreaker, which is exactly why the filter order below matters.
//!
//! The filter inventory reproduces Table 1's structure: per class, the
//! number of filters and the number of distinct ASNs and transport ports
//! they reference.

use crate::ports::EPHEMERAL_START;
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_scenario::apps::{PortSig, GAMING_PORTS};
use lockdown_topology::asn::{AsCategory, Asn};
use lockdown_topology::registry::{Registry, ZOOM_ASN};
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::net::Ipv4Addr;

/// The nine application classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PaperClass {
    /// Web conferencing and telephony.
    WebConf,
    /// Video on demand.
    Vod,
    /// Gaming (cloud and multiplayer).
    Gaming,
    /// Social media.
    SocialMedia,
    /// Messaging.
    Messaging,
    /// Email.
    Email,
    /// Educational networks.
    Educational,
    /// Collaborative working.
    CollabWorking,
    /// Content delivery networks.
    Cdn,
}

impl PaperClass {
    /// All nine classes, in Table 1's row order.
    pub const ALL: [PaperClass; 9] = [
        PaperClass::WebConf,
        PaperClass::Vod,
        PaperClass::Gaming,
        PaperClass::SocialMedia,
        PaperClass::Messaging,
        PaperClass::Email,
        PaperClass::Educational,
        PaperClass::CollabWorking,
        PaperClass::Cdn,
    ];

    /// Table 1 row label.
    pub fn label(self) -> &'static str {
        match self {
            PaperClass::WebConf => "Web conferencing and telephony (Web conf)",
            PaperClass::Vod => "Video on Demand (VoD)",
            PaperClass::Gaming => "gaming",
            PaperClass::SocialMedia => "social media",
            PaperClass::Messaging => "messaging",
            PaperClass::Email => "email",
            PaperClass::Educational => "educational",
            PaperClass::CollabWorking => "collaborative working",
            PaperClass::Cdn => "Content Delivery Network (CDN)",
        }
    }

    /// Short label for heatmap rows (Fig. 9's y-axis).
    pub fn short(self) -> &'static str {
        match self {
            PaperClass::WebConf => "Web conf",
            PaperClass::Vod => "VoD",
            PaperClass::Gaming => "gaming",
            PaperClass::SocialMedia => "social media",
            PaperClass::Messaging => "messaging",
            PaperClass::Email => "email",
            PaperClass::Educational => "educational",
            PaperClass::CollabWorking => "coll. working",
            PaperClass::Cdn => "CDN",
        }
    }
}

impl fmt::Display for PaperClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short())
    }
}

/// One filter: ports, ASNs, or a port+AS combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterRule {
    /// Match on service port signature(s) alone.
    Ports(Vec<PortSig>),
    /// Match on endpoint AS(es) alone.
    Asns(Vec<Asn>),
    /// Match only when both a port and an AS criterion hold.
    PortsAndAsns(Vec<PortSig>, Vec<Asn>),
}

impl FilterRule {
    fn matches(&self, sig: Option<PortSig>, src_as: Asn, dst_as: Asn) -> bool {
        let port_hit = |ports: &[PortSig]| sig.map(|s| ports.contains(&s)).unwrap_or(false);
        let asn_hit = |asns: &[Asn]| asns.contains(&src_as) || asns.contains(&dst_as);
        match self {
            FilterRule::Ports(ports) => port_hit(ports),
            FilterRule::Asns(asns) => asn_hit(asns),
            FilterRule::PortsAndAsns(ports, asns) => port_hit(ports) && asn_hit(asns),
        }
    }

    fn ports(&self) -> &[PortSig] {
        match self {
            FilterRule::Ports(p) | FilterRule::PortsAndAsns(p, _) => p,
            FilterRule::Asns(_) => &[],
        }
    }

    fn asns(&self) -> &[Asn] {
        match self {
            FilterRule::Asns(a) | FilterRule::PortsAndAsns(_, a) => a,
            FilterRule::Ports(_) => &[],
        }
    }
}

/// The classifier: the full Table 1 filter inventory, evaluated in a fixed
/// priority order.
#[derive(Debug, Clone)]
pub struct Classifier {
    /// (class, rules) in evaluation order.
    classes: Vec<(PaperClass, Vec<FilterRule>)>,
}

/// ASNs of a registry category, ordered.
fn category_asns(registry: &Registry, cat: AsCategory) -> Vec<Asn> {
    let mut v: Vec<Asn> = registry.in_category(cat).map(|a| a.asn).collect();
    v.sort();
    v
}

impl Classifier {
    /// Build the Table 1 filter inventory against a registry.
    pub fn from_registry(registry: &Registry) -> Classifier {
        use PortSig as P;
        let one = |a: Asn| vec![a];

        // Web conferencing: 7 filters, 1 ASN, 6 distinct ports.
        let webconf = vec![
            FilterRule::Ports(vec![P::udp(3480)]), // Teams/Skype STUN
            FilterRule::Ports(vec![P::udp(8801)]), // Zoom media
            FilterRule::Ports(vec![P::udp(8802)]),
            FilterRule::Ports(vec![P::udp(8803)]),
            FilterRule::Ports(vec![P::tcp(8801)]), // Zoom TCP fallback
            FilterRule::Ports(vec![P::udp(3481)]),
            FilterRule::Asns(one(ZOOM_ASN)),
        ];

        // VoD: 5 filters, 5 ASNs, no ports (Netflix & Amazon from Table 2
        // plus the three synthetic streamers).
        let mut vod_asns = vec![Asn(2_906), Asn(16_509)];
        vod_asns.extend(category_asns(registry, AsCategory::VodProvider));
        let vod = vod_asns.iter().map(|&a| FilterRule::Asns(one(a))).collect();

        // Gaming: 8 filters, 5 ASNs, 57 ports (5 AS filters + 3 port
        // groups partitioning the gaming-port list).
        let mut gaming: Vec<FilterRule> = category_asns(registry, AsCategory::GamingProvider)
            .into_iter()
            .map(|a| FilterRule::Asns(one(a)))
            .collect();
        gaming.push(FilterRule::Ports(GAMING_PORTS[..20].to_vec()));
        gaming.push(FilterRule::Ports(GAMING_PORTS[20..40].to_vec()));
        gaming.push(FilterRule::Ports(GAMING_PORTS[40..].to_vec()));

        // Social media: 4 filters, 4 ASNs, 1 port (HTTPS + the network).
        let social_asns = [
            Asn(32_934), // Facebook
            Asn(13_414), // Twitter
            category_asns(registry, AsCategory::SocialMedia)[0],
            category_asns(registry, AsCategory::SocialMedia)[1],
        ];
        let social = social_asns
            .iter()
            .map(|&a| FilterRule::PortsAndAsns(vec![P::tcp(443)], one(a)))
            .collect();

        // Messaging: 3 filters, 5 ports, no ASNs.
        let messaging = vec![
            FilterRule::Ports(vec![P::tcp(1863), P::tcp(6667)]),
            FilterRule::Ports(vec![P::tcp(4443), P::udp(4443)]),
            FilterRule::Ports(vec![P::tcp(5269)]),
        ];

        // Email: 1 filter, 10 ports.
        let email = vec![FilterRule::Ports(vec![
            P::tcp(25),
            P::tcp(26),
            P::tcp(110),
            P::tcp(143),
            P::tcp(465),
            P::tcp(587),
            P::tcp(993),
            P::tcp(995),
            P::tcp(2525),
            P::tcp(4190),
        ])];

        // Educational: 9 filters, 9 ASNs (8 NRENs + the EDU network).
        let educational = category_asns(registry, AsCategory::Educational)
            .into_iter()
            .map(|a| FilterRule::Asns(one(a)))
            .collect::<Vec<_>>();

        // Collaborative working: 8 filters, 2 ASNs, 9 ports.
        let collab_asns = category_asns(registry, AsCategory::CollaborationProvider);
        let collab = vec![
            FilterRule::Asns(one(collab_asns[0])),
            FilterRule::Asns(one(collab_asns[1])),
            FilterRule::Ports(vec![P::tcp(8443), P::udp(8443)]),
            FilterRule::Ports(vec![P::tcp(7443), P::udp(7443)]),
            FilterRule::Ports(vec![P::tcp(9443)]),
            FilterRule::Ports(vec![P::tcp(8444), P::udp(8444)]),
            FilterRule::Ports(vec![P::tcp(8445)]),
            FilterRule::Ports(vec![P::tcp(8446)]),
        ];

        // CDN: 8 filters, 8 ASNs (4 CDN-heavy hypergiants + 4 synthetic).
        let mut cdn_asns = vec![
            Asn(20_940), // Akamai
            Asn(13_335), // Cloudflare
            Asn(22_822), // Limelight
            Asn(15_133), // Verizon DMS
        ];
        cdn_asns.extend(category_asns(registry, AsCategory::Cdn));
        let cdn = cdn_asns.iter().map(|&a| FilterRule::Asns(one(a))).collect();

        // Evaluation order: port-specific classes first, then AS-based
        // content classes; gaming sits in between (its AS rules must win
        // over the generic 443 classes, its port groups after messaging so
        // shared STUN-family ports resolve by AS first).
        Classifier {
            classes: vec![
                (PaperClass::WebConf, webconf),
                (PaperClass::Messaging, messaging),
                (PaperClass::Email, email),
                (PaperClass::Gaming, gaming),
                (PaperClass::CollabWorking, collab),
                (PaperClass::Vod, vod),
                (PaperClass::Cdn, cdn),
                (PaperClass::SocialMedia, social),
                (PaperClass::Educational, educational),
            ],
        }
    }

    /// Classify one flow into a paper class, if any filter matches.
    pub fn classify(&self, record: &FlowRecord) -> Option<PaperClass> {
        let sig = service_sig(record);
        let (src_as, dst_as) = (Asn(record.src_as), Asn(record.dst_as));
        for (class, rules) in &self.classes {
            if rules.iter().any(|r| r.matches(sig, src_as, dst_as)) {
                return Some(*class);
            }
        }
        None
    }

    /// Table 1's per-class summary: (filters, distinct ASNs, distinct
    /// transport ports).
    pub fn table1_row(&self, class: PaperClass) -> (usize, usize, usize) {
        let rules = &self
            .classes
            .iter()
            .find(|(c, _)| *c == class)
            .expect("all classes present")
            .1;
        let asns: BTreeSet<Asn> = rules
            .iter()
            .flat_map(|r| r.asns().iter().copied())
            .collect();
        let ports: BTreeSet<PortSig> = rules
            .iter()
            .flat_map(|r| r.ports().iter().copied())
            .collect();
        (rules.len(), asns.len(), ports.len())
    }

    /// Total number of filter combinations (the paper: "more than 50").
    pub fn total_filters(&self) -> usize {
        self.classes.iter().map(|(_, r)| r.len()).sum()
    }
}

/// The service-side port signature of a flow (lower, non-ephemeral port),
/// or `None` when both ports are ephemeral.
fn service_sig(record: &FlowRecord) -> Option<PortSig> {
    let proto = record.key.protocol;
    if !proto.has_ports() {
        return Some(PortSig {
            protocol: proto,
            port: 0,
        });
    }
    let lo = record.key.src_port.min(record.key.dst_port);
    if lo >= EPHEMERAL_START {
        None
    } else {
        Some(PortSig {
            protocol: proto,
            port: lo,
        })
    }
}

/// Per-class usage metrics for one hour (Fig. 8's two panels).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HourUsage {
    /// Bytes attributed to the class.
    pub bytes: u64,
    /// Distinct client IP addresses ("a way to approximate the order of
    /// households", §5).
    pub unique_ips: usize,
}

/// Measure one class's hourly usage over a batch of flows: volume plus
/// distinct non-content endpoint addresses.
pub fn class_hour_usage(
    classifier: &Classifier,
    class: PaperClass,
    flows: &[FlowRecord],
) -> HourUsage {
    let mut bytes = 0u64;
    let mut ips: HashSet<Ipv4Addr> = HashSet::new();
    for f in flows {
        if classifier.classify(f) == Some(class) {
            bytes += f.bytes;
            // The client is the ephemeral-port side; fall back to source.
            let client = if f.key.src_port >= EPHEMERAL_START || f.key.src_port == 0 {
                f.key.src_addr
            } else {
                f.key.dst_addr
            };
            ips.insert(client);
        }
    }
    HourUsage {
        bytes,
        unique_ips: ips.len(),
    }
}

/// Fig. 9 heatmap cell grid for one analysis week: per class, 7 days × the
/// displayed hours (the paper removes 02:00–07:00, keeping 19 hours/day).
#[derive(Debug, Clone)]
pub struct WeekHeatmap {
    /// Week start date.
    pub start: Date,
    /// `grid[class][day][display_hour]` = bytes.
    pub grid: Vec<[[u64; DISPLAY_HOURS]; 7]>,
}

/// Hours shown per day after removing 02:00–07:00.
pub const DISPLAY_HOURS: usize = 19;

/// Map an hour of day to its display slot, skipping 02:00–06:59.
pub fn display_slot(hour: u8) -> Option<usize> {
    match hour {
        0 | 1 => Some(hour as usize),
        2..=6 => None,
        7..=23 => Some(hour as usize - 5),
        _ => None,
    }
}

impl WeekHeatmap {
    /// An empty grid for the week starting at `start`.
    pub fn new(start: Date) -> WeekHeatmap {
        WeekHeatmap {
            start,
            grid: vec![[[0u64; DISPLAY_HOURS]; 7]; PaperClass::ALL.len()],
        }
    }

    /// Accumulate one flow into the grid (classified flows inside the
    /// week's displayed hours only).
    pub fn add(&mut self, classifier: &Classifier, record: &FlowRecord) {
        let Some(class) = classifier.classify(record) else {
            return;
        };
        let day = self.start.days_until(record.start.date());
        if !(0..7).contains(&day) {
            return;
        }
        let Some(slot) = display_slot(record.start.hour()) else {
            return;
        };
        let ci = PaperClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("in ALL");
        self.grid[ci][day as usize][slot] += record.bytes;
    }

    /// Merge another same-week grid into this one (cells are additive).
    pub fn merge(&mut self, other: &WeekHeatmap) {
        debug_assert_eq!(self.start, other.start, "weeks must agree");
        for (mine, theirs) in self.grid.iter_mut().zip(&other.grid) {
            for (day_m, day_t) in mine.iter_mut().zip(theirs) {
                for (cell_m, cell_t) in day_m.iter_mut().zip(day_t) {
                    *cell_m += cell_t;
                }
            }
        }
    }

    /// Accumulate one week of flows into the grid.
    pub fn build(classifier: &Classifier, start: Date, flows: &[FlowRecord]) -> WeekHeatmap {
        let mut h = WeekHeatmap::new(start);
        for f in flows {
            h.add(classifier, f);
        }
        h
    }

    /// The class's cells normalized to this week+others' shared max (the
    /// caller supplies the per-class max across all compared weeks, per
    /// the paper's "normalized to the minimum/maximum of all three weeks
    /// per application per vantage point").
    pub fn normalized(&self, class: PaperClass, class_max: u64) -> [[f64; DISPLAY_HOURS]; 7] {
        let ci = PaperClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("in ALL");
        let mut out = [[0.0; DISPLAY_HOURS]; 7];
        let denom = class_max.max(1) as f64;
        for (day_out, day_in) in out.iter_mut().zip(&self.grid[ci]) {
            for (cell, &v) in day_out.iter_mut().zip(day_in) {
                *cell = v as f64 / denom;
            }
        }
        out
    }

    /// Max cell value of one class in this week.
    pub fn class_max(&self, class: PaperClass) -> u64 {
        let ci = PaperClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("in ALL");
        self.grid[ci]
            .iter()
            .flat_map(|day| day.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// The Fig. 9 difference view: `(stage − base)` in percent of the shared
/// class max, clamped to the paper's display range [−100, +200].
pub fn heatmap_diff(
    base: &WeekHeatmap,
    stage: &WeekHeatmap,
    class: PaperClass,
) -> [[f64; DISPLAY_HOURS]; 7] {
    let max = base.class_max(class).max(stage.class_max(class));
    let b = base.normalized(class, max);
    let s = stage.normalized(class, max);
    let mut out = [[0.0; DISPLAY_HOURS]; 7];
    for (d, day) in out.iter_mut().enumerate() {
        for (h, cell) in day.iter_mut().enumerate() {
            let base_cell = b[d][h];
            let diff_pct = if base_cell > 0.0 {
                (s[d][h] - base_cell) / base_cell * 100.0
            } else if s[d][h] > 0.0 {
                200.0
            } else {
                0.0
            };
            *cell = diff_pct.clamp(-100.0, 200.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::protocol::IpProtocol;
    use lockdown_flow::record::FlowKey;

    fn registry() -> Registry {
        Registry::synthesize()
    }

    fn flow(proto: IpProtocol, sport: u16, dport: u16, src_as: u32, dst_as: u32) -> FlowRecord {
        let t = Date::new(2020, 3, 25).at_hour(11);
        FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(192, 0, 2, 1),
                dst_addr: Ipv4Addr::new(192, 0, 2, 2),
                src_port: sport,
                dst_port: dport,
                protocol: proto,
            },
            t,
        )
        .end(t.add_secs(1))
        .bytes(100)
        .packets(1)
        .asns(src_as, dst_as)
        .build()
    }

    #[test]
    fn table1_counts_match_paper() {
        let c = Classifier::from_registry(&registry());
        // (filters, ASNs, ports) per Table 1.
        assert_eq!(c.table1_row(PaperClass::WebConf), (7, 1, 6));
        assert_eq!(c.table1_row(PaperClass::Vod), (5, 5, 0));
        assert_eq!(c.table1_row(PaperClass::Gaming), (8, 5, 57));
        assert_eq!(c.table1_row(PaperClass::SocialMedia), (4, 4, 1));
        assert_eq!(c.table1_row(PaperClass::Messaging), (3, 0, 5));
        assert_eq!(c.table1_row(PaperClass::Email), (1, 0, 10));
        assert_eq!(c.table1_row(PaperClass::Educational), (9, 9, 0));
        assert_eq!(c.table1_row(PaperClass::CollabWorking), (8, 2, 9));
        assert_eq!(c.table1_row(PaperClass::Cdn), (8, 8, 0));
        // "we define more than 50 combinations".
        assert!(c.total_filters() > 50, "{} filters", c.total_filters());
    }

    #[test]
    fn classify_by_port() {
        let c = Classifier::from_registry(&registry());
        assert_eq!(
            c.classify(&flow(IpProtocol::Udp, 3_480, 50_000, 8_075, 64_496)),
            Some(PaperClass::WebConf)
        );
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 50_000, 993, 64_496, 65_100)),
            Some(PaperClass::Email)
        );
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 40_000, 1_863, 1, 2)),
            Some(PaperClass::Messaging)
        );
    }

    #[test]
    fn classify_by_asn() {
        let r = registry();
        let c = Classifier::from_registry(&r);
        // Netflix on 443 → VoD.
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 443, 50_000, 2_906, 64_496)),
            Some(PaperClass::Vod)
        );
        // Akamai on 443 → CDN.
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 443, 50_000, 20_940, 64_496)),
            Some(PaperClass::Cdn)
        );
        // Facebook on 443 → social media.
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 443, 50_000, 32_934, 64_496)),
            Some(PaperClass::SocialMedia)
        );
        // An NREN on 443 → educational.
        let nren = r
            .ases()
            .iter()
            .find(|a| a.name.starts_with("NREN"))
            .unwrap()
            .asn;
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 443, 50_000, nren.0, 64_496)),
            Some(PaperClass::Educational)
        );
    }

    #[test]
    fn port_asn_priority_resolves_collisions() {
        let r = registry();
        let c = Classifier::from_registry(&r);
        let gaming_asn = r
            .in_category(AsCategory::GamingProvider)
            .next()
            .unwrap()
            .asn;
        // Gaming provider on a gaming port: gaming, not messaging.
        assert_eq!(
            c.classify(&flow(IpProtocol::Udp, 3_074, 50_000, gaming_asn.0, 64_496)),
            Some(PaperClass::Gaming)
        );
        // Gaming port from a random AS still lands in gaming (port group).
        assert_eq!(
            c.classify(&flow(IpProtocol::Udp, 27_015, 50_000, 99, 64_496)),
            Some(PaperClass::Gaming)
        );
        // Generic web to a random AS: unclassified.
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 443, 50_000, 99, 98)),
            None
        );
        // QUIC to Google: not one of the nine classes.
        assert_eq!(
            c.classify(&flow(IpProtocol::Udp, 443, 50_000, 15_169, 64_496)),
            None
        );
    }

    #[test]
    fn ephemeral_both_sides_unclassified_by_port() {
        let c = Classifier::from_registry(&registry());
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 40_000, 50_000, 7, 8)),
            None
        );
        // …but AS rules still apply (VoD is AS-only).
        assert_eq!(
            c.classify(&flow(IpProtocol::Tcp, 40_000, 50_000, 2_906, 8)),
            Some(PaperClass::Vod)
        );
    }

    #[test]
    fn hour_usage_counts_unique_clients() {
        let r = registry();
        let c = Classifier::from_registry(&r);
        let t = Date::new(2020, 3, 25).at_hour(20);
        let mk = |client: u8| {
            FlowRecord::builder(
                FlowKey {
                    src_addr: Ipv4Addr::new(203, 0, 113, client),
                    dst_addr: Ipv4Addr::new(192, 0, 2, 1),
                    src_port: 50_000,
                    dst_port: 27_015,
                    protocol: IpProtocol::Udp,
                },
                t,
            )
            .end(t.add_secs(1))
            .bytes(500)
            .packets(1)
            .asns(64_496, 65_040)
            .build()
        };
        let flows = vec![mk(1), mk(1), mk(2), mk(3)];
        let usage = class_hour_usage(&c, PaperClass::Gaming, &flows);
        assert_eq!(usage.bytes, 2_000);
        assert_eq!(usage.unique_ips, 3);
        let other = class_hour_usage(&c, PaperClass::Email, &flows);
        assert_eq!(other.bytes, 0);
    }

    #[test]
    fn display_slots_skip_early_morning() {
        assert_eq!(display_slot(0), Some(0));
        assert_eq!(display_slot(1), Some(1));
        for h in 2..=6 {
            assert_eq!(display_slot(h), None);
        }
        assert_eq!(display_slot(7), Some(2));
        assert_eq!(display_slot(23), Some(18));
        assert_eq!((0..24).filter_map(display_slot).count(), DISPLAY_HOURS);
    }

    #[test]
    fn heatmap_diff_clamped() {
        let r = registry();
        let c = Classifier::from_registry(&r);
        let start = Date::new(2020, 2, 20);
        let mk_week = |bytes: u64| -> Vec<FlowRecord> {
            let t = start.at_hour(11);
            vec![FlowRecord::builder(
                FlowKey {
                    src_addr: Ipv4Addr::new(192, 0, 2, 1),
                    dst_addr: Ipv4Addr::new(192, 0, 2, 2),
                    src_port: 50_000,
                    dst_port: 993,
                    protocol: IpProtocol::Tcp,
                },
                t,
            )
            .end(t.add_secs(1))
            .bytes(bytes)
            .packets(1)
            .build()]
        };
        let base = WeekHeatmap::build(&c, start, &mk_week(100));
        let stage = WeekHeatmap::build(&c, start, &mk_week(800)); // +700%
        let diff = heatmap_diff(&base, &stage, PaperClass::Email);
        let slot = display_slot(11).unwrap();
        assert_eq!(diff[0][slot], 200.0, "growth clamps at +200%");
        let down = heatmap_diff(&stage, &base, PaperClass::Email);
        assert!((down[0][slot] - (-87.5)).abs() < 1e-9);
    }
}
