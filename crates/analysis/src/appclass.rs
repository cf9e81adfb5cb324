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

use crate::ports::{service_port, EPHEMERAL_START};
use lockdown_flow::protocol::IpProtocol;
use lockdown_flow::record::{FlowRecord, HourRun};
use lockdown_flow::time::Date;
use lockdown_scenario::apps::{PortSig, GAMING_PORTS};
use lockdown_topology::asn::{AsCategory, Asn};
use lockdown_topology::registry::{Registry, ZOOM_ASN};
use std::collections::BTreeSet;
use std::fmt;

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

    /// Position in [`PaperClass::ALL`], which lists the variants in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }

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
pub(crate) enum FilterRule {
    /// Match on service port signature(s) alone.
    Ports(Vec<PortSig>),
    /// Match on endpoint AS(es) alone.
    Asns(Vec<Asn>),
    /// Match only when both a port and an AS criterion hold.
    PortsAndAsns(Vec<PortSig>, Vec<Asn>),
}

impl FilterRule {
    /// The rule as written: the reference the compiled [`Lookup`] is held
    /// to.
    #[cfg(test)]
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
    /// (class, rules) in evaluation order: the Table 1 inventory.
    classes: Vec<(PaperClass, Vec<FilterRule>)>,
    /// The same rules, compiled to lookups for [`Classifier::classify`].
    lookup: Lookup,
}

/// Rank of a flow no rule matched: past every class.
const NO_RANK: u8 = u8::MAX;

/// What a port signature or an ASN contributes to a flow's class.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Lowest evaluation rank among the rules it satisfies by itself.
    rank: u8,
    /// Its row (signature) or column (ASN) in [`Lookup::pairs`]; 0 when no
    /// port-and-AS rule names it.
    pair: u8,
}

impl Slot {
    const NONE: Slot = Slot {
        rank: NO_RANK,
        pair: 0,
    };
}

/// The rule list as index lookups. Which rules a flow satisfies depends
/// only on its service signature and its two ASNs, and the first matching
/// class in evaluation order is the lowest rank among the satisfied rules
/// — so its class is the minimum over five table reads: the signature, each
/// ASN, and each (signature, ASN) pair.
#[derive(Debug, Clone)]
struct Lookup {
    /// By [`sig_slot`].
    by_sig: Vec<Slot>,
    /// By ASN, as long as the largest ASN a rule names.
    by_asn: Vec<Slot>,
    /// `pairs[sig.pair][asn.pair]`: lowest rank among the port-and-AS rules
    /// naming both. Row 0 and column 0 stay [`NO_RANK`].
    pairs: Vec<[u8; 256]>,
}

/// Slots of [`Lookup::by_sig`]: the TCP service ports, the UDP service
/// ports, then the port-less protocols by number.
const SIG_SLOTS: usize = 2 * EPHEMERAL_START as usize + 256;

/// Where a signature lives in [`Lookup::by_sig`]; `None` for one
/// [`service_sig`] never produces (an ephemeral port, or a port on a
/// port-less protocol), which therefore no flow can match. Port-less
/// protocols are keyed by number, so a hand-built `Other(47)` is GRE here.
fn sig_slot(sig: PortSig) -> Option<usize> {
    let service = usize::from(sig.port) < usize::from(EPHEMERAL_START);
    match sig.protocol {
        IpProtocol::Tcp if service => Some(usize::from(sig.port)),
        IpProtocol::Udp if service => Some(usize::from(EPHEMERAL_START) + usize::from(sig.port)),
        IpProtocol::Tcp | IpProtocol::Udp => None,
        other if sig.port == 0 => {
            Some(2 * usize::from(EPHEMERAL_START) + usize::from(other.number()))
        }
        _ => None,
    }
}

impl Lookup {
    fn compile(classes: &[(PaperClass, Vec<FilterRule>)]) -> Lookup {
        let largest_asn = classes
            .iter()
            .flat_map(|(_, rules)| rules)
            .flat_map(|rule| rule.asns())
            .map(|asn| asn.0 as usize)
            .max()
            .unwrap_or(0);
        let mut by_sig = vec![Slot::NONE; SIG_SLOTS];
        let mut by_asn = vec![Slot::NONE; largest_asn + 1];
        let mut pairs = vec![[NO_RANK; 256]];
        let mut columns = 1u8;
        let lower = |cell: &mut u8, rank: u8| *cell = (*cell).min(rank);
        for (rank, (_, rules)) in classes.iter().enumerate() {
            let rank = u8::try_from(rank).expect("fewer classes than ranks");
            for rule in rules {
                let sigs = rule.ports().iter().filter_map(|&sig| sig_slot(sig));
                match rule {
                    FilterRule::Ports(_) => sigs.for_each(|s| lower(&mut by_sig[s].rank, rank)),
                    FilterRule::Asns(asns) => asns
                        .iter()
                        .for_each(|a| lower(&mut by_asn[a.0 as usize].rank, rank)),
                    FilterRule::PortsAndAsns(_, asns) => {
                        for s in sigs {
                            if by_sig[s].pair == 0 {
                                by_sig[s].pair =
                                    u8::try_from(pairs.len()).expect("under 256 paired ports");
                                pairs.push([NO_RANK; 256]);
                            }
                            for a in asns {
                                let asn = &mut by_asn[a.0 as usize];
                                if asn.pair == 0 {
                                    asn.pair = columns;
                                    columns =
                                        columns.checked_add(1).expect("under 256 paired ASNs");
                                }
                                lower(
                                    &mut pairs[usize::from(by_sig[s].pair)][usize::from(asn.pair)],
                                    rank,
                                );
                            }
                        }
                    }
                }
            }
        }
        Lookup {
            by_sig,
            by_asn,
            pairs,
        }
    }

    /// Lowest rank among the rules a flow satisfies.
    fn rank(&self, record: &FlowRecord) -> u8 {
        let sig = service_sig(record)
            .and_then(sig_slot)
            .map_or(Slot::NONE, |s| self.by_sig[s]);
        let asn = |asn: u32| self.by_asn.get(asn as usize).copied().unwrap_or(Slot::NONE);
        let (src, dst) = (asn(record.src_as), asn(record.dst_as));
        let paired = &self.pairs[usize::from(sig.pair)];
        sig.rank
            .min(src.rank)
            .min(dst.rank)
            .min(paired[usize::from(src.pair)])
            .min(paired[usize::from(dst.pair)])
    }
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
        let classes = vec![
            (PaperClass::WebConf, webconf),
            (PaperClass::Messaging, messaging),
            (PaperClass::Email, email),
            (PaperClass::Gaming, gaming),
            (PaperClass::CollabWorking, collab),
            (PaperClass::Vod, vod),
            (PaperClass::Cdn, cdn),
            (PaperClass::SocialMedia, social),
            (PaperClass::Educational, educational),
        ];
        Classifier {
            lookup: Lookup::compile(&classes),
            classes,
        }
    }

    /// Classify one flow into a paper class, if any filter matches.
    pub fn classify(&self, record: &FlowRecord) -> Option<PaperClass> {
        let rank = self.lookup.rank(record);
        self.classes.get(usize::from(rank)).map(|(class, _)| *class)
    }

    /// [`Classifier::classify`] by walking the rule list in order.
    #[cfg(test)]
    fn classify_by_walk(&self, record: &FlowRecord) -> Option<PaperClass> {
        let sig = service_sig(record);
        let (src_as, dst_as) = (Asn(record.src_as), Asn(record.dst_as));
        self.classes
            .iter()
            .find(|(_, rules)| rules.iter().any(|r| r.matches(sig, src_as, dst_as)))
            .map(|(class, _)| *class)
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

/// The service-side port signature of a flow ([`service_port`]; the
/// protocol alone for port-less ones), or `None` when both ports are
/// ephemeral.
fn service_sig(record: &FlowRecord) -> Option<PortSig> {
    let protocol = record.key.protocol;
    let port = if protocol.has_ports() {
        service_port(record)?
    } else {
        0
    };
    Some(PortSig { protocol, port })
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
    pub(crate) fn new(start: Date) -> WeekHeatmap {
        WeekHeatmap {
            start,
            grid: vec![[[0u64; DISPLAY_HOURS]; 7]; PaperClass::ALL.len()],
        }
    }

    /// Accumulate one hour run: day and display slot are the run's (a run
    /// outside the week or the displayed hours is not classified at all),
    /// bytes are summed per class and flushed into the run's one column.
    pub(crate) fn add_run(&mut self, classifier: &Classifier, run: &HourRun<'_>) {
        let day = run.day_number - self.start.day_number();
        if !(0..7).contains(&day) {
            return;
        }
        let Some(slot) = display_slot(run.hour) else {
            return;
        };
        let mut by_class = [0u64; PaperClass::ALL.len()];
        for record in run.records {
            if let Some(class) = classifier.classify(record) {
                by_class[class.index()] += record.bytes;
            }
        }
        for (class_grid, bytes) in self.grid.iter_mut().zip(by_class) {
            class_grid[day as usize][slot] += bytes;
        }
    }

    /// The class's cells normalized to this week+others' shared max (the
    /// caller supplies the per-class max across all compared weeks, per
    /// the paper's "normalized to the minimum/maximum of all three weeks
    /// per application per vantage point").
    pub(crate) fn normalized(
        &self,
        class: PaperClass,
        class_max: u64,
    ) -> [[f64; DISPLAY_HOURS]; 7] {
        let ci = class.index();
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
    pub(crate) fn class_max(&self, class: PaperClass) -> u64 {
        let ci = class.index();
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
    use lockdown_flow::record::{hour_runs, FlowKey};
    use std::net::Ipv4Addr;

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

    /// Every (signature, source AS, destination AS) the inventory can tell
    /// apart: each named value plus ones no rule names, the service port on
    /// either side, and both sides ephemeral.
    fn assert_lookup_is_the_walk(c: &Classifier) -> BTreeSet<Option<PaperClass>> {
        let rules = || c.classes.iter().flat_map(|(_, rules)| rules);
        let mut sigs: BTreeSet<PortSig> = rules().flat_map(|r| r.ports()).copied().collect();
        sigs.extend([PortSig::tcp(12_345), PortSig::udp(12_345), PortSig::tcp(0)]);
        sigs.extend(
            [
                IpProtocol::Icmp,
                IpProtocol::Gre,
                IpProtocol::Esp,
                IpProtocol::Other(99),
            ]
            .map(|protocol| PortSig { protocol, port: 0 }),
        );
        let mut asns: BTreeSet<u32> = rules().flat_map(|r| r.asns()).map(|a| a.0).collect();
        let beyond = asns.last().expect("rules name ASNs") + 1;
        asns.extend([0, 99, beyond, u32::MAX]);

        let mut seen = BTreeSet::new();
        for sig in sigs {
            for (sport, dport) in [(sig.port, 50_000), (50_000, sig.port), (40_000, 50_000)] {
                for &src in &asns {
                    for &dst in &asns {
                        let f = flow(sig.protocol, sport, dport, src, dst);
                        let class = c.classify(&f);
                        assert_eq!(
                            class,
                            c.classify_by_walk(&f),
                            "{sig} as {sport}->{dport}, AS{src}->AS{dst}"
                        );
                        seen.insert(class);
                    }
                }
            }
        }
        seen
    }

    #[test]
    fn compiled_lookup_is_the_rule_walk() {
        let seen = assert_lookup_is_the_walk(&Classifier::from_registry(&registry()));
        // The product reached every class, and the unclassified rest.
        assert_eq!(seen.len(), PaperClass::ALL.len() + 1);
    }

    #[test]
    fn lookup_compiles_rule_shapes_table1_does_not_use() {
        use PortSig as P;
        let gre = PortSig {
            protocol: IpProtocol::Gre,
            port: 0,
        };
        // Overlaps across classes (the earlier class must win), a port-less
        // signature, several paired ports and ASNs, an ASN above 16 bits,
        // and two rules no flow can match: an ephemeral port, and a port on
        // a port-less protocol.
        let classes = vec![
            (
                PaperClass::Vod,
                vec![FilterRule::PortsAndAsns(
                    vec![P::tcp(443), P::udp(53)],
                    vec![Asn(7), Asn(70_000)],
                )],
            ),
            (
                PaperClass::Email,
                vec![
                    FilterRule::Ports(vec![P::udp(53), gre, P::tcp(50_000)]),
                    FilterRule::Ports(vec![PortSig {
                        protocol: IpProtocol::Esp,
                        port: 9,
                    }]),
                ],
            ),
            (
                PaperClass::Cdn,
                vec![
                    FilterRule::Asns(vec![Asn(7), Asn(8)]),
                    FilterRule::PortsAndAsns(vec![P::tcp(443), P::tcp(80)], vec![Asn(9), Asn(7)]),
                ],
            ),
            (
                PaperClass::Gaming,
                vec![FilterRule::Ports(vec![P::tcp(80)])],
            ),
        ];
        let c = Classifier {
            lookup: Lookup::compile(&classes),
            classes,
        };
        let seen = assert_lookup_is_the_walk(&c);
        assert_eq!(seen.len(), 5, "four classes and the rest: {seen:?}");
        let class = |proto, sport, src_as| c.classify(&flow(proto, sport, 50_000, src_as, 0));
        assert_eq!(class(IpProtocol::Tcp, 443, 7), Some(PaperClass::Vod));
        assert_eq!(class(IpProtocol::Udp, 53, 9), Some(PaperClass::Email));
        assert_eq!(class(IpProtocol::Gre, 0, 8), Some(PaperClass::Email));
        assert_eq!(class(IpProtocol::Tcp, 80, 9), Some(PaperClass::Cdn));
        assert_eq!(class(IpProtocol::Tcp, 80, 70_000), Some(PaperClass::Gaming));
        assert_eq!(class(IpProtocol::Tcp, 50_000, 0), None);
        assert_eq!(class(IpProtocol::Esp, 9, 0), None);
    }

    #[test]
    fn class_index_is_the_position_in_all() {
        for (i, class) in PaperClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
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
        use crate::consumer::{ClassUsageConsumer, FlowConsumer};
        let r = registry();
        let c = std::sync::Arc::new(Classifier::from_registry(&r));
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
        let usage = |class| {
            let mut consumer = ClassUsageConsumer::new(c.clone(), class);
            consumer.observe_all(&flows);
            consumer.hour_usage(t.date(), 20)
        };
        let gaming = usage(PaperClass::Gaming);
        assert_eq!(gaming.bytes, 2_000);
        assert_eq!(gaming.unique_ips, 3);
        assert_eq!(usage(PaperClass::Email).bytes, 0);
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
        let week = |flows: Vec<FlowRecord>| {
            let mut h = WeekHeatmap::new(start);
            hour_runs(&flows).for_each(|run| h.add_run(&c, &run));
            h
        };
        let base = week(mk_week(100));
        let stage = week(mk_week(800)); // +700%
        let diff = heatmap_diff(&base, &stage, PaperClass::Email);
        let slot = display_slot(11).unwrap();
        assert_eq!(diff[0][slot], 200.0, "growth clamps at +200%");
        let down = heatmap_diff(&stage, &base, PaperClass::Email);
        assert!((down[0][slot] - (-87.5)).abs() < 1e-9);
    }
}
