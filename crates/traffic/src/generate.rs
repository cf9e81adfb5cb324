//! The core synthetic trace generator.
//!
//! For every `(vantage point, application class, date, hour)` cell the
//! generator asks the demand model for the expected volume, converts it to
//! a flow count via the configured resolution, and materializes flow
//! records with realistic endpoints (AS-attributable addresses, canonical
//! ports, heavy-tailed sizes). Every cell is seeded independently, so any
//! hour of any vantage point regenerates bit-identically in isolation —
//! the property that makes per-figure experiments cheap and parallel.

use crate::config::GeneratorConfig;
use crate::picker::{as_jitter, Net, Picker};
use crate::plan::{Cell, Stream, TracePlan};
use crate::sizes;
use lockdown_base::hash::SplitMix;
use lockdown_dns::corpus::Corpus;
use lockdown_flow::protocol::{IpProtocol, TcpFlags};
use lockdown_flow::record::{Direction, FlowKey, FlowRecord};
use lockdown_flow::time::{Date, Timestamp};
use lockdown_scenario::apps::AppClass;
use lockdown_scenario::calendar::day_type;
use lockdown_scenario::demand::{DayDemand, DemandModel};
use lockdown_scenario::diurnal::{shape, DiurnalProfile};
use lockdown_scenario::measures::ScenarioSpec;
use lockdown_topology::asn::Region;
use lockdown_topology::registry::Registry;
use lockdown_topology::vantage::{VantageKind, VantagePoint};

/// Bytes carried by 1 Gbps sustained for one hour.
pub(crate) const BYTES_PER_GBPS_HOUR: f64 = 3_600.0 / 8.0 * 1e9;

/// Classes whose two directions carry comparable volume (conferencing,
/// tunnels, interactive protocols) — the generator emits both directions.
fn is_symmetric(app: AppClass) -> bool {
    matches!(
        app,
        AppClass::WebConf
            | AppClass::CollabWork
            | AppClass::Messaging
            | AppClass::VpnUser
            | AppClass::VpnSiteToSite
            | AppClass::VpnTls
            | AppClass::RemoteDesktop
            | AppClass::Ssh
    )
}

/// One row of the §3.4 transit view: a business AS, its base levels and
/// its idiosyncratic responses to lockdown — facts of the AS and the seed.
#[derive(Debug)]
struct TransitAs<'a> {
    net: Net<'a>,
    base_res: f64,
    base_b2b: f64,
    res_delta: f64,
    b2b_delta: f64,
}

/// The trace generator. Construction resolves every endpoint pool and
/// builds the demand model's tables, so build one per pass; all methods
/// take `&self`.
#[derive(Debug)]
pub struct TrafficGenerator<'a> {
    picker: Picker<'a>,
    demand: DemandModel,
    config: GeneratorConfig,
    transit: Vec<TransitAs<'a>>,
}

impl<'a> TrafficGenerator<'a> {
    /// Build a generator over a registry and DNS corpus, calibrated to the
    /// default scenario, the shipped `scenarios/covid-spring-2020.toml`.
    pub fn new(registry: &'a Registry, corpus: &'a Corpus, config: GeneratorConfig) -> Self {
        let spec = ScenarioSpec::covid_spring_2020();
        TrafficGenerator::with_scenario(registry, corpus, config, &spec)
    }

    /// Build a generator whose demand model interprets `spec` instead of
    /// the default calibration. With
    /// [`ScenarioSpec::covid_spring_2020`] this is byte-identical to
    /// [`TrafficGenerator::new`].
    pub fn with_scenario(
        registry: &'a Registry,
        corpus: &'a Corpus,
        config: GeneratorConfig,
        spec: &ScenarioSpec,
    ) -> Self {
        let picker = Picker::new(registry, corpus);
        let jitter = |net: Net<'a>, id, spread| as_jitter(net.0, config.seed, id, spread);
        let transit = picker.business.iter().map(|&net| TransitAs {
            net,
            base_res: 2.0 * jitter(net, 1, 0.8),
            base_b2b: 3.0 * jitter(net, 2, 0.8),
            // Residential delta centred +0.55, spread wide enough that some
            // ASes lose residential traffic (bottom quadrants of Fig. 6).
            res_delta: 0.55 * jitter(net, 3, 1.6),
            // B2B delta centred −0.45, a few ASes gain (cloud platforms).
            b2b_delta: -0.45 * jitter(net, 4, 1.3),
        });
        TrafficGenerator {
            transit: transit.collect(),
            picker,
            demand: DemandModel::from_spec(spec),
            config,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generate all flows of one class in one hour, appending to `out`.
    pub fn generate_hour_class(
        &self,
        vp: VantagePoint,
        app: AppClass,
        date: Date,
        hour: u8,
        out: &mut Vec<FlowRecord>,
    ) {
        self.class_into(&self.demand.day(vp, date), app, hour, &mut Vec::new(), out);
    }

    /// One class of one hour of `day`, appended to `out`; `sizes` is the
    /// caller's scratch buffer.
    fn class_into(
        &self,
        day: &DayDemand<'_>,
        app: AppClass,
        hour: u8,
        sizes: &mut Vec<u64>,
        out: &mut Vec<FlowRecord>,
    ) {
        let (vp, date) = (day.vantage(), day.date());
        let volume_gbps = day.volume_gbps(app, hour);
        if volume_gbps <= 0.0 {
            return;
        }
        let mut rng = self
            .config
            .cell_rng(Stream::Vantage(vp), app as u64, date, hour);
        let bytes_total = (volume_gbps * BYTES_PER_GBPS_HOUR) as u64;

        // Randomized rounding keeps expected flow counts exact.
        let raw = volume_gbps * self.config.flows_per_gbps;
        let mut n = raw.floor() as usize;
        if rng.chance((raw - n as f64).clamp(0.0, 1.0)) {
            n += 1;
        }
        let n = n.max(self.config.min_flows);

        let user_pool = ((volume_gbps * self.config.users_per_gbps) as u64).max(8);
        sizes::split_bytes(&mut rng, bytes_total, n, sizes);
        let hour_start = date.at_hour(hour);

        for &flow_bytes in sizes.iter() {
            let (server_asn, server_ip) = self.picker.server(app, &mut rng);
            let (client_asn, client_ip) = self.picker.client(vp, user_pool, &mut rng);
            let sig = self.picker.port_sig(app, &mut rng);
            let client_port = if sig.protocol.has_ports() {
                rng.range(32_768..61_000) as u16
            } else {
                0
            };
            let server_port = if sig.protocol.has_ports() {
                sig.port
            } else {
                0
            };

            // Downstream (server → client) dominates; symmetric classes
            // flip a fair coin, others send 1 in 8 flows upstream.
            let upstream = if is_symmetric(app) {
                rng.chance(0.5)
            } else {
                rng.chance(0.125)
            };
            let (key, src_as, dst_as) = if upstream {
                (
                    FlowKey {
                        src_addr: client_ip,
                        dst_addr: server_ip,
                        src_port: client_port,
                        dst_port: server_port,
                        protocol: sig.protocol,
                    },
                    client_asn.0,
                    server_asn.0,
                )
            } else {
                (
                    FlowKey {
                        src_addr: server_ip,
                        dst_addr: client_ip,
                        src_port: server_port,
                        dst_port: client_port,
                        protocol: sig.protocol,
                    },
                    server_asn.0,
                    client_asn.0,
                )
            };

            // Direction is relative to the observed network: meaningful at
            // the edge (ISP), not on an IXP fabric.
            let direction = match vp.kind() {
                VantageKind::Isp | VantageKind::Mobile | VantageKind::Edu => {
                    if upstream {
                        Direction::Egress
                    } else {
                        Direction::Ingress
                    }
                }
                _ => Direction::Unknown,
            };

            let start_off = rng.below(3_600);
            let start = hour_start.add_secs(start_off);
            let dur = sizes::duration_secs(&mut rng, (3_600 - start_off).max(1));
            let flags = if sig.protocol == IpProtocol::Tcp {
                TcpFlags::complete_connection()
            } else {
                TcpFlags::default()
            };
            let packets = sizes::packets_for(&mut rng, flow_bytes);

            out.push(
                FlowRecord::builder(key, start)
                    .end(start.add_secs(dur))
                    .bytes(flow_bytes)
                    .packets(packets)
                    .tcp_flags(flags)
                    .interfaces(1, 2)
                    .asns(src_as, dst_as)
                    .direction(direction)
                    .build(),
            );
        }
    }

    /// One full hour at a vantage point (all classes), appended to `out`:
    /// the day's facts are derived once for the cell's 23 classes.
    fn hour_into(&self, vp: VantagePoint, date: Date, hour: u8, out: &mut Vec<FlowRecord>) {
        let day = self.demand.day(vp, date);
        let mut sizes = Vec::new();
        for app in AppClass::ALL {
            self.class_into(&day, app, hour, &mut sizes, out);
        }
    }

    /// Generate one full hour at a vantage point (all classes).
    pub fn generate_hour(&self, vp: VantagePoint, date: Date, hour: u8) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        self.hour_into(vp, date, hour, &mut out);
        out
    }

    /// Generate one full day (24 hourly batches flattened).
    pub fn generate_day(&self, vp: VantagePoint, date: Date) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for hour in 0..24 {
            self.hour_into(vp, date, hour, &mut out);
        }
        out
    }

    /// Generate one plan cell into `out` (cleared first). Handles the
    /// streams this generator owns; [`Stream::Edu`] cells belong to
    /// [`crate::edu_gen::EduGenerator`] and panic here — route them
    /// through [`crate::plan::TraceEmitter`] instead.
    pub(crate) fn generate_cell(&self, cell: Cell, out: &mut Vec<FlowRecord>) {
        out.clear();
        match cell.stream {
            Stream::Vantage(vp) => self.hour_into(vp, cell.date, cell.hour, out),
            Stream::IspTransit => self.isp_transit_into(cell.date, cell.hour, out),
            Stream::Edu => panic!("EDU cells are generated by EduGenerator"),
        }
    }

    /// Visit every hour of a date range with a fresh flow batch, without
    /// materializing the whole trace (the Fig. 1/2 sweeps cover 140 days).
    /// Thin wrapper over a single-demand [`TracePlan`].
    pub fn for_each_hour<F>(&self, vp: VantagePoint, start: Date, end: Date, mut f: F)
    where
        F: FnMut(Date, u8, &[FlowRecord]),
    {
        let mut plan = TracePlan::new();
        plan.demand(Stream::Vantage(vp), start, end);
        let mut buf = Vec::new();
        for cell in plan.cells() {
            self.generate_cell(cell, &mut buf);
            f(cell.date, cell.hour, &buf);
        }
    }

    /// The ISP-CE's *transit* view of one hour, appended to `out`: per-AS
    /// traffic including both residential-facing and business-to-business
    /// flows.
    ///
    /// §3.4 uses "the ISP in Central Europe dataset, including its transit
    /// traffic" to classify ASes by workday/weekend ratio and compare total
    /// vs. residential volume shifts (Fig. 6). B2B volume declines under
    /// lockdown (offices empty) while the residential-facing share grows —
    /// with heavy per-AS idiosyncrasy, giving Fig. 6 its quadrant scatter.
    fn isp_transit_into(&self, date: Date, hour: u8, out: &mut Vec<FlowRecord>) {
        let mut rng = self.config.cell_rng(Stream::IspTransit, 0, date, hour);
        let i = self.demand.effective_intensity(VantagePoint::IspCe, date);
        let shape = shape(DiurnalProfile::BusinessHours, hour);
        let weekend_damp = if day_type(date, Region::CentralEurope).is_weekend_like() {
            0.3
        } else {
            1.0
        };
        let at = date.at_hour(hour);
        let mut sizes = Vec::new();
        for t in &self.transit {
            let res_gbps = t.base_res * shape * weekend_damp * (1.0 + t.res_delta * i).max(0.05);
            let b2b_gbps = t.base_b2b * shape * weekend_damp * (1.0 + t.b2b_delta * i).max(0.05);
            self.emit_transit_flows(t.net, res_gbps, true, &mut rng, at, &mut sizes, out);
            self.emit_transit_flows(t.net, b2b_gbps, false, &mut rng, at, &mut sizes, out);
        }
    }

    /// Emit flows between a business AS and either ISP subscribers
    /// (`residential`) or another business AS (B2B transit).
    #[allow(clippy::too_many_arguments)]
    fn emit_transit_flows(
        &self,
        (asn, prefixes): Net<'a>,
        gbps: f64,
        residential: bool,
        rng: &mut SplitMix,
        hour_start: Timestamp,
        sizes: &mut Vec<u64>,
        out: &mut Vec<FlowRecord>,
    ) {
        if gbps <= 0.0 {
            return;
        }
        let bytes_total = (gbps * BYTES_PER_GBPS_HOUR) as u64;
        let raw = (gbps * self.config.flows_per_gbps).max(1.0);
        let n = (raw as usize).max(1);
        sizes::split_bytes(rng, bytes_total, n, sizes);

        for &flow_bytes in sizes.iter() {
            let local_ip = Registry::host_in(prefixes, rng.below(64));
            let (peer_asn, peer_ip) = if residential {
                let (isp, prefixes) = self.picker.isp;
                (isp, Registry::host_in(prefixes, 1_000 + rng.below(5_000)))
            } else {
                // Another business AS: one of the cloud platforms.
                let (p, prefixes) = rng.pick(&self.picker.partners);
                (p, Registry::host_in(prefixes, rng.below(64)))
            };
            let start = hour_start.add_secs(rng.below(3_600));
            let outbound = rng.chance(0.5);
            let (src_ip, dst_ip, src_as, dst_as) = if outbound {
                (local_ip, peer_ip, asn.0, peer_asn.0)
            } else {
                (peer_ip, local_ip, peer_asn.0, asn.0)
            };
            out.push(
                FlowRecord::builder(
                    FlowKey {
                        src_addr: src_ip,
                        dst_addr: dst_ip,
                        src_port: 443,
                        dst_port: rng.range(32_768..61_000) as u16,
                        protocol: IpProtocol::Tcp,
                    },
                    start,
                )
                .end(start.add_secs(sizes::duration_secs(rng, 600)))
                .bytes(flow_bytes)
                .packets(sizes::packets_for(rng, flow_bytes))
                .tcp_flags(TcpFlags::complete_connection())
                .asns(src_as, dst_as)
                .direction(Direction::Unknown)
                .build(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_dns::corpus::synthesize;
    use lockdown_topology::registry::ISP_CE_ASN;

    fn setup() -> (Registry, Corpus) {
        let r = Registry::synthesize();
        let c = synthesize(&r, 7);
        (r, c)
    }

    fn total_bytes(flows: &[FlowRecord]) -> u64 {
        flows.iter().map(|f| f.bytes).sum()
    }

    #[test]
    fn hour_volume_matches_demand() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::with_seed(1));
        let date = Date::new(2020, 2, 19);
        let flows = g.generate_hour(VantagePoint::IspCe, date, 20);
        let expected: f64 = AppClass::ALL
            .iter()
            .map(|&a| g.demand.volume_gbps(VantagePoint::IspCe, a, date, 20))
            .sum::<f64>()
            * BYTES_PER_GBPS_HOUR;
        let actual = total_bytes(&flows) as f64;
        let err = (actual - expected).abs() / expected;
        assert!(err < 1e-6, "volume error {err}");
        assert!(flows.len() > 100, "too few flows: {}", flows.len());
    }

    #[test]
    fn deterministic_per_cell() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::with_seed(5));
        let date = Date::new(2020, 3, 25);
        let a = g.generate_hour(VantagePoint::IxpCe, date, 12);
        let b = g.generate_hour(VantagePoint::IxpCe, date, 12);
        assert_eq!(a, b);
        // Different hours differ.
        let c2 = g.generate_hour(VantagePoint::IxpCe, date, 13);
        assert_ne!(a, c2);
    }

    #[test]
    fn flows_fall_within_their_hour() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::with_seed(2));
        let date = Date::new(2020, 3, 25);
        let start = date.at_hour(9);
        let end = date.at_hour(10);
        for f in g.generate_hour(VantagePoint::IspCe, date, 9) {
            assert!(f.start >= start && f.start < end, "start out of hour");
            assert!(f.end <= end, "end spills past the hour");
        }
    }

    #[test]
    fn addresses_attributable_and_ports_canonical() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::with_seed(3));
        let flows = g.generate_hour(VantagePoint::IxpSe, Date::new(2020, 4, 1), 15);
        for f in &flows {
            assert_eq!(
                r.lookup(f.key.src_addr),
                Some(lockdown_topology::asn::Asn(f.src_as))
            );
            assert_eq!(
                r.lookup(f.key.dst_addr),
                Some(lockdown_topology::asn::Asn(f.dst_as))
            );
            if !f.key.protocol.has_ports() {
                assert_eq!((f.key.src_port, f.key.dst_port), (0, 0));
            }
        }
    }

    #[test]
    fn lockdown_raises_isp_volume() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::with_seed(4));
        // Compare same weekday pre/post lockdown, whole day.
        let pre: u64 = (0..24)
            .map(|h| total_bytes(&g.generate_hour(VantagePoint::IspCe, Date::new(2020, 2, 19), h)))
            .sum();
        let post: u64 = (0..24)
            .map(|h| total_bytes(&g.generate_hour(VantagePoint::IspCe, Date::new(2020, 3, 25), h)))
            .sum();
        let growth = post as f64 / pre as f64 - 1.0;
        assert!(
            (0.10..0.45).contains(&growth),
            "lockdown growth at ISP = {growth:.3}"
        );
    }

    #[test]
    fn vpn_tls_flows_hit_gateways() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::high_resolution(6));
        let mut out = Vec::new();
        g.generate_hour_class(
            VantagePoint::IxpCe,
            AppClass::VpnTls,
            Date::new(2020, 3, 25),
            11,
            &mut out,
        );
        assert!(!out.is_empty());
        for f in &out {
            let gw = if f.key.src_port == 443 {
                f.key.src_addr
            } else {
                f.key.dst_addr
            };
            assert!(
                c.truth.gateways.contains_key(&gw),
                "VpnTls endpoint {gw} is not a gateway"
            );
        }
    }

    #[test]
    fn transit_has_residential_and_b2b() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::with_seed(8));
        let mut flows = Vec::new();
        g.isp_transit_into(Date::new(2020, 2, 20), 11, &mut flows);
        assert!(!flows.is_empty());
        let res = flows
            .iter()
            .filter(|f| f.src_as == ISP_CE_ASN.0 || f.dst_as == ISP_CE_ASN.0)
            .count();
        let b2b = flows.len() - res;
        assert!(res > 0, "no residential-facing transit flows");
        assert!(b2b > 0, "no B2B transit flows");
    }

    #[test]
    fn b2b_declines_under_lockdown() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::with_seed(9));
        let sum_b2b = |d: Date| -> u64 {
            let mut flows = Vec::new();
            (8..18).for_each(|h| g.isp_transit_into(d, h, &mut flows));
            flows
                .into_iter()
                .filter(|f| f.src_as != ISP_CE_ASN.0 && f.dst_as != ISP_CE_ASN.0)
                .map(|f| f.bytes)
                .sum()
        };
        let pre = sum_b2b(Date::new(2020, 2, 19));
        let post = sum_b2b(Date::new(2020, 3, 25));
        assert!(
            (post as f64) < 0.9 * pre as f64,
            "B2B should decline: {post} vs {pre}"
        );
    }

    #[test]
    fn streaming_iteration_equals_batch() {
        let (r, c) = setup();
        let g = TrafficGenerator::new(&r, &c, GeneratorConfig::coarse(10));
        let date = Date::new(2020, 2, 20);
        let mut streamed = Vec::new();
        g.for_each_hour(VantagePoint::IxpUs, date, date, |_, _, flows| {
            streamed.extend_from_slice(flows)
        });
        let batch = g.generate_day(VantagePoint::IxpUs, date);
        assert_eq!(streamed, batch);
    }
}
