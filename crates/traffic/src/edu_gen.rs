//! EDU vantage-point generation (§7).
//!
//! The educational network's traffic is structurally different from the
//! other vantage points — directionality is the story — so it gets its own
//! generator driven by [`EduModel`]: per-class connection counts (Fig. 12),
//! ingress/egress volume (Fig. 11), overseas-student night access, and the
//! 39% of flows whose direction cannot be determined (§7).

use crate::config::GeneratorConfig;
use crate::picker::{eyeballs, net, nets, Net};
use crate::plan::Stream;
use crate::sizes;
use lockdown_base::hash::SplitMix;
use lockdown_flow::protocol::{IpProtocol, TcpFlags};
use lockdown_flow::record::{Direction, FlowKey, FlowRecord};
use lockdown_flow::time::{Date, Timestamp};
use lockdown_scenario::diurnal::{shape, DiurnalProfile};
use lockdown_scenario::edu::{EduClass, EduModel};
use lockdown_scenario::measures::ScenarioSpec;
use lockdown_topology::asn::{AsCategory, Region};
use lockdown_topology::registry::{Registry, EDU_ASN, EDU_INSTITUTIONS, SPOTIFY_ASN};
use std::net::Ipv4Addr;

/// Scale factor from modelled connection counts to generated records.
/// Fig. 12 plots *relative* growth, so the factor cancels; it only trades
/// statistical smoothness against cost.
pub(crate) const CONN_SCALE: f64 = 1.0 / 1_500.0;

/// Cell-stream class ids beside the [`EduClass`] numbers: the
/// direction-unknown chaff, and the hour's byte split.
const CHAFF: u64 = 0xFF;
const VOLUME: u64 = 0xAB;

/// Port signature for one EDU traffic class (protocol, server port).
fn class_signature(class: EduClass, rng: &mut SplitMix) -> (IpProtocol, u16) {
    match class {
        EduClass::WebIn | EduClass::WebOut | EduClass::HypergiantWebOut => {
            (IpProtocol::Tcp, if rng.chance(0.85) { 443 } else { 80 })
        }
        EduClass::QuicOut => (IpProtocol::Udp, 443),
        EduClass::EmailIn => (
            IpProtocol::Tcp,
            rng.pick(&[993, 25, 587, 143, 465, 995, 110]),
        ),
        EduClass::VpnIn => {
            if rng.chance(0.15) {
                // Some institutional VPN rides ESP (Appendix B lists it).
                (IpProtocol::Esp, 0)
            } else {
                (IpProtocol::Udp, rng.pick(&[4500, 500, 1194]))
            }
        }
        EduClass::RemoteDesktopIn => (IpProtocol::Tcp, rng.pick(&[3389, 1494, 5938])),
        EduClass::SshIn => (IpProtocol::Tcp, 22),
        EduClass::PushNotifOut => (IpProtocol::Tcp, rng.pick(&[5223, 5228])),
        EduClass::SpotifyOut => (IpProtocol::Tcp, 4070),
    }
}

/// The EDU trace generator.
#[derive(Debug)]
pub struct EduGenerator<'a> {
    model: EduModel,
    config: GeneratorConfig,
    edu: Net<'a>,
    spotify: Net<'a>,
    national_eyeballs: Vec<Net<'a>>,
    overseas_eyeballs: Vec<Net<'a>>,
    hypergiants: Vec<Net<'a>>,
    web_servers: Vec<Net<'a>>,
}

impl<'a> EduGenerator<'a> {
    /// Build an EDU generator over the shared registry, calibrated to the
    /// default scenario, the shipped `scenarios/covid-spring-2020.toml`.
    pub(crate) fn new(registry: &'a Registry, config: GeneratorConfig) -> EduGenerator<'a> {
        EduGenerator::with_model(registry, config, EduModel::new())
    }

    /// Build an EDU generator whose model interprets `spec` instead of
    /// the default calibration. With
    /// [`ScenarioSpec::covid_spring_2020`] this is byte-identical to
    /// `EduGenerator::new`.
    pub fn with_scenario(
        registry: &'a Registry,
        config: GeneratorConfig,
        spec: &ScenarioSpec,
    ) -> EduGenerator<'a> {
        EduGenerator::with_model(registry, config, EduModel::from_spec(spec))
    }

    fn with_model(
        registry: &'a Registry,
        config: GeneratorConfig,
        model: EduModel,
    ) -> EduGenerator<'a> {
        let web_servers = registry
            .in_category(AsCategory::Cdn)
            .chain(registry.in_category(AsCategory::CloudProvider));
        EduGenerator {
            model,
            config,
            edu: net(registry, EDU_ASN),
            spotify: net(registry, SPOTIFY_ASN),
            national_eyeballs: eyeballs(registry, Region::SouthernEurope),
            // The paper's overseas students connect from Latin America and
            // North America; the US region stands in for both.
            overseas_eyeballs: eyeballs(registry, Region::UsEast),
            hypergiants: nets(registry, registry.in_category(AsCategory::Hypergiant)),
            web_servers: nets(registry, web_servers),
        }
    }

    /// Hourly weight (mean 1.0 across the day) for a class's connections.
    fn hour_weight(class: EduClass, remote: f64, hour: u8) -> f64 {
        if class.is_incoming() {
            // Incoming shifts from business hours toward a remote mix with
            // a visible overseas night component (§7: Latin-American users
            // peak at 3–4 am).
            let pre = shape(DiurnalProfile::BusinessHours, hour);
            let post = 0.65 * shape(DiurnalProfile::BusinessHours, hour)
                + 0.15 * shape(DiurnalProfile::ResidentialLockdown, hour)
                + 0.20 * shape(DiurnalProfile::OverseasNight, hour);
            (1.0 - remote) * pre + remote * post
        } else {
            // Outgoing connections track people on campus.
            shape(DiurnalProfile::Campus, hour)
        }
    }

    /// Generate one hour of EDU traffic.
    pub fn generate_hour(&self, date: Date, hour: u8) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        self.hour_into(date, hour, &mut out);
        out
    }

    /// One hour of EDU traffic, appended to `out`.
    pub(crate) fn hour_into(&self, date: Date, hour: u8, out: &mut Vec<FlowRecord>) {
        let first = out.len();
        let hour_start = date.at_hour(hour);
        let (ingress_gbps, egress_gbps) = self.model.volume_gbps(date, hour);
        // Facts of the day, not of a class or a flow.
        let remote = self.model.remote_activity(date);
        let presence = self.model.campus_presence(date);

        // Per-class connection records.
        let mut n_in = 0usize;
        let mut n_out = 0usize;
        for class in EduClass::ALL {
            let daily = self.model.daily_connections(class, date);
            let weight = Self::hour_weight(class, remote, hour);
            let mut rng = self.config.cell_rng(Stream::Edu, class as u64, date, hour);
            let raw = daily * CONN_SCALE * weight / 24.0;
            let mut n = raw.floor() as usize;
            if rng.chance((raw - n as f64).clamp(0.0, 1.0)) {
                n += 1;
            }
            if n == 0 {
                continue;
            }
            if class.is_incoming() {
                n_in += n;
            } else {
                n_out += n;
            }
            self.emit_class(class, n, (remote, presence), hour_start, &mut rng, out);
        }

        // Direction-unknown chaff: §7 cannot determine directionality for
        // 39% of flows. unknown / (unknown + known) = 0.39.
        let known = n_in + n_out;
        let n_unknown = ((known as f64) * 0.39 / 0.61).round() as usize;
        let mut rng = self.config.cell_rng(Stream::Edu, CHAFF, date, hour);
        self.emit_unknown(n_unknown, hour_start, &mut rng, out);

        // Attach volume: split the hour's ingress/egress bytes over the
        // flows of each direction so Fig. 11 recovers the volume story.
        let in_bytes = (ingress_gbps * crate::generate::BYTES_PER_GBPS_HOUR) as u64;
        let eg_bytes = (egress_gbps * crate::generate::BYTES_PER_GBPS_HOUR) as u64;
        let mut rng = self.config.cell_rng(Stream::Edu, VOLUME, date, hour);
        let mut sizes = Vec::new();
        for (direction, bytes) in [
            (Direction::Ingress, in_bytes),
            (Direction::Egress, eg_bytes),
        ] {
            distribute_bytes(&mut out[first..], direction, bytes, &mut rng, &mut sizes);
        }
    }

    /// Emit `n` connection records of one class; `(remote, presence)` are
    /// the day's remote-activity and campus-presence factors.
    fn emit_class(
        &self,
        class: EduClass,
        n: usize,
        (remote, presence): (f64, f64),
        hour_start: Timestamp,
        rng: &mut SplitMix,
        out: &mut Vec<FlowRecord>,
    ) {
        let hour = hour_start.hour();
        // Client origin correlates with the hour: overseas students (the
        // §7 Latin-American cohort) dominate the small hours once teaching
        // moves online, because of the time-zone offset.
        let w_dom = 0.65 * shape(DiurnalProfile::BusinessHours, hour)
            + 0.15 * shape(DiurnalProfile::ResidentialLockdown, hour);
        let w_ov = 0.20 * shape(DiurnalProfile::OverseasNight, hour);
        let overseas_now = w_ov / (w_dom + w_ov);
        let overseas_p = 0.05 * (1.0 - remote) + remote * overseas_now;
        let campus_pool = ((8_000.0 * presence) as u64).max(50);
        let (edu_asn, edu_prefixes) = self.edu;
        for _ in 0..n {
            let (protocol, server_port) = class_signature(class, rng);
            let start = hour_start.add_secs(rng.below(3_600));
            let flags = if protocol == IpProtocol::Tcp {
                TcpFlags::complete_connection()
            } else {
                TcpFlags::default()
            };
            let record = if class.is_incoming() {
                // External client → EDU server.
                let (ext_asn, ext_prefixes) = if rng.chance(overseas_p) {
                    rng.pick(&self.overseas_eyeballs)
                } else {
                    rng.pick(&self.national_eyeballs)
                };
                let ext_ip = Registry::host_in(ext_prefixes, 1_000 + rng.below(20_000));
                // A stable EDU-side server address for the class, spread
                // across the 16 institutions.
                let institution = rng.below(EDU_INSTITUTIONS as u64);
                let edu_ip = Registry::host_in(edu_prefixes, institution * 8 + class as u64 % 8);
                FlowRecord::builder(
                    FlowKey {
                        src_addr: ext_ip,
                        dst_addr: edu_ip,
                        src_port: if protocol.has_ports() {
                            rng.range(32_768..61_000) as u16
                        } else {
                            0
                        },
                        dst_port: if protocol.has_ports() { server_port } else { 0 },
                        protocol,
                    },
                    start,
                )
                .asns(ext_asn.0, edu_asn.0)
                .direction(Direction::Ingress)
            } else {
                // Campus client → external service.
                let campus_ip = Registry::host_in(edu_prefixes, 1_000 + rng.below(campus_pool));
                let (dst_asn, dst_prefixes) = match class {
                    EduClass::SpotifyOut => self.spotify,
                    EduClass::PushNotifOut | EduClass::HypergiantWebOut | EduClass::QuicOut => {
                        rng.pick(&self.hypergiants)
                    }
                    _ => {
                        if rng.chance(0.5) {
                            rng.pick(&self.hypergiants)
                        } else {
                            rng.pick(&self.web_servers)
                        }
                    }
                };
                let dst_ip = Registry::host_in(dst_prefixes, rng.below(64));
                FlowRecord::builder(
                    FlowKey {
                        src_addr: campus_ip,
                        dst_addr: dst_ip,
                        src_port: if protocol.has_ports() {
                            rng.range(32_768..61_000) as u16
                        } else {
                            0
                        },
                        dst_port: if protocol.has_ports() { server_port } else { 0 },
                        protocol,
                    },
                    start,
                )
                .asns(edu_asn.0, dst_asn.0)
                .direction(Direction::Egress)
            };
            out.push(
                record
                    .end(start.add_secs(sizes::duration_secs(rng, 300)))
                    .bytes(2_000) // placeholder; volume attached afterwards
                    .packets(6)
                    .tcp_flags(flags)
                    .build(),
            );
        }
    }

    /// Emit flows whose direction the §7 pipeline cannot determine:
    /// P2P-like traffic on unregistered high ports, marginal protocols.
    fn emit_unknown(
        &self,
        n: usize,
        hour_start: Timestamp,
        rng: &mut SplitMix,
        out: &mut Vec<FlowRecord>,
    ) {
        for _ in 0..n {
            let start = hour_start.add_secs(rng.below(3_600));
            let protocol = if rng.chance(0.8) {
                if rng.chance(0.5) {
                    IpProtocol::Udp
                } else {
                    IpProtocol::Tcp
                }
            } else {
                IpProtocol::Other(rng.range(90..130) as u8)
            };
            let edu_ip = Registry::host_in(self.edu.1, 1_000 + rng.below(8_000));
            let peer = Ipv4Addr::from(rng.range(0x0B00_0000..0x5F00_0000) as u32);
            let (src, dst) = if rng.chance(0.5) {
                (edu_ip, peer)
            } else {
                (peer, edu_ip)
            };
            out.push(
                FlowRecord::builder(
                    FlowKey {
                        src_addr: src,
                        dst_addr: dst,
                        src_port: if protocol.has_ports() {
                            rng.range(20_000..65_000) as u16
                        } else {
                            0
                        },
                        dst_port: if protocol.has_ports() {
                            rng.range(20_000..65_000) as u16
                        } else {
                            0
                        },
                        protocol,
                    },
                    start,
                )
                .end(start.add_secs(sizes::duration_secs(rng, 600)))
                .bytes(rng.range(500..50_000))
                .packets(rng.range(2..50))
                .direction(Direction::Unknown)
                .build(),
            );
        }
    }
}

/// Re-split `total_bytes` across all flows of one direction, heavy-tailed;
/// `sizes` is the caller's scratch buffer.
fn distribute_bytes(
    flows: &mut [FlowRecord],
    direction: Direction,
    total_bytes: u64,
    rng: &mut SplitMix,
    sizes: &mut Vec<u64>,
) {
    let n = flows.iter().filter(|f| f.direction == direction).count();
    if n == 0 {
        return;
    }
    sizes::split_bytes(rng, total_bytes, n, sizes);
    let of_direction = flows.iter_mut().filter(|f| f.direction == direction);
    for (flow, &bytes) in of_direction.zip(sizes.iter()) {
        flow.bytes = bytes.max(1);
        flow.packets = (bytes / 1_000).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_topology::asn::Asn;

    fn gen() -> (Registry, GeneratorConfig) {
        (Registry::synthesize(), GeneratorConfig::with_seed(11))
    }

    fn day_flows(g: &EduGenerator<'_>, date: Date) -> Vec<FlowRecord> {
        (0..24).flat_map(|h| g.generate_hour(date, h)).collect()
    }

    #[test]
    fn unknown_direction_share_is_39_percent() {
        let (r, cfg) = gen();
        let g = EduGenerator::new(&r, cfg);
        let flows = day_flows(&g, Date::new(2020, 3, 3));
        let unknown = flows
            .iter()
            .filter(|f| f.direction == Direction::Unknown)
            .count();
        let share = unknown as f64 / flows.len() as f64;
        assert!(
            (0.33..0.45).contains(&share),
            "unknown-direction share = {share:.3}"
        );
    }

    #[test]
    fn volume_matches_model() {
        let (r, cfg) = gen();
        let g = EduGenerator::new(&r, cfg);
        let date = Date::new(2020, 3, 3);
        let flows = g.generate_hour(date, 11);
        let in_bytes: u64 = flows
            .iter()
            .filter(|f| f.direction == Direction::Ingress)
            .map(|f| f.bytes)
            .sum();
        let (in_gbps, _) = g.model.volume_gbps(date, 11);
        let expected = in_gbps * crate::generate::BYTES_PER_GBPS_HOUR;
        let err = (in_bytes as f64 - expected).abs() / expected;
        assert!(err < 0.01, "ingress volume error {err}");
    }

    #[test]
    fn incoming_connections_double_after_lockdown() {
        let (r, cfg) = gen();
        let g = EduGenerator::new(&r, cfg);
        let count_in = |d: Date| {
            day_flows(&g, d)
                .iter()
                .filter(|f| f.direction == Direction::Ingress)
                .count() as f64
        };
        let base = count_in(Date::new(2020, 3, 4));
        let online = count_in(Date::new(2020, 4, 22));
        let growth = online / base;
        assert!((1.4..2.8).contains(&growth), "incoming growth {growth:.2}");
    }

    #[test]
    fn ssh_grows_most_among_incoming() {
        let (r, cfg) = gen();
        let g = EduGenerator::new(&r, cfg);
        let count = |d: Date, port: u16| {
            day_flows(&g, d)
                .iter()
                .filter(|f| f.key.dst_port == port && f.direction == Direction::Ingress)
                .count()
                .max(1) as f64
        };
        let ssh_growth = count(Date::new(2020, 4, 23), 22) / count(Date::new(2020, 2, 27), 22);
        let web_growth = count(Date::new(2020, 4, 23), 443) / count(Date::new(2020, 2, 27), 443);
        assert!(
            ssh_growth > 2.0 * web_growth,
            "SSH ({ssh_growth:.1}×) must outgrow web ({web_growth:.1}×)"
        );
    }

    #[test]
    fn spotify_collapses() {
        let (r, cfg) = gen();
        let g = EduGenerator::new(&r, cfg);
        let count = |d: Date| {
            day_flows(&g, d)
                .iter()
                .filter(|f| f.dst_as == SPOTIFY_ASN.0)
                .count() as f64
        };
        let base = count(Date::new(2020, 2, 27)).max(1.0);
        let online = count(Date::new(2020, 4, 23));
        assert!(
            online / base < 0.45,
            "Spotify outgoing should collapse: {}",
            online / base
        );
    }

    #[test]
    fn overseas_night_connections_appear() {
        let (r, cfg) = gen();
        let g = EduGenerator::new(&r, cfg);
        // 3 am connections from overseas eyeballs, before vs. after.
        let overseas_at_3am = |d: Date| {
            g.generate_hour(d, 3)
                .iter()
                .filter(|f| {
                    f.direction == Direction::Ingress
                        && r.get(Asn(f.src_as))
                            .map(|a| a.region == Region::UsEast)
                            .unwrap_or(false)
                })
                .count()
        };
        let pre: usize = (0..7)
            .map(|w| overseas_at_3am(Date::new(2020, 2, 20).add_days(w)))
            .sum();
        let post: usize = (0..7)
            .map(|w| overseas_at_3am(Date::new(2020, 4, 16).add_days(w)))
            .sum();
        assert!(
            post > pre,
            "overseas night access must rise: {pre} -> {post}"
        );
    }

    #[test]
    fn deterministic() {
        let (r, cfg) = gen();
        let g = EduGenerator::new(&r, cfg);
        let a = g.generate_hour(Date::new(2020, 3, 12), 10);
        let b = g.generate_hour(Date::new(2020, 3, 12), 10);
        assert_eq!(a, b);
    }
}
