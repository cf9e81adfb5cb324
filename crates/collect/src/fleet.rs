//! Per-stream exporter fleets.
//!
//! One engine cell's flows are partitioned across `N` exporters — distinct
//! observation domains, boot times and template-refresh cadences — exactly
//! as a vantage point with several border routers would export them.
//! Partitioning is a stable FNV-1a hash of the flow key, so a flow always
//! leaves through the same exporter regardless of batch boundaries.
//!
//! The fleet also applies the profile's scheduled restarts: after every
//! `restart_every` datagrams an exporter reboots, resetting its uptime base
//! and re-announcing its template on the next datagram (sequence numbers
//! survive the reboot; collectors spot the boot-epoch shift instead).

use lockdown_flow::prelude::*;

/// One datagram leaving the fleet, tagged with its observation domain and
/// ground-truth record count (the tag models the exporter's source socket,
/// which real collectors use to demultiplex v5 streams that carry no
/// domain id in the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDatagram {
    /// Observation domain / source id of the emitting exporter.
    pub domain: u32,
    /// Ground-truth flow records inside this datagram.
    pub records: u32,
    /// Ground-truth sum of the flow-record byte counters inside this
    /// datagram (raw, pre-renormalization under sampled export).
    pub flow_bytes: u64,
    /// Ground-truth sum of the flow-record packet counters inside this
    /// datagram (raw, pre-renormalization under sampled export).
    pub flow_packets: u64,
    /// Encoded datagram bytes.
    pub bytes: Vec<u8>,
}

/// Ground truth about one observation domain's export session: where its
/// sequence counter started on the wire and how many units it really sent.
/// Collectors are closed against this — never against the wrapped u32
/// counter alone, which aliases every 2^32 units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainTruth {
    /// Observation domain / source id.
    pub domain: u32,
    /// Sequence value the first datagram carried (wire width).
    pub first_seq: u32,
    /// Unwrapped total sequence units the domain sent: flows (v5),
    /// packets (v9), records (IPFIX).
    pub units_sent: u64,
}

/// Ground truth about one cell's export session, used to close collector
/// sessions and to validate loss estimates.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FleetTruth {
    /// Records pushed through the fleet (equals the cell's flow count).
    pub sent_records: u64,
    /// Records the in-band samplers dropped before the wire (0 unless the
    /// fleet exports sampled).
    pub sampled_out: u64,
    /// Datagrams emitted.
    pub datagrams: u64,
    /// Scheduled restarts applied.
    pub restarts: u64,
    /// Per-domain session ground truth, in domain order.
    pub sessions: Vec<DomainTruth>,
}

/// Configuration for one cell's exporter fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Export format for every member.
    pub format: ExportFormat,
    /// Number of exporters the cell's flows are partitioned across.
    pub exporters: usize,
    /// Records per datagram (v5 caps this at its packet maximum).
    pub batch_size: usize,
    /// Base template-refresh cadence; member `i` refreshes every
    /// `base + i` datagrams so the fleet's cadences are distinct.
    pub template_refresh: u32,
    /// Restart each member after this many datagrams (0 = never).
    pub restart_every: u32,
    /// Sequence value every member's first datagram carries. Non-zero
    /// values model long-lived exporters joined mid-session, including
    /// counters about to wrap the u32 wire field.
    pub initial_sequence: u32,
    /// Extra seconds added to every member's boot age. Large values push
    /// the uptime clock past its 2^32 ms wrap (~49.7 days), exercising the
    /// wrap-aware timestamp path end to end.
    pub boot_age_secs: u64,
    /// In-band 1-in-N sampling for every member (v9/IPFIX only);
    /// `None`/1 exports everything.
    pub sampling: Option<u32>,
}

struct Member {
    exporter: Exporter,
    domain: u32,
    datagrams_emitted: u32,
    restarts: u64,
}

/// A fleet of exporters serving one engine cell.
pub struct ExporterFleet {
    members: Vec<Member>,
    restart_every: u32,
}

/// Stable FNV-1a hash of a flow key, used to pick the exporting member.
fn key_hash(key: &FlowKey) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in key.src_addr.octets() {
        eat(b);
    }
    for b in key.dst_addr.octets() {
        eat(b);
    }
    for b in key.src_port.to_be_bytes() {
        eat(b);
    }
    for b in key.dst_port.to_be_bytes() {
        eat(b);
    }
    eat(key.protocol.number());
    // FNV's multiply only carries entropy upward, so the low bits (which
    // `% n` consumes) mix poorly; finish with an avalanche (murmur3 fmix64).
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

impl ExporterFleet {
    /// Build the fleet for one cell of `stream_wire_id`, booting member `i`
    /// at `boot_base - (i + 1) hours` so uptimes are distinct.
    pub fn new(cfg: FleetConfig, stream_wire_id: u32, boot_base: Timestamp) -> ExporterFleet {
        assert!(cfg.exporters >= 1, "fleet needs at least one exporter");
        assert!(
            cfg.exporters < 256,
            "domain space allots 256 ids per stream"
        );
        let members = (0..cfg.exporters)
            .map(|i| {
                let domain = stream_wire_id * 256 + i as u32;
                let boot = Timestamp::from_unix(
                    boot_base
                        .unix()
                        .saturating_sub((i as u64 + 1) * 3_600 + cfg.boot_age_secs),
                );
                let mut ecfg = ExporterConfig::new(cfg.format, boot);
                ecfg.domain_id = domain;
                ecfg.initial_sequence = cfg.initial_sequence;
                ecfg.sampling = cfg.sampling;
                // The exporter clamps this to what one datagram holds.
                ecfg.batch_size = cfg.batch_size.max(1);
                if cfg.template_refresh > 0 {
                    ecfg.template_refresh = cfg.template_refresh + i as u32;
                } else {
                    ecfg.template_refresh = 0;
                }
                Member {
                    exporter: Exporter::new(ecfg),
                    domain,
                    datagrams_emitted: 0,
                    restarts: 0,
                }
            })
            .collect();
        ExporterFleet {
            members,
            restart_every: cfg.restart_every,
        }
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Export one cell's flows, returning the emitted datagrams (members in
    /// domain order, each member's datagrams in emission order) plus the
    /// session ground truth.
    pub fn export_cell(
        &mut self,
        flows: &[FlowRecord],
        now: Timestamp,
    ) -> (Vec<WireDatagram>, FleetTruth) {
        // One copy per flow: grouped by member here, each member's group
        // is then encoded chunk by chunk straight from its slice.
        let n = self.members.len();
        // The hash splits a cell near evenly; a quarter's slack spares all
        // but a lopsided group its reallocation.
        let mut groups: Vec<Vec<FlowRecord>> = (0..n)
            .map(|_| Vec::with_capacity(flows.len() / n * 5 / 4 + 4))
            .collect();
        for f in flows {
            let i = (key_hash(&f.key) % n as u64) as usize;
            if self.members[i].exporter.admit(f) {
                groups[i].push(*f);
            }
        }

        let mut out = Vec::new();
        let mut truth = FleetTruth {
            sent_records: flows.len() as u64,
            ..FleetTruth::default()
        };
        for (member, group) in self.members.iter_mut().zip(&groups) {
            for batch in group.chunks(member.exporter.config().batch_size) {
                out.push(WireDatagram {
                    domain: member.domain,
                    records: batch.len() as u32,
                    flow_bytes: batch.iter().map(|r| r.bytes).sum(),
                    flow_packets: batch.iter().map(|r| r.packets).sum(),
                    bytes: member.exporter.export_batch(batch, now),
                });
                member.datagrams_emitted += 1;
                if self.restart_every > 0
                    && member.datagrams_emitted.is_multiple_of(self.restart_every)
                {
                    member.exporter.restart(now);
                    member.restarts += 1;
                }
            }
            truth.restarts += member.restarts;
            truth.sampled_out += member.exporter.sampled_out();
            truth.sessions.push(DomainTruth {
                domain: member.domain,
                first_seq: member.exporter.initial_sequence(),
                units_sent: member.exporter.units_sent(),
            });
        }
        truth.datagrams = out.len() as u64;
        (out, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::protocol::IpProtocol;
    use std::net::Ipv4Addr;

    fn flows(n: u32, t: Timestamp) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| {
                FlowRecord::builder(
                    FlowKey {
                        src_addr: Ipv4Addr::from(0x0A00_0000 | i),
                        dst_addr: Ipv4Addr::new(198, 51, 100, 9),
                        src_port: (1024 + i % 40_000) as u16,
                        dst_port: 443,
                        protocol: IpProtocol::Tcp,
                    },
                    t,
                )
                .end(t.add_secs(30))
                .bytes(1_000 + u64::from(i))
                .packets(5)
                .build()
            })
            .collect()
    }

    fn cfg(format: ExportFormat) -> FleetConfig {
        FleetConfig {
            format,
            exporters: 4,
            batch_size: 16,
            template_refresh: 4,
            restart_every: 0,
            initial_sequence: 0,
            boot_age_secs: 0,
            sampling: None,
        }
    }

    #[test]
    fn partition_is_stable_and_complete() {
        let t = Date::new(2020, 3, 25).at_hour(10);
        let input = flows(200, t);
        let now = t.add_hours(1);
        let run = |input: &[FlowRecord]| {
            let mut fleet = ExporterFleet::new(cfg(ExportFormat::Ipfix), 3, t);
            fleet.export_cell(input, now)
        };
        let (dgs_a, truth_a) = run(&input);
        let (dgs_b, truth_b) = run(&input);
        assert_eq!(dgs_a, dgs_b, "export must be deterministic");
        assert_eq!(truth_a, truth_b);
        assert_eq!(truth_a.sent_records, 200);
        let per_dg: u64 = dgs_a.iter().map(|d| u64::from(d.records)).sum();
        assert_eq!(per_dg, 200, "record tags must cover every flow");
        let tag_bytes: u64 = dgs_a.iter().map(|d| d.flow_bytes).sum();
        let true_bytes: u64 = input.iter().map(|f| f.bytes).sum();
        assert_eq!(tag_bytes, true_bytes, "byte tags must cover every flow");
        let tag_packets: u64 = dgs_a.iter().map(|d| d.flow_packets).sum();
        assert_eq!(tag_packets, 200 * 5, "packet tags must cover every flow");
        // All four domains participate for a 200-flow cell.
        let mut domains: Vec<u32> = dgs_a.iter().map(|d| d.domain).collect();
        domains.dedup();
        assert_eq!(domains, vec![768, 769, 770, 771]);
    }

    #[test]
    fn session_truth_counts_format_units() {
        let t = Date::new(2020, 3, 25).at_hour(10);
        let input = flows(100, t);
        let now = t.add_hours(1);
        // IPFIX counts records: per-domain unit totals sum to the flow count.
        let mut fleet = ExporterFleet::new(cfg(ExportFormat::Ipfix), 1, t);
        let (_, truth) = fleet.export_cell(&input, now);
        assert_eq!(
            truth.sessions.iter().map(|s| s.units_sent).sum::<u64>(),
            100
        );
        // v9 counts packets: unit totals sum to the datagram count.
        let mut fleet = ExporterFleet::new(cfg(ExportFormat::NetflowV9), 1, t);
        let (dgs, truth) = fleet.export_cell(&input, now);
        assert_eq!(
            truth.sessions.iter().map(|s| s.units_sent).sum::<u64>(),
            dgs.len() as u64
        );
        assert!(truth.sessions.iter().all(|s| s.first_seq == 0));
    }

    #[test]
    fn session_truth_survives_sequence_wrap() {
        let t = Date::new(2020, 3, 25).at_hour(10);
        let input = flows(100, t);
        let now = t.add_hours(1);
        let mut c = cfg(ExportFormat::Ipfix);
        c.exporters = 1;
        c.initial_sequence = u32::MAX - 40;
        let mut fleet = ExporterFleet::new(c, 1, t);
        let (_, truth) = fleet.export_cell(&input, now);
        // The u32 wire counter wraps mid-session; the truth does not.
        assert_eq!(truth.sessions.len(), 1);
        assert_eq!(truth.sessions[0].first_seq, u32::MAX - 40);
        assert_eq!(truth.sessions[0].units_sent, 100);
    }

    #[test]
    fn restarts_fire_on_schedule() {
        let t = Date::new(2020, 3, 25).at_hour(10);
        let input = flows(160, t);
        let now = t.add_hours(1);
        let mut c = cfg(ExportFormat::Ipfix);
        c.exporters = 1;
        c.restart_every = 3;
        let mut fleet = ExporterFleet::new(c, 3, t);
        let (dgs, truth) = fleet.export_cell(&input, now);
        // 160 flows / batch 16 = 10 datagrams; restarts after #3, #6, #9.
        assert_eq!(dgs.len(), 10);
        assert_eq!(truth.restarts, 3);
    }
}
