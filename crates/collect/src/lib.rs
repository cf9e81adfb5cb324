//! Wire-mode collection plane.
//!
//! The in-process pipeline hands generated [`FlowRecord`]s straight to the
//! analysis consumers. This crate inserts the measurement path a real
//! deployment has in between: per-stream *exporter fleets* encode each
//! engine cell onto the wire, a seeded fault-injecting *transport* drops,
//! duplicates and reorders datagrams, and sequence-tracking *collector
//! shards* decode what survives, detect losses and exporter restarts, and
//! renormalize the accepted records so downstream aggregates degrade
//! proportionally. An atomic [`metrics::CollectMetrics`] registry observes
//! every layer.
//!
//! Determinism contract: with a fixed [`FaultProfile`] the whole plane is
//! a pure function of cell content — figure output and the
//! metrics snapshot are identical across runs and worker counts, and with
//! [`FaultProfile::zero`] the delivered records are exactly the
//! generated ones, so wire-mode figures match in-process figures byte for
//! byte.

// `deny`, not `forbid`: the socket edge carries one scoped allowance for
// the raw `setsockopt`/`getsockopt` FFI pair behind `SO_RCVBUF` tuning
// (see `socket::sockopt`); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod audit;
pub mod daemon;
pub mod export;
pub mod fleet;
pub mod metrics;
mod queue;
pub mod shard;
pub mod soak;
pub mod socket;
mod stages;
pub mod transport;

use lockdown_base::hash::fold;
use lockdown_flow::prelude::*;
use lockdown_traffic::plan::Cell;

use audit::Ledger;
pub use daemon::{Collectd, CollectdConfig, Cycle, SocketPlane};
pub use export::ExportConfig;
pub use fleet::{DomainTruth, ExporterFleet, FleetConfig, WireDatagram};
pub use lockdown_base::fault::FaultProfile;
pub use metrics::CollectMetrics;
pub use shard::{CollectorShard, ShardSet};
pub use socket::{peek, SendSocket, MAX_UDP_PAYLOAD};
pub use stages::Plane;
pub use transport::Transport;

/// Initial constant of the cell key the transport's schedule is keyed
/// on, a fold of `(stream, day, hour)` (`lockdown_base::hash` tests hold
/// the vector).
const CELL_KEY_INIT: u64 = 0x51_7C_C1_B7_27_22_0A_95;

/// Configuration of the whole wire path.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// Export format used by every fleet.
    pub format: ExportFormat,
    /// Exporters per stream (each cell's flows are partitioned across them).
    pub exporters: usize,
    /// Records per datagram (v5 caps this at its packet maximum).
    pub batch_size: usize,
    /// Base template-refresh cadence; fleet member `i` refreshes every
    /// `base + i` datagrams. 0 announces templates only at session start
    /// (and after restarts).
    pub template_refresh: u32,
    /// Collector shards the observation domains are routed across.
    pub shards: usize,
    /// Injected transport faults, restart cadence and their seed (the
    /// profile's other planes are not this path's).
    pub faults: FaultProfile,
    /// Scale accepted records by estimated loss at session close so
    /// aggregates degrade proportionally instead of silently.
    pub renormalize: bool,
    /// Sequence value every exporter's first datagram carries. Non-zero
    /// values model long-lived exporters whose u32 counters sit anywhere,
    /// including just below the wrap.
    pub initial_sequence: u32,
    /// Extra seconds of boot age for every exporter; values above ~4.3M
    /// push the uptime clock past its 2^32 ms wrap.
    pub boot_age_secs: u64,
    /// In-band 1-in-N sampling at the exporters (`None`/1 exports all).
    pub sampling: Option<u32>,
}

impl WireConfig {
    /// Defaults: IPFIX, 4 exporters, batch 64, refresh every 8 datagrams,
    /// 4 shards, no faults, renormalization on.
    pub fn new() -> WireConfig {
        WireConfig {
            format: ExportFormat::Ipfix,
            exporters: 4,
            batch_size: 64,
            template_refresh: 8,
            shards: 4,
            faults: FaultProfile::zero(),
            renormalize: true,
            initial_sequence: 0,
            boot_age_secs: 0,
            sampling: None,
        }
    }

    /// The per-cell exporter-fleet configuration this wire path implies.
    pub fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            format: self.format,
            exporters: self.exporters,
            batch_size: self.batch_size,
            template_refresh: self.template_refresh,
            restart_every: self.faults.restart_every,
            initial_sequence: self.initial_sequence,
            boot_age_secs: self.boot_age_secs,
            sampling: self.sampling,
        }
    }
}

impl Default for WireConfig {
    fn default() -> WireConfig {
        WireConfig::new()
    }
}

/// The in-process transit: the seeded fault-injecting [`Transport`].
#[derive(Debug)]
pub struct Loopback;

/// The export → transport → collect path for engine cells, all in
/// process. `Sync`, so engine workers share one plane.
pub type CollectionPlane = Plane<Loopback>;

impl Plane<Loopback> {
    /// A plane with a fresh metrics registry.
    pub fn new(cfg: WireConfig) -> CollectionPlane {
        Plane {
            cfg,
            metrics: CollectMetrics::new(),
            transit: Loopback,
        }
    }

    /// [`CollectionPlane::process_audited`] into a scratch ledger: the
    /// unaudited form, which the benchmark harness times.
    pub fn process_cell(&self, cell: Cell, flows: &[FlowRecord]) -> Vec<FlowRecord> {
        self.process_audited(cell, flows, &mut Ledger::default())
    }

    /// Push one engine cell's flows through the wire, post its whole entry
    /// in `ledger` and return what the collector shards accepted (possibly
    /// renormalized under loss), which the entry holds as `consumed`.
    pub fn process_audited(
        &self,
        cell: Cell,
        flows: &[FlowRecord],
        ledger: &mut Ledger,
    ) -> Vec<FlowRecord> {
        let cfg = &self.cfg;
        let (datagrams, exported) = self.export(&cell, flows);

        let cell_key = fold(
            CELL_KEY_INIT,
            [
                u64::from(cell.stream.wire_id()),
                cell.date.day_number() as u64,
                u64::from(cell.hour),
            ],
        );
        let (delivered, tr) = Transport::new(cfg.faults, cell_key).deliver(datagrams);
        let m = &*self.metrics;
        m.transport_datagrams_delivered.add(tr.delivered);
        m.transport_datagrams_dropped.add(tr.dropped_datagrams);
        m.transport_records_dropped.add(tr.dropped_records);
        m.transport_datagrams_duplicated.add(tr.duplicated);
        m.transport_datagrams_reordered.add(tr.reordered);

        let mut shards = ShardSet::new(cfg.shards, cfg.format);
        for dg in &delivered {
            shards.ingest(dg);
        }
        self.collect(&cell, flows, exported, shards, ledger, |c| {
            c.delivered_datagrams += tr.delivered;
            c.dropped_datagrams += tr.dropped_datagrams;
            c.dropped.add(crate::audit::Counts {
                records: tr.dropped_records,
                bytes: tr.dropped_bytes,
                packets: tr.dropped_packets,
            });
            c.duplicated_datagrams += tr.duplicated;
            c.duplicated_records += tr.duplicated_records;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::protocol::IpProtocol;
    use lockdown_topology::vantage::VantagePoint;
    use lockdown_traffic::plan::Stream;
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn cell() -> Cell {
        Cell {
            stream: Stream::Vantage(VantagePoint::IxpCe),
            date: Date::new(2020, 3, 25),
            hour: 14,
        }
    }

    fn flows(n: u32) -> Vec<FlowRecord> {
        let t = Date::new(2020, 3, 25).at_hour(14);
        (0..n)
            .map(|i| {
                FlowRecord::builder(
                    FlowKey {
                        src_addr: Ipv4Addr::from(0xC000_0200 | (i % 251)),
                        dst_addr: Ipv4Addr::from(0x0A01_0000 | (i / 7)),
                        src_port: (1024 + i % 50_000) as u16,
                        dst_port: if i % 3 == 0 { 443 } else { 80 },
                        protocol: if i % 4 == 0 {
                            IpProtocol::Udp
                        } else {
                            IpProtocol::Tcp
                        },
                    },
                    t.add_secs(u64::from(i % 3_000)),
                )
                .end(t.add_secs(u64::from(i % 3_000) + 40))
                .bytes(1_400 + u64::from(i) * 17)
                .packets(3 + u64::from(i % 90))
                .build()
            })
            .collect()
    }

    fn key_multiset(records: &[FlowRecord]) -> HashMap<(FlowKey, u64, u64), u32> {
        let mut m = HashMap::new();
        for r in records {
            *m.entry((r.key, r.bytes, r.packets)).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn zero_faults_deliver_exactly_the_input() {
        for format in [
            ExportFormat::NetflowV5,
            ExportFormat::NetflowV9,
            ExportFormat::Ipfix,
        ] {
            let mut cfg = WireConfig::new();
            cfg.format = format;
            let plane = CollectionPlane::new(cfg);
            let input = flows(500);
            let out = plane.process_cell(cell(), &input);
            assert_eq!(out.len(), 500, "{format:?}");
            assert_eq!(
                key_multiset(&out),
                key_multiset(&input),
                "{format:?}: payloads must survive the wire untouched"
            );
            let m = plane.metrics();
            assert_eq!(m.collector_records_lost_est.get(), 0);
            assert_eq!(m.collector_sequence_gaps.get(), 0);
            assert_eq!(m.transport_datagrams_dropped.get(), 0);
        }
    }

    #[test]
    fn loss_estimate_matches_transport_ground_truth() {
        let mut cfg = WireConfig::new();
        // Template in every datagram: every delivered datagram is decodable
        // immediately, so sequence accounting must match the transport's
        // ground truth exactly.
        cfg.template_refresh = 1;
        cfg.renormalize = false;
        cfg.faults = FaultProfile {
            seed: 11,
            drop: 0.12,
            dup: 0.05,
            reorder: 0.08,
            ..FaultProfile::zero()
        };
        let plane = CollectionPlane::new(cfg);
        let input = flows(4_000);
        let out = plane.process_cell(cell(), &input);
        let m = plane.metrics();
        let dropped = m.transport_records_dropped.get();
        assert!(dropped > 0, "seeded loss should fire");
        assert_eq!(m.collector_records_lost_est.get(), dropped);
        assert_eq!(out.len() as u64 + dropped, 4_000);
        assert!(m.collector_sequence_gaps.get() > 0);
        assert!(m.collector_duplicates_rejected.get() > 0);
    }

    #[test]
    fn renormalization_conserves_volume_proportionally() {
        let mut cfg = WireConfig::new();
        cfg.template_refresh = 1;
        cfg.faults = FaultProfile {
            seed: 5,
            drop: 0.2,
            ..FaultProfile::zero()
        };
        let plane = CollectionPlane::new(cfg);
        let input = flows(4_000);
        let out = plane.process_cell(cell(), &input);
        let sent: u64 = input.iter().map(|r| r.bytes).sum();
        let got: u64 = out.iter().map(|r| r.bytes).sum();
        // Scaled-up survivors should land near the true volume. Whole
        // batches are dropped at a time, so the sampling error of the
        // estimate is a few percent; 10% bounds it comfortably.
        let err = (got as f64 - sent as f64).abs() / sent as f64;
        assert!(err < 0.10, "renormalized volume off by {:.1}%", err * 100.0);
        assert!(plane.metrics().collector_records_renormalized.get() > 0);
    }

    #[test]
    fn deterministic_per_seed_and_profile() {
        let mut cfg = WireConfig::new();
        cfg.faults = FaultProfile {
            seed: 3,
            drop: 0.1,
            dup: 0.1,
            reorder: 0.1,
            restart_every: 4,
            ..FaultProfile::zero()
        };
        let input = flows(1_000);
        let run = || {
            let plane = CollectionPlane::new(cfg);
            let out = plane.process_cell(cell(), &input);
            (out, plane.metrics().render())
        };
        let (a, ma) = run();
        let (b, mb) = run();
        assert_eq!(a, b);
        assert_eq!(ma, mb);
        let mut cfg2 = cfg;
        cfg2.faults.seed = 4;
        let plane = CollectionPlane::new(cfg2);
        let c = plane.process_cell(cell(), &input);
        assert_ne!(a, c, "a different seed must give a different schedule");
    }

    #[test]
    fn v9_restarts_are_detected() {
        let mut cfg = WireConfig::new();
        cfg.format = ExportFormat::NetflowV9;
        cfg.exporters = 2;
        cfg.faults.restart_every = 3;
        let plane = CollectionPlane::new(cfg);
        let input = flows(2_000);
        let out = plane.process_cell(cell(), &input);
        let m = plane.metrics();
        assert!(m.exporter_restarts.get() > 0);
        // Every restart except possibly one after a member's final datagram
        // is visible as a boot-epoch shift.
        assert!(m.collector_restarts_detected.get() > 0);
        assert!(m.collector_restarts_detected.get() <= m.exporter_restarts.get());
        // Restarted exporters re-announce templates at once, so nothing is
        // lost even though caches were flushed.
        assert_eq!(out.len(), 2_000);
        assert_eq!(m.collector_records_lost_est.get(), 0);
    }
}
