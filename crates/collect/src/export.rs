//! Exporter-side feeder: the sending half of the socket plane as its own
//! entry point.
//!
//! [`SocketPlane`](crate::SocketPlane) keeps exporter and daemon in one
//! process, which is what the byte-identity tests want but not what a
//! deployment looks like. This module is the other topology: a *separate
//! process* (`lockdown export`) encodes synthetic flows through the real
//! [`ExporterFleet`] and pushes the datagrams at a running
//! `lockdown collectd` over the loopback wire. Conservation is then a
//! cross-process identity: the summary this side prints (records and
//! datagrams sent) must reconcile with the ingest summary the daemon
//! prints at drain — the CLI test diffs exactly those two lines.
//!
//! Routing contract: datagram for domain `d` goes to
//! `targets[d % targets.len()]`, the same rule [`crate::SocketPlane`]
//! uses, so per-domain ordering is preserved through one socket and one
//! shard queue.

use std::io;
use std::net::SocketAddr;

use lockdown_flow::exporter::ExportFormat;
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

use crate::fleet::ExporterFleet;
use crate::soak::soak_flows;
use crate::socket::SendSocket;
use crate::WireConfig;

/// Shape of one export run against a remote collectd.
#[derive(Debug, Clone)]
pub struct ExportConfig {
    /// Export format on the wire (must match the daemon's).
    pub format: ExportFormat,
    /// The daemon's bound socket addresses, in `listening on` order.
    pub targets: Vec<SocketAddr>,
    /// Cells (export sessions) to run.
    pub cells: usize,
    /// Flow records exported per cell.
    pub records_per_cell: usize,
    /// Records per datagram.
    pub batch_size: usize,
    /// Exporters (observation domains) per cell.
    pub exporters: usize,
}

impl ExportConfig {
    /// Defaults sized like the small soak: 2 cells × 20k records in
    /// 200-record batches from 2 domains.
    pub fn new(format: ExportFormat, targets: Vec<SocketAddr>) -> ExportConfig {
        ExportConfig {
            format,
            targets,
            cells: 2,
            records_per_cell: 20_000,
            batch_size: 200,
            exporters: 2,
        }
    }
}

/// What one export run put on the wire — the sender's half of the
/// cross-process conservation identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportSummary {
    /// Cells exported.
    pub cells: usize,
    /// Flow records encoded and sent.
    pub records_sent: u64,
    /// Datagrams sent.
    pub datagrams_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
}

impl ExportSummary {
    /// The one-line summary `lockdown export` prints; the CLI test
    /// reconciles it against the daemon's drain summary.
    pub fn render(&self) -> String {
        format!(
            "export: {} records in {} datagrams ({} bytes) over {} cells",
            self.records_sent, self.datagrams_sent, self.bytes_sent, self.cells
        )
    }
}

/// Encode and send every configured cell. Errors only on socket failure;
/// whether the datagrams *arrive* is the receiving daemon's ledger to
/// keep (that asymmetry is the point of the exercise).
pub fn run(cfg: &ExportConfig) -> io::Result<ExportSummary> {
    if cfg.targets.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "export needs at least one target address",
        ));
    }
    let sender = SendSocket::open()?;
    let mut summary = ExportSummary {
        cells: cfg.cells,
        records_sent: 0,
        datagrams_sent: 0,
        bytes_sent: 0,
    };
    let fleet_cfg = WireConfig {
        format: cfg.format,
        exporters: cfg.exporters,
        batch_size: cfg.batch_size,
        // Self-describing datagrams: the daemon decodes every arrival
        // without needing to have seen session start.
        template_refresh: 1,
        ..WireConfig::new()
    }
    .fleet_config();
    // One fleet for the whole run, booted before the anchor: its
    // sequences run on from cell to cell, as a router's do, so the
    // daemon's trackers see one session per domain. Cell `c`'s flows lie
    // in the `c`-th hour after the anchor.
    let anchor = Date::new(2020, 3, 25).midnight();
    let stream = Stream::Vantage(VantagePoint::IxpCe);
    let mut fleet = ExporterFleet::new(fleet_cfg, stream.wire_id(), anchor);
    for c in 0..cfg.cells {
        let start = anchor.add_secs(c as u64 * 3_600);
        let flows = soak_flows(cfg.records_per_cell, start);
        let now = flows
            .iter()
            .map(|f| f.end)
            .max()
            .unwrap_or(start)
            .add_secs(1);
        let (datagrams, truth) = fleet.export_cell(&flows, now);
        for dg in &datagrams {
            sender.send_to(
                &dg.bytes,
                cfg.targets[dg.domain as usize % cfg.targets.len()],
            )?;
            summary.bytes_sent += dg.bytes.len() as u64;
        }
        summary.records_sent += truth.sent_records;
        summary.datagrams_sent += truth.datagrams;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Collectd, CollectdConfig};
    use crate::metrics::CollectMetrics;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// In-process version of the two-process topology: a daemon on real
    /// sockets, an export run feeding it, counts reconciled at drain.
    #[test]
    fn export_run_reconciles_with_a_daemon() {
        let metrics = CollectMetrics::new();
        let mut dcfg = CollectdConfig::new(ExportFormat::Ipfix);
        dcfg.sockets = 2;
        dcfg.rcvbuf = Some(4 << 20);
        let mut daemon = Collectd::bind(&dcfg, Arc::clone(&metrics)).unwrap();

        let mut cfg = ExportConfig::new(ExportFormat::Ipfix, daemon.addrs().to_vec());
        cfg.cells = 1;
        cfg.records_per_cell = 5_000;
        let out = run(&cfg).expect("export over loopback");
        assert_eq!(out.records_sent, 5_000);
        assert!(out.datagrams_sent > 0);
        assert!(out.render().contains("export: 5000 records"));

        // Wait for the daemon to account everything sent, then drain.
        let t0 = Instant::now();
        while daemon.accounted() < out.datagrams_sent {
            assert!(t0.elapsed() < Duration::from_secs(10), "ingest timed out");
            std::thread::yield_now();
        }
        let cycle = daemon.close_cycle();
        assert_eq!(cycle.socket_received, out.datagrams_sent);
        assert_eq!(cycle.shards.totals().records_accepted, out.records_sent);
        daemon.shutdown();
    }
}
