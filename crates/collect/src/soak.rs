//! Socket-plane soak: push a sustained flow load through the real-UDP
//! collection daemon and prove the conservation audit closes at speed.
//!
//! The soak is the load-bearing acceptance check for `lockdown collectd`:
//! a localhost run must sustain at least a million flow records per
//! second end-to-end (export encode → UDP send → receiver fan-out →
//! shard decode → session close) while every datagram the run loses is
//! decomposed exactly into kernel, queue and truncation drops. The flows
//! themselves are synthetic — the soak measures the wire plane, not the
//! traffic model — but they ride the exact production path:
//! [`SocketPlane::process_audited`] with the audit ledger threaded through.

use std::io;
use std::net::Ipv4Addr;
use std::time::Instant;

use lockdown_flow::exporter::ExportFormat;
use lockdown_flow::protocol::IpProtocol;
use lockdown_flow::record::{FlowKey, FlowRecord};
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::{Cell, Stream};

use crate::audit::Ledger;
use crate::daemon::{CollectdConfig, SocketPlane};
use crate::WireConfig;

/// Soak-run shape: cells, per-cell load and daemon topology.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Export format on the wire.
    pub format: ExportFormat,
    /// Cells (daemon cycles) to run.
    pub cells: usize,
    /// Flow records exported per cell.
    pub records_per_cell: usize,
    /// Records per datagram (large batches amortize per-datagram cost).
    pub batch_size: usize,
    /// Receiver sockets.
    pub sockets: usize,
    /// Collector shards (worker threads).
    pub shards: usize,
    /// Bounded-queue capacity per shard.
    pub queue_capacity: usize,
    /// Kernel receive-buffer request (`SO_RCVBUF`) for every daemon
    /// socket; `None` keeps the kernel default.
    pub rcvbuf: Option<usize>,
}

impl SoakConfig {
    /// Default soak: 4 cells × 500k IPFIX records through 2 sockets and
    /// 4 shards — 2M records total, enough to time steady state without
    /// making CI wait.
    pub fn new() -> SoakConfig {
        SoakConfig {
            format: ExportFormat::Ipfix,
            cells: 4,
            records_per_cell: 500_000,
            batch_size: 200,
            sockets: 2,
            shards: 4,
            queue_capacity: 4_096,
            rcvbuf: None,
        }
    }
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig::new()
    }
}

/// What a soak run measured.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Export format used.
    pub format: ExportFormat,
    /// Cells run.
    pub cells: usize,
    /// Flow records exported.
    pub records_sent: u64,
    /// Datagrams that left the exporter fleet.
    pub datagrams_sent: u64,
    /// Records delivered out of session close.
    pub records_delivered: u64,
    /// Exactly-estimated records lost to dropped datagrams.
    pub records_lost_est: u64,
    /// Datagrams written off as kernel drops.
    pub kernel_dropped: u64,
    /// Datagrams rejected by full shard queues.
    pub queue_dropped: u64,
    /// Datagrams truncated at the receive buffer.
    pub truncated: u64,
    /// Kernel-granted `SO_RCVBUF` per daemon socket, in bytes.
    pub rcvbuf_bytes: u64,
    /// End-to-end wall clock, export encode through session close.
    pub secs: f64,
    /// Whether every conservation identity closed.
    pub audit_clean: bool,
}

impl SoakOutcome {
    /// Records per second, end to end.
    pub(crate) fn flows_per_sec(&self) -> f64 {
        self.records_sent as f64 / self.secs.max(1e-9)
    }

    /// Datagrams per second, end to end.
    pub(crate) fn datagrams_per_sec(&self) -> f64 {
        self.datagrams_sent as f64 / self.secs.max(1e-9)
    }

    /// Hand-formatted JSON (no serialization dependency), the shape
    /// `BENCH_collect.json` commits.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"format\": \"{:?}\",\n", self.format));
        s.push_str(&format!("  \"cells\": {},\n", self.cells));
        s.push_str(&format!("  \"records_sent\": {},\n", self.records_sent));
        s.push_str(&format!("  \"datagrams_sent\": {},\n", self.datagrams_sent));
        s.push_str(&format!(
            "  \"records_delivered\": {},\n",
            self.records_delivered
        ));
        s.push_str(&format!(
            "  \"records_lost_est\": {},\n",
            self.records_lost_est
        ));
        s.push_str(&format!("  \"kernel_dropped\": {},\n", self.kernel_dropped));
        s.push_str(&format!("  \"queue_dropped\": {},\n", self.queue_dropped));
        s.push_str(&format!("  \"truncated\": {},\n", self.truncated));
        s.push_str(&format!("  \"rcvbuf_bytes\": {},\n", self.rcvbuf_bytes));
        s.push_str(&format!("  \"secs\": {:.4},\n", self.secs));
        s.push_str(&format!(
            "  \"flows_per_sec\": {:.0},\n",
            self.flows_per_sec()
        ));
        s.push_str(&format!(
            "  \"datagrams_per_sec\": {:.0},\n",
            self.datagrams_per_sec()
        ));
        s.push_str(&format!("  \"audit_clean\": {}\n", self.audit_clean));
        s.push('}');
        s
    }
}

/// Synthetic soak flows: deterministic, key-diverse, one hour wide.
/// Shared with [`crate::export`] so a separate exporter process pushes
/// exactly the load the in-process soak does.
pub(crate) fn soak_flows(n: usize, hour: u8) -> Vec<FlowRecord> {
    let t = Date::new(2020, 3, 25).at_hour(hour);
    (0..n as u32)
        .map(|i| {
            FlowRecord::builder(
                FlowKey {
                    src_addr: Ipv4Addr::from(0xC000_0200 | (i % 4_093)),
                    dst_addr: Ipv4Addr::from(0x0A00_0000 | (i % 65_521)),
                    src_port: (1_024 + i % 60_000) as u16,
                    dst_port: if i % 3 == 0 { 443 } else { 80 },
                    protocol: if i % 4 == 0 {
                        IpProtocol::Udp
                    } else {
                        IpProtocol::Tcp
                    },
                },
                t.add_secs(u64::from(i % 3_000)),
            )
            .end(t.add_secs(u64::from(i % 3_000) + 30))
            .bytes(1_000 + u64::from(i % 9_000))
            .packets(2 + u64::from(i % 60))
            .build()
        })
        .collect()
}

/// Soak cell `c`: the `c`-th hour before the flows' hour (12, 2020-03-25),
/// so each has its own ledger entry and its exporters boot before the flows end.
fn soak_cell(c: usize) -> Cell {
    let hours = 12 - c as i64;
    Cell {
        stream: Stream::Vantage(VantagePoint::IxpCe),
        date: Date::new(2020, 3, 25).add_days(hours.div_euclid(24)),
        hour: hours.rem_euclid(24) as u8,
    }
}

/// Run a soak. Flow generation happens before the clock starts; the
/// timed region is the full wire path per cell.
pub fn run(cfg: &SoakConfig) -> io::Result<SoakOutcome> {
    let mut wire = WireConfig::new();
    wire.format = cfg.format;
    wire.batch_size = cfg.batch_size;
    wire.template_refresh = 1; // self-describing: loss accounting is exact
    wire.renormalize = false;

    let mut dcfg = CollectdConfig::new(cfg.format);
    dcfg.sockets = cfg.sockets;
    dcfg.shards = cfg.shards;
    dcfg.queue_capacity = cfg.queue_capacity;
    dcfg.rcvbuf = cfg.rcvbuf;

    let mut plane = SocketPlane::new(wire, dcfg)?;
    let flows = soak_flows(cfg.records_per_cell, 12);

    let mut ledger = Ledger::default();
    let t0 = Instant::now();
    for c in 0..cfg.cells {
        plane.process_audited(soak_cell(c), &flows, &mut ledger);
    }
    let secs = t0.elapsed().as_secs_f64();

    let audit = ledger.report();
    let m = plane.metrics();
    Ok(SoakOutcome {
        format: cfg.format,
        cells: cfg.cells,
        records_sent: m.exporter_records.get(),
        datagrams_sent: m.exporter_datagrams.get(),
        records_delivered: audit.totals.consumed.records,
        records_lost_est: m.collector_records_lost_est.get(),
        kernel_dropped: m.socket_datagrams_kernel_dropped.get(),
        queue_dropped: m.queue_datagrams_dropped.get(),
        truncated: m.socket_datagrams_truncated.get(),
        rcvbuf_bytes: m.socket_rcvbuf_bytes.get(),
        secs,
        audit_clean: audit.is_clean(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_closes_clean() {
        let mut cfg = SoakConfig::new();
        cfg.cells = 2;
        cfg.records_per_cell = 20_000;
        let out = run(&cfg).expect("soak binds on localhost");
        assert!(out.audit_clean, "soak audit must close");
        assert_eq!(out.records_sent, 40_000);
        assert_eq!(
            out.records_delivered + out.records_lost_est,
            out.records_sent,
            "every record accounted: delivered or exactly-estimated lost"
        );
        assert!(out.secs > 0.0);
        let json = out.render_json();
        assert!(json.contains("\"audit_clean\": true"));
        assert!(json.contains("\"records_sent\": 40000"));
    }

    #[test]
    fn every_soak_cell_is_its_own_ledger_cell() {
        let cells: std::collections::BTreeSet<_> = (0..48)
            .map(|c| (soak_cell(c).date, soak_cell(c).hour))
            .collect();
        assert_eq!(cells.len(), 48);
    }

    /// Uptime-relative formats refuse an export before boot: a day of
    /// soak cells must keep every exporter booted before the flows end.
    #[test]
    fn a_day_of_v5_soak_cells_closes_clean() {
        let mut cfg = SoakConfig::new();
        cfg.format = ExportFormat::NetflowV5;
        cfg.cells = 25;
        cfg.records_per_cell = 300;
        assert!(run(&cfg).expect("soak binds on localhost").audit_clean);
    }

    /// With a generously tuned `SO_RCVBUF` the flow-controlled soak must
    /// not lose a single datagram to the kernel: the buffer holds a full
    /// send window with room to spare, so `kernel_dropped` settles at 0.
    #[cfg(target_os = "linux")]
    #[test]
    fn generous_rcvbuf_soak_has_zero_kernel_drops() {
        let mut cfg = SoakConfig::new();
        cfg.cells = 2;
        cfg.records_per_cell = 20_000;
        cfg.rcvbuf = Some(4 << 20);
        let out = run(&cfg).expect("soak binds on localhost");
        assert!(out.rcvbuf_bytes > 0, "granted buffer is observable");
        assert_eq!(
            out.kernel_dropped, 0,
            "generous kernel buffer leaves no room for kernel drops"
        );
        assert!(out.audit_clean, "soak audit must close");
        assert!(out.render_json().contains("\"kernel_dropped\": 0"));
    }
}
