//! Socket-plane acceptance: the real-UDP collection daemon must be
//! indistinguishable from the in-process loopback transport on zero-loss
//! runs, and must account every drop it does take — at the kernel, at a
//! shard queue, or as a truncated read — exactly.

use std::io::ErrorKind;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use lockdown::base::fault::{FaultProfile, Plane};
use lockdown::collect::daemon::{Collectd, CollectdConfig, SocketPlane};
use lockdown::collect::{CollectMetrics, CollectionPlane, SendSocket, WireConfig};
use lockdown::flow::exporter::ExportFormat;
use lockdown::flow::netflow::v5;
use lockdown::flow::prelude::*;
use lockdown::flow::time::Date;
use lockdown::topology::vantage::VantagePoint;
use lockdown::traffic::plan::{Cell, Stream};

fn cell(hour: u8) -> Cell {
    Cell {
        stream: Stream::Vantage(VantagePoint::IxpCe),
        date: Date::new(2020, 3, 25),
        hour,
    }
}

fn flows(n: u32, hour: u8) -> Vec<FlowRecord> {
    let t = Date::new(2020, 3, 25).at_hour(hour);
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

#[test]
fn zero_loss_socket_runs_are_byte_identical_to_loopback() {
    for format in [
        ExportFormat::NetflowV5,
        ExportFormat::NetflowV9,
        ExportFormat::Ipfix,
    ] {
        let mut cfg = WireConfig::new();
        cfg.format = format;

        let loopback = CollectionPlane::new(cfg);
        let mut socket =
            SocketPlane::new(cfg, CollectdConfig::new(format)).expect("daemon binds on localhost");

        // Two cells through the same daemon: cycle isolation must hold.
        for hour in [14u8, 15] {
            let input = flows(700, hour);
            let via_loopback = loopback.process_cell(cell(hour), &input);
            let via_socket = socket.process_cell(cell(hour), &input);
            assert_eq!(
                via_loopback, via_socket,
                "{format:?} hour {hour}: socket output must be byte-identical to loopback"
            );
            loopback.note_consumed(&cell(hour), &via_loopback);
            socket.note_consumed(&cell(hour), &via_socket);
        }

        let audit = socket.audit_report();
        assert!(
            audit.is_clean(),
            "{format:?} socket audit violated conservation:\n{}",
            audit.render()
        );
        assert_eq!(audit.totals.socket_cells, 2);
        assert_eq!(audit.totals.socket_kernel_dropped, 0);
        assert_eq!(audit.totals.socket_queue_dropped, 0);
        assert_eq!(audit.totals.socket_truncated, 0);
        let m = socket.metrics();
        assert_eq!(m.socket_datagrams_kernel_dropped.get(), 0, "{format:?}");
        assert_eq!(m.queue_datagrams_dropped.get(), 0, "{format:?}");
        assert_eq!(m.socket_datagrams_truncated.get(), 0, "{format:?}");
        assert_eq!(
            m.socket_datagrams_received.get(),
            m.exporter_datagrams.get(),
            "{format:?}: every exported datagram crossed the socket"
        );
        let loop_audit = loopback.audit_report();
        assert!(loop_audit.is_clean());
        assert_eq!(loop_audit.totals.socket_cells, 0);
    }
}

/// The kernel is the socket plane's transport: a datagram fault in the
/// profile is refused by name, not silently ignored, and the exporter
/// restart cadence is honoured.
#[test]
fn socket_plane_refuses_datagram_faults_and_honours_restarts() {
    for key in ["drop", "dup", "reorder"] {
        let mut cfg = WireConfig::new();
        let spec = format!("{key}=0.1");
        cfg.faults = FaultProfile::parse(&spec, "test", &[Plane::Wire, Plane::Datagram]).unwrap();
        let err = SocketPlane::new(cfg, CollectdConfig::new(cfg.format))
            .err()
            .expect(key);
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{key}");
        assert!(err.to_string().contains(&spec), "{key}: {err}");
    }
    let mut cfg = WireConfig::new();
    cfg.faults.restart_every = 3;
    let mut plane = SocketPlane::new(cfg, CollectdConfig::new(cfg.format)).expect("binds");
    let out = plane.process_cell(cell(14), &flows(700, 14));
    plane.note_consumed(&cell(14), &out);
    assert!(plane.metrics().exporter_restarts.get() > 0);
    assert!(plane.audit_report().is_clean());
}

#[test]
fn oversized_datagram_is_counted_truncated_and_never_decoded() {
    // Regression: a datagram larger than the receive buffer must become a
    // counted truncation with its claimed record count attributed — not a
    // silent mis-decode of the surviving prefix.
    let metrics = CollectMetrics::new();
    let mut dcfg = CollectdConfig::new(ExportFormat::NetflowV5);
    dcfg.sockets = 1;
    dcfg.recv_buf_len = 256; // test hook: makes >256-byte datagrams truncate
    let mut daemon = Collectd::bind(&dcfg, std::sync::Arc::clone(&metrics)).unwrap();
    let addr = daemon.addrs()[0];

    let boot = Date::new(2020, 3, 25).midnight();
    let start = boot.add_hours(1);
    let records: Vec<FlowRecord> = flows(10, 1);
    let oversized = v5::encode_with_engine(&records, start.add_secs(60), boot, 5, 0x0007);
    assert!(
        oversized.len() > 256,
        "10 v5 records exceed the test buffer"
    );

    let tx = SendSocket::open().unwrap();
    tx.send_to(&oversized, addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.accounted() < 1 {
        assert!(Instant::now() < deadline, "daemon never accounted the send");
        std::thread::yield_now();
    }

    let cycle = daemon.close_cycle();
    assert_eq!(cycle.socket_received, 1);
    assert_eq!(cycle.truncated_datagrams, 1);
    assert_eq!(
        cycle.truncated_records, 10,
        "the intact v5 header prefix attributes the claimed record count"
    );
    let t = cycle.shards.totals();
    assert_eq!(t.datagrams, 0, "a truncated datagram must never be decoded");
    assert_eq!(t.records_accepted, 0);
    assert_eq!(t.malformed, 0, "truncation is not misreported as malformed");
    assert_eq!(metrics.socket_datagrams_truncated.get(), 1);
    assert_eq!(metrics.socket_records_truncated.get(), 10);
    daemon.shutdown();
}

#[test]
fn tiny_queue_run_closes_conservation_with_drops_decomposed() {
    // A one-slot queue under a 32-datagram send window makes queue drops
    // likely (not guaranteed — the workers race the receivers); whatever
    // happens, every conservation identity must close, with any datagram
    // loss decomposed exactly into kernel + queue + truncated.
    let mut cfg = WireConfig::new();
    cfg.format = ExportFormat::Ipfix;
    cfg.template_refresh = 1; // self-describing: loss accounting is exact
    cfg.batch_size = 8;
    cfg.renormalize = false;
    let mut dcfg = CollectdConfig::new(cfg.format);
    dcfg.queue_capacity = 1;
    dcfg.shards = 2;
    let mut plane = SocketPlane::new(cfg, dcfg).expect("daemon binds on localhost");

    let input = flows(4_000, 14);
    let out = plane.process_cell(cell(14), &input);
    plane.note_consumed(&cell(14), &out);
    let audit = plane.audit_report();
    assert!(
        audit.is_clean(),
        "conservation must close even under backpressure:\n{}",
        audit.render()
    );
    let m = plane.metrics();
    let dropped_sites = m.socket_datagrams_kernel_dropped.get()
        + m.queue_datagrams_dropped.get()
        + m.socket_datagrams_truncated.get();
    let delivered = out.len() as u64;
    assert!(delivered <= 4_000);
    // Accepted plus exactly-estimated loss covers the whole input.
    assert_eq!(delivered + m.collector_records_lost_est.get(), 4_000);
    // The audit saw the same decomposition the metrics did.
    assert_eq!(audit.totals.socket_kernel_dropped, {
        m.socket_datagrams_kernel_dropped.get()
    });
    assert_eq!(
        audit.totals.socket_queue_dropped
            + audit.totals.socket_kernel_dropped
            + audit.totals.socket_truncated,
        dropped_sites
    );
}
