//! The fault matrix: every wire-fault kind crossed with every plane
//! that speaks TCP or UDP, through the seeded chaos proxy. The
//! robustness contract under test is absolute:
//!
//! - every cell ends in **byte-identical output** or a **named degraded
//!   outcome** — never a hang (each cell runs under a watchdog), never
//!   a panic, never silently-wrong bytes;
//! - on the shard plane every injected flip is caught by the frame
//!   CRC (a corrupted slice can quarantine, but can never merge);
//! - a range whose every replica died is quarantined, not retried
//!   forever and not a crash.
//!
//! The shard cells that must end byte-identical — pass-through, split
//! writes, added latency, the mid-frame cut that is *resumed* over a
//! reconnect, random truncation when it recovers — are rows of
//! `tests/equivalence.rs`, where the reference lives; the cells here end
//! degraded, or never touch the figures.

mod common;

use common::{assert_named_degraded, coordinate, ctx, watchdog};
use lockdown::base::fault::{
    FaultProfile as ChaosConfig, FaultProfile as WireChaosConfig, Schedule as ChaosInjector,
};
use lockdown::core::experiments::suite::{suite_shard_cell_count, ShardSuiteOptions};
use lockdown::core::serve::figure_names;
use lockdown::query::{http::Response, QueryMetrics, Server};
use lockdown::shard::coord::{chunk_ranges, CoordOptions, CHUNKS_PER_WORKER};
use lockdown::shard::worker::WorkerExit;
use lockdown::wirechaos::{TcpProxy, UdpProxy};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::time::Duration;

// --- shard plane -----------------------------------------------------------

#[test]
fn shard_certain_corruption_degrades_with_every_flip_caught() {
    // corrupt=1 over every chunk of at least 512 bytes: control frames
    // pass clean, every DONE (fresh or resumed-from-cache) arrives with
    // a flipped byte. The frame CRC must catch every single one — the
    // pass may degrade to quarantine, but corrupt bytes must never
    // merge into figures.
    let (out, _) = coordinate("shard/corrupt", CoordOptions::default(), 2, |_| {
        let mut c = WireChaosConfig::zero();
        c.seed = 3;
        c.corrupt = 1.0;
        c.min_len = 512;
        Some(c)
    });
    assert_named_degraded("shard/corrupt", &out);
    assert!(out.stats.workers_lost >= 1, "{}", out.stats.summary());
}

#[test]
fn a_fully_dead_range_degrades_instead_of_aborting() {
    let base = ShardSuiteOptions::default();
    let cells = suite_shard_cell_count(&ctx(), &base);
    let workers = 3;
    let ranges = chunk_ranges(cells, workers, CHUNKS_PER_WORKER);

    // attempts=1: a range whose only replica dies has exhausted its
    // budget — quarantined, not retried. Find a seed that kills exactly
    // one first attempt; skip seeds whose quarantined hole lands where
    // a figure's assembly cannot tolerate it (an empty classification
    // window asserts).
    'seed: for seed in 0..10_000u64 {
        let mut cfg = ChaosConfig::zero();
        cfg.seed = seed;
        cfg.wkill = 0.08;
        cfg.attempts = 1;
        let injector = ChaosInjector::new(cfg);
        let mut kills = 0;
        for &(s, e) in &ranges {
            let d = injector.decide_worker(s, e, 0);
            if d.stall {
                continue 'seed;
            }
            kills += u32::from(d.kill);
        }
        if kills != 1 {
            continue;
        }
        let mut opts = CoordOptions::default();
        opts.suite.chaos = cfg;
        let (out, exits) = coordinate("shard/dead-range", opts, workers, |_| None);

        assert!(exits.contains(&WorkerExit::ChaosKilled), "{exits:?}");
        assert_eq!(out.stats.workers_lost, 1, "{}", out.stats.summary());
        assert_eq!(out.stats.quarantined_ranges, 1, "{}", out.stats.summary());
        assert_eq!(out.stats.reassignments, 0, "{}", out.stats.summary());
        let report = out
            .suite
            .degraded
            .as_ref()
            .expect("a quarantined range must degrade");
        let sections = out.suite.renders();
        if let Some(section) = sections.iter().find(|s| s.contains(" not assembled — ")) {
            // This seed's hole was too large for a figure to assemble:
            // the coordinator must still return a *named* degraded
            // outcome (no crash), that figure's section naming why. Keep
            // searching for a seed whose hole the figures tolerate.
            assert!(section.starts_with("[degraded:"), "{section}");
            continue;
        }
        let rendered = report.render();
        assert!(rendered.contains("DEGRADED PASS"), "{rendered}");
        assert!(!report.quarantined.is_empty());
        assert!(
            report.quarantined.iter().all(|q| q.attempts == 1),
            "one replica, one attempt"
        );
        // The suite still renders every section — degraded, not aborted.
        assert_eq!(sections.len(), figure_names().len());
        return;
    }
    panic!("no seed in 0..10000 produced a renderable one-range quarantine");
}

// --- collect (UDP) plane ---------------------------------------------------

#[test]
fn udp_drop_dup_corrupt_conserve_datagrams_and_never_hang() {
    watchdog("udp/faults", || {
        let upstream = UdpSocket::bind("127.0.0.1:0").expect("bind receiver");
        upstream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        let mut cfg = WireChaosConfig::zero();
        cfg.seed = 29;
        cfg.drop = 0.2;
        cfg.dup = 0.2;
        cfg.corrupt = 0.2;
        let mut proxy = UdpProxy::start("127.0.0.1:0", upstream.local_addr().expect("addr"), cfg)
            .expect("start proxy");

        const SENT: u64 = 400;
        let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
        let proxy_addr = proxy.addr();
        // Send from a side thread and drain concurrently: letting the
        // full burst pile up in kernel socket buffers overflows them,
        // and pre-/post-proxy kernel drops are not the fault model
        // under test.
        let sender = std::thread::spawn(move || {
            for i in 0..SENT {
                // Payload = sequence number + CRC-checkable filler.
                let mut dg = i.to_be_bytes().to_vec();
                dg.extend_from_slice(&[0x5a; 56]);
                client.send_to(&dg, proxy_addr).expect("send");
                if i % 16 == 15 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });

        let mut received = 0u64;
        let mut corrupted_seen = 0u64;
        let mut buf = [0u8; 1500];
        while let Ok((n, _)) = upstream.recv_from(&mut buf) {
            received += 1;
            let filler_clean = buf[8..n].iter().all(|&b| b == 0x5a);
            let seq = u64::from_be_bytes(buf[..8].try_into().expect("8 bytes"));
            if !filler_clean || seq >= SENT {
                // A flipped byte is *visible* to the consumer — UDP has
                // no wire CRC here; the collect plane's own decoders are
                // what reject it (exercised in socket_collectd tests).
                corrupted_seen += 1;
            }
        }
        sender.join().expect("sender thread");

        let m = proxy.metrics();
        let seen = m.datagrams.get();
        let dropped = m.dropped.get();
        let duplicated = m.duplicated.get();
        let corrupted = m.corrupted.get();
        // Conservation over the proxy's own ledger: every datagram the
        // proxy saw was forwarded once, dropped, or forwarded twice —
        // nothing vanishes unaccounted inside the interposer.
        assert_eq!(received, seen - dropped + duplicated, "datagram ledger");
        assert!(
            seen >= SENT / 2,
            "paced burst mostly reached the proxy ({seen}/{SENT})"
        );
        assert!(
            dropped > 0 && duplicated > 0 && corrupted > 0,
            "all faults drawn"
        );
        assert!(corrupted_seen <= corrupted, "flips accounted by the proxy");
        proxy.shutdown();
    });
}

// --- query (HTTP) plane ----------------------------------------------------

fn http_get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())?;
    let mut out = String::new();
    s.read_to_string(&mut out)?;
    Ok(out)
}

/// A tiny figure server for the HTTP-plane cells.
fn start_http() -> Server {
    let metrics = QueryMetrics::new();
    let handler = std::sync::Arc::new(|req: &lockdown::query::http::Request| {
        Response::json(
            200,
            format!(
                "{{\"path\":\"{}\",\"pad\":\"{}\"}}",
                req.path,
                "f".repeat(2048)
            ),
        )
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind http");
    Server::start(listener, 16, metrics, handler).expect("start http")
}

#[test]
fn http_split_writes_deliver_identical_responses() {
    watchdog("http/split", || {
        let server = start_http();
        let mut cfg = WireChaosConfig::zero();
        cfg.seed = 41;
        cfg.split = 1.0;
        let mut proxy = TcpProxy::start("127.0.0.1:0", server.addr(), cfg).expect("proxy");

        let direct = http_get(server.addr(), "/figures/fig1").expect("direct GET");
        let proxied = http_get(proxy.addr(), "/figures/fig1").expect("proxied GET");
        assert_eq!(direct, proxied, "split relay must be byte-faithful");

        proxy.shutdown();
        server.shutdown(Duration::from_secs(2));
    });
}

#[test]
fn http_resets_and_corruption_leave_the_server_serving() {
    watchdog("http/hostile", || {
        let server = start_http();
        let mut cfg = WireChaosConfig::zero();
        cfg.seed = 43;
        cfg.reset = 0.3;
        cfg.corrupt = 0.3;
        let mut proxy = TcpProxy::start("127.0.0.1:0", server.addr(), cfg).expect("proxy");

        let direct_before = http_get(server.addr(), "/figures/fig1").expect("direct GET");
        let mut failures = 0usize;
        let mut clean = 0usize;
        for _ in 0..20 {
            match http_get(proxy.addr(), "/figures/fig1") {
                // A proxied response either matches the oracle exactly
                // or the client *observes* the fault (error, garbled
                // HTTP) — visible failure, never a silent wrong answer
                // that parses as a clean 200 with different content.
                Ok(body) if body == direct_before => clean += 1,
                Ok(_) | Err(_) => failures += 1,
            }
        }
        assert!(failures > 0, "chaos at 30% must bite within 20 requests");
        assert!(
            clean + failures == 20,
            "every request terminated inside its timeout"
        );

        // The server itself is unharmed: direct requests still answer
        // byte-identically after the bombardment.
        let direct_after = http_get(server.addr(), "/figures/fig1").expect("direct GET after");
        assert_eq!(direct_before, direct_after);

        proxy.shutdown();
        server.shutdown(Duration::from_secs(2));
    });
}
