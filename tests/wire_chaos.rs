//! The fault matrix: every wire-fault kind crossed with every plane
//! that speaks TCP or UDP, through the seeded chaos proxy. The
//! robustness contract under test is absolute:
//!
//! - every cell ends in **byte-identical output** or a **named degraded
//!   outcome** — never a hang (each cell runs under a watchdog), never
//!   a panic, never silently-wrong bytes;
//! - on the shard plane every injected flip is caught by the frame
//!   CRC (a corrupted slice can quarantine, but can never merge);
//! - a transient mid-frame connection cut is *resumed*: the worker's
//!   retained slice is re-adopted over a reconnect, with zero ranges
//!   recomputed and zero reassignments.

use lockdown::core::experiments::suite::{self, ShardSuiteOptions};
use lockdown::core::{Context, Fidelity};
use lockdown::query::{http::Response, QueryMetrics, Server};
use lockdown::shard::coord::{self, CoordOptions, Coordinated};
use lockdown::shard::worker::{serve_worker, WorkerExit};
use lockdown::wirechaos::{TcpProxy, UdpProxy, WireChaosConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::Duration;

/// Generous per-cell watchdog: a cell that cannot finish inside this is
/// a hang, which is exactly what the protocol hardening forbids.
const WATCHDOG: Duration = Duration::from_secs(120);

fn ctx() -> Context {
    Context::new(Fidelity::Test)
}

/// The single-process oracle, computed once.
fn reference() -> &'static Vec<String> {
    static REF: OnceLock<Vec<String>> = OnceLock::new();
    REF.get_or_init(|| suite::run_all(&ctx()).renders())
}

/// Run `f` under the watchdog; a timeout is a hang and fails loudly.
fn watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => {
            handle.join().expect("cell thread");
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The cell thread died without sending: propagate its panic
            // rather than misreporting an assertion failure as a hang.
            match handle.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(_) => unreachable!("cell dropped the channel without panicking"),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("fault-matrix cell {label:?} hung past {WATCHDOG:?}")
        }
    }
}

/// A protocol worker's join handle.
type WorkerHandle = std::thread::JoinHandle<Result<WorkerExit, lockdown::shard::ShardError>>;

/// Start `n` in-thread protocol workers, each behind its own chaos
/// proxy configured by `cfg(i)`. Returns the proxy addresses the
/// coordinator should attach to, the proxies (kept alive), and the
/// worker join handles.
fn workers_behind_proxies(
    n: usize,
    cfg: impl Fn(usize) -> WireChaosConfig,
) -> (Vec<String>, Vec<TcpProxy>, Vec<WorkerHandle>) {
    let mut addrs = Vec::with_capacity(n);
    let mut proxies = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        let upstream = listener.local_addr().expect("worker addr");
        let opts = ShardSuiteOptions::default();
        handles.push(std::thread::spawn(move || {
            serve_worker(&ctx(), &opts, listener)
        }));
        let proxy = TcpProxy::start("127.0.0.1:0", upstream, cfg(i)).expect("start proxy");
        addrs.push(proxy.addr().to_string());
        proxies.push(proxy);
    }
    (addrs, proxies, handles)
}

/// Run one coordinated pass through per-worker proxies and return the
/// outcome plus worker exits. Panics (named) only on coordinator-level
/// errors that are *not* part of the degraded contract.
fn coordinate_through(
    n: usize,
    cfg: impl Fn(usize) -> WireChaosConfig + Send + 'static,
) -> (Coordinated, Vec<WorkerExit>) {
    let (addrs, mut proxies, handles) = workers_behind_proxies(n, cfg);
    let links = coord::attach_workers(&addrs).expect("attach through proxy");
    let out = coord::coordinate(&ctx(), &CoordOptions::default(), links).expect("coordinate");
    for p in &mut proxies {
        p.shutdown();
    }
    let exits = handles
        .into_iter()
        .map(|h| {
            h.join()
                .expect("worker thread")
                .unwrap_or(WorkerExit::Disconnected)
        })
        .collect();
    (out, exits)
}

/// The terminal contract every cell must satisfy: byte-identical output
/// or a named degraded outcome.
fn assert_identical_or_degraded(label: &str, out: &Coordinated) {
    if out.is_degraded() {
        // Degraded is allowed — but it must be *named*: either the
        // suite's own quarantine report or the assembly-failure section.
        if let Some(suite) = &out.suite {
            let report = suite.degraded.as_ref().expect("degraded names its holes");
            assert!(!report.quarantined.is_empty(), "{label}: empty quarantine");
        } else {
            assert!(
                out.assembly_error.is_some(),
                "{label}: suite-less outcome must carry the assembly error"
            );
        }
    } else {
        assert_eq!(&out.renders(), reference(), "{label}: byte identity");
    }
}

// --- shard plane -----------------------------------------------------------

#[test]
fn shard_passthrough_proxy_is_byte_identical() {
    let (out, _) = watchdog("shard/passthrough", || {
        coordinate_through(2, |_| WireChaosConfig::zero())
    });
    assert!(!out.is_degraded(), "{}", out.stats.summary());
    assert_eq!(&out.renders(), reference());
    assert_eq!(out.stats.reconnects, 0, "{}", out.stats.summary());
}

#[test]
fn shard_split_writes_are_reassembled_byte_identically() {
    // Every chunk relayed one byte per write: the deadline reader must
    // reassemble frames across thousands of tiny reads without ever
    // resetting its whole-frame clock.
    let (out, _) = watchdog("shard/split", || {
        coordinate_through(2, |_| {
            let mut c = WireChaosConfig::zero();
            c.seed = 11;
            c.split = 1.0;
            c
        })
    });
    assert!(!out.is_degraded(), "{}", out.stats.summary());
    assert_eq!(&out.renders(), reference());
}

#[test]
fn shard_added_latency_is_absorbed_byte_identically() {
    let (out, _) = watchdog("shard/delay", || {
        coordinate_through(2, |_| {
            let mut c = WireChaosConfig::zero();
            c.seed = 5;
            c.delay = 0.3;
            c.delay_ms = 120; // well inside the 2s heartbeat budget
            c
        })
    });
    assert!(!out.is_degraded(), "{}", out.stats.summary());
    assert_eq!(&out.renders(), reference());
}

#[test]
fn shard_mid_frame_cut_resumes_the_retained_slice() {
    // Worker 0's proxy severs the first DONE frame halfway through —
    // a deterministic mid-frame connection reset. The coordinator must
    // redial, learn the retained range from HELLO_ACK, re-assign it and
    // adopt the cached outcome: byte-identical output, at least one
    // resumed range, zero reassignments (the wire failed; the work
    // never did).
    let (out, _) = watchdog("shard/cut", || {
        coordinate_through(2, |i| {
            let mut c = WireChaosConfig::zero();
            if i == 0 {
                c.cut_payload = 512; // larger than any control frame
            }
            c
        })
    });
    assert!(!out.is_degraded(), "{}", out.stats.summary());
    assert_eq!(&out.renders(), reference(), "resume must not change a byte");
    assert!(out.stats.reconnects >= 1, "{}", out.stats.summary());
    assert!(out.stats.ranges_resumed >= 1, "{}", out.stats.summary());
    assert_eq!(out.stats.reassignments, 0, "{}", out.stats.summary());
    assert_eq!(
        out.stats.assignments,
        out.stats.chunks,
        "every range computed exactly once: {}",
        out.stats.summary()
    );
}

#[test]
fn shard_certain_corruption_degrades_with_every_flip_caught() {
    // corrupt=1 over every chunk of at least 512 bytes: control frames
    // pass clean, every DONE (fresh or resumed-from-cache) arrives with
    // a flipped byte. The frame CRC must catch every single one — the
    // pass may degrade to quarantine, but corrupt bytes must never
    // merge into figures.
    let (out, _) = watchdog("shard/corrupt", || {
        coordinate_through(2, |_| {
            let mut c = WireChaosConfig::zero();
            c.seed = 3;
            c.corrupt = 1.0;
            c.min_len = 512;
            c
        })
    });
    assert!(out.is_degraded(), "{}", out.stats.summary());
    assert_identical_or_degraded("shard/corrupt", &out);
    assert!(out.stats.workers_lost >= 1, "{}", out.stats.summary());
}

#[test]
fn shard_random_truncation_ends_identical_or_degraded_never_hung() {
    // Probabilistic truncate-and-sever on bulk chunks: whether a given
    // seed recovers through reconnect-resume or exhausts the redial
    // budget and quarantines, the outcome must be one of the two named
    // terminal states, inside the watchdog.
    let (out, _) = watchdog("shard/trunc", || {
        coordinate_through(2, |_| {
            let mut c = WireChaosConfig::zero();
            c.seed = 17;
            c.trunc = 0.4;
            c.min_len = 512;
            c
        })
    });
    assert_identical_or_degraded("shard/trunc", &out);
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
