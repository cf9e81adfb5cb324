//! Emit machine-readable wire-chaos proxy overhead numbers as JSON
//! (hand-formatted — no serialization dependency). Two measurements:
//!
//! 1. **Bulk relay throughput**: MiB/s streaming a fixed byte volume
//!    over loopback TCP, direct vs through a zero-chaos `TcpProxy`.
//!    Isolates the interposer's copy-loop cost from any protocol.
//! 2. **Shard-plane coordination**: a 2-worker coordinated suite pass,
//!    direct vs with every coordinator↔worker link routed through a
//!    zero-chaos proxy. The headline robustness-tax number: what the
//!    hardened protocol pays for an extra user-space hop.
//!
//! `scripts/verify.sh` writes the output to `BENCH_proxy.json` at the
//! repo root. Usage: `cargo run --release -p lockdown-bench --bin
//! proxy_json [--fidelity test|standard]` (prints to stdout).

use lockdown::base::fault::FaultProfile;
use lockdown::core::experiments::suite;
use lockdown::core::{Context, Fidelity};
use lockdown::shard::coord::{self, CoordOptions};
use lockdown::shard::worker::serve_worker;
use lockdown::wirechaos::TcpProxy;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Bytes streamed per bulk-relay pass. Large enough that steady-state
/// copy cost dominates connection setup.
const BULK_BYTES: usize = 64 * 1024 * 1024;

/// Write chunk for the bulk sender; matches the proxy's own copy size
/// order of magnitude so neither side artificially fragments.
const CHUNK: usize = 64 * 1024;

/// Stream `BULK_BYTES` to a discarding sink at `addr`; returns MiB/s.
fn bulk_pass(addr: &str) -> f64 {
    let mut tx = TcpStream::connect(addr).expect("connect sink");
    tx.set_nodelay(true).expect("nodelay");
    let chunk = vec![0x5au8; CHUNK];
    let t = Instant::now();
    let mut sent = 0usize;
    while sent < BULK_BYTES {
        let n = CHUNK.min(BULK_BYTES - sent);
        tx.write_all(&chunk[..n]).expect("bulk write");
        sent += n;
    }
    // Half-close, then wait for the sink to acknowledge the full count
    // back — the clock stops only once every byte went through.
    tx.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut ack = [0u8; 8];
    tx.read_exact(&mut ack).expect("sink ack");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(u64::from_be_bytes(ack), BULK_BYTES as u64, "sink count");
    (BULK_BYTES as f64 / (1024.0 * 1024.0)) / secs.max(1e-9)
}

/// A sink that drains one connection per call forever, replying with
/// the byte count it saw.
fn spawn_sink() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
    let addr = listener.local_addr().expect("sink addr").to_string();
    std::thread::spawn(move || {
        while let Ok((mut conn, _)) = listener.accept() {
            let mut buf = vec![0u8; CHUNK];
            let mut total = 0u64;
            loop {
                match conn.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => total += n as u64,
                    Err(_) => break,
                }
            }
            let _ = conn.write_all(&total.to_be_bytes());
        }
    });
    addr
}

/// One coordinated pass over `n` protocol-thread workers, optionally
/// with a zero-chaos proxy on every link; returns wall-clock seconds.
fn coordinated_pass(fidelity: Fidelity, opts: &CoordOptions, n: usize, proxied: bool) -> f64 {
    let mut addrs = Vec::with_capacity(n);
    let mut proxies = Vec::new();
    let mut handles = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let upstream = listener.local_addr().expect("bound");
        let sopts = opts.suite.clone();
        handles.push(std::thread::spawn(move || {
            serve_worker(&Context::new(fidelity), &sopts, listener).expect("worker protocol")
        }));
        if proxied {
            let proxy = TcpProxy::start("127.0.0.1:0", upstream, FaultProfile::zero())
                .expect("start proxy");
            addrs.push(proxy.addr().to_string());
            proxies.push(proxy);
        } else {
            addrs.push(upstream.to_string());
        }
    }
    let t = Instant::now();
    let links = coord::attach_workers(&addrs).expect("attach");
    let out = coord::coordinate(&Context::new(fidelity), opts, links).expect("coordinate");
    let secs = t.elapsed().as_secs_f64();
    assert!(
        out.suite.degraded.is_none(),
        "zero-chaos pass must be clean"
    );
    for h in handles {
        let _ = h.join();
    }
    secs
}

fn main() {
    let fidelity = match std::env::args().nth(2).as_deref() {
        Some("standard") => Fidelity::Standard,
        _ => Fidelity::Test,
    };
    let fidelity_name = match fidelity {
        Fidelity::Test => "test",
        Fidelity::Standard => "standard",
    };

    // Bulk relay: warm once, then measure direct and proxied.
    let sink = spawn_sink();
    let _ = bulk_pass(&sink);
    let direct_mibs = bulk_pass(&sink);
    let proxy = TcpProxy::start("127.0.0.1:0", sink.as_str(), FaultProfile::zero())
        .expect("start bulk proxy");
    let proxy_addr = proxy.addr().to_string();
    let _ = bulk_pass(&proxy_addr);
    let proxied_mibs = bulk_pass(&proxy_addr);
    drop(proxy);

    // Shard plane: warm the engine, then direct vs proxied 2-worker
    // coordinated passes.
    let opts = CoordOptions::default();
    let _ = suite::run_all(&Context::new(fidelity));
    let direct_secs = coordinated_pass(fidelity, &opts, 2, false);
    let proxied_secs = coordinated_pass(fidelity, &opts, 2, true);

    println!("{{");
    println!("  \"fidelity\": \"{fidelity_name}\",");
    println!("  \"bulk_mib\": {},", BULK_BYTES / (1024 * 1024));
    println!("  \"bulk_direct_mib_per_s\": {direct_mibs:.1},");
    println!("  \"bulk_proxied_mib_per_s\": {proxied_mibs:.1},");
    println!(
        "  \"bulk_overhead_pct\": {:.1},",
        (direct_mibs / proxied_mibs.max(1e-9) - 1.0) * 100.0
    );
    println!("  \"shard_2w_direct_secs\": {direct_secs:.4},");
    println!("  \"shard_2w_proxied_secs\": {proxied_secs:.4},");
    println!(
        "  \"shard_overhead_pct\": {:.1}",
        (proxied_secs / direct_secs.max(1e-9) - 1.0) * 100.0
    );
    println!("}}");
}
