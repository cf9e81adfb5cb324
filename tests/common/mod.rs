//! Shared by the integration tests that drive a coordinated pass over
//! in-thread protocol workers: `equivalence.rs` (the passes that must
//! end byte-identical) and `wire_chaos.rs` (the ones that must end in a
//! named degraded outcome).

use lockdown::base::fault::FaultProfile as WireChaosConfig;
use lockdown::core::{Context, Fidelity};
use lockdown::shard::coord::{self, CoordOptions, Coordinated};
use lockdown::shard::worker::{serve_worker, WorkerExit};
use lockdown::wirechaos::TcpProxy;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

/// Generous per-cell watchdog: a cell that cannot finish inside this is
/// a hang, which is exactly what the protocol hardening forbids.
const WATCHDOG: Duration = Duration::from_secs(120);

pub fn ctx() -> Context {
    Context::new(Fidelity::Test)
}

/// Run `f` under the watchdog; a timeout is a hang and fails loudly.
pub fn watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
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
            panic!("cell {label:?} hung past {WATCHDOG:?}")
        }
    }
}

/// One coordinated pass, under the watchdog, over `workers` in-thread
/// protocol workers built from `opts.suite`; worker `i` sits behind its
/// own chaos proxy when `proxy(i)` says so. Returns the outcome and how
/// each worker ended (`Disconnected` for one the wire faults took down).
/// Panics only on coordinator errors outside the degraded contract.
pub fn coordinate(
    label: &str,
    opts: CoordOptions,
    workers: usize,
    proxy: impl Fn(usize) -> Option<WireChaosConfig> + Send + 'static,
) -> (Coordinated, Vec<WorkerExit>) {
    watchdog(label, move || {
        let mut addrs = Vec::with_capacity(workers);
        let mut proxies = Vec::new();
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
            let upstream = listener.local_addr().expect("worker addr");
            let suite_opts = opts.suite.clone();
            handles.push(std::thread::spawn(move || {
                serve_worker(&ctx(), &suite_opts, listener)
            }));
            match proxy(i) {
                Some(cfg) => {
                    let p = TcpProxy::start("127.0.0.1:0", upstream, cfg).expect("start proxy");
                    addrs.push(p.addr().to_string());
                    proxies.push(p);
                }
                None => addrs.push(upstream.to_string()),
            }
        }
        let links = coord::attach_workers(&addrs).expect("attach");
        let out = coord::coordinate(&ctx(), &opts, links).expect("coordinate");
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
    })
}

/// A degraded outcome must be *named*: the suite's own quarantine report.
pub fn assert_named_degraded(label: &str, out: &Coordinated) {
    let Some(report) = &out.suite.degraded else {
        panic!("{label}: {}", out.stats.summary());
    };
    assert!(!report.quarantined.is_empty(), "{label}: empty quarantine");
}
