//! The TCP interposer: accept, dial upstream, relay chunks through the
//! fault schedule.
//!
//! One proxy is one listener plus two pump threads per accepted
//! connection (one per direction). A pump reads up to [`CHUNK_LEN`]
//! bytes, asks the [`Schedule`] what to do with chunk `i` of its
//! `(connection, direction)`, and relays, mangles, delays or severs
//! accordingly. Clean EOF propagates as a write-side shutdown so
//! half-closed protocols still drain; severing faults shut down both
//! sockets in both directions so each end observes the failure rather
//! than waiting on a ghost.

use crate::ProxyMetrics;
use lockdown_base::fault::{ChunkFault, FaultProfile, Schedule};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll tick for stoppable blocking operations.
const POLL: Duration = Duration::from_millis(20);

/// Relay buffer size: one proxied "chunk" is one `read` into this much.
const CHUNK_LEN: usize = 64 << 10;

/// Client → upstream or back; the value is a schedule key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up = 0,
    Down = 1,
}

/// A running TCP wire-chaos proxy.
#[derive(Debug)]
pub struct TcpProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    metrics: Arc<ProxyMetrics>,
}

impl TcpProxy {
    /// Bind `listen`, and relay every accepted connection to `upstream`
    /// through the fault schedule of `cfg`.
    pub fn start(
        listen: impl ToSocketAddrs,
        upstream: impl ToSocketAddrs,
        cfg: FaultProfile,
    ) -> io::Result<TcpProxy> {
        let listener = TcpListener::bind(listen)?;
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("upstream resolved to no address"))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = ProxyMetrics::new();
        let schedule = Schedule::new(cfg);
        // The deterministic cut-payload fault fires at most once per
        // proxy lifetime: its threshold, zeroed when it fires.
        let cut = Arc::new(AtomicUsize::new(cfg.cut_payload));

        let accept = {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let cut = Arc::clone(&cut);
            std::thread::spawn(move || {
                let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                let mut conn_id = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _peer)) => {
                            metrics.connections.inc();
                            match TcpStream::connect(upstream) {
                                Ok(server) => {
                                    let _ = client.set_nodelay(true);
                                    let _ = server.set_nodelay(true);
                                    spawn_pumps(
                                        &mut pumps, client, server, conn_id, schedule, &metrics,
                                        &stop, &cut,
                                    );
                                }
                                // Upstream refused: dropping the client
                                // socket is the honest relay of that.
                                Err(_) => drop(client),
                            }
                            conn_id += 1;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                for pump in pumps {
                    let _ = pump.join();
                }
            })
        };

        Ok(TcpProxy {
            addr,
            stop,
            accept: Some(accept),
            metrics,
        })
    }

    /// The address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live fault tallies.
    pub fn metrics(&self) -> Arc<ProxyMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop accepting, sever nothing, and join every pump. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for TcpProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the two per-direction pump threads for one connection.
#[allow(clippy::too_many_arguments)]
fn spawn_pumps(
    pumps: &mut Vec<JoinHandle<()>>,
    client: TcpStream,
    server: TcpStream,
    conn: u64,
    schedule: Schedule,
    metrics: &Arc<ProxyMetrics>,
    stop: &Arc<AtomicBool>,
    cut: &Arc<AtomicUsize>,
) {
    // A severing fault in either pump must kill both directions; the
    // shared flag is how the surviving pump learns.
    let dead = Arc::new(AtomicBool::new(false));
    let up = Pump {
        src: match client.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
        dst: match server.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
        dir: Direction::Up,
        conn,
        schedule,
        metrics: Arc::clone(metrics),
        stop: Arc::clone(stop),
        dead: Arc::clone(&dead),
        cut: Arc::clone(cut),
    };
    let down = Pump {
        src: server,
        dst: client,
        dir: Direction::Down,
        conn,
        schedule,
        metrics: Arc::clone(metrics),
        stop: Arc::clone(stop),
        dead,
        cut: Arc::clone(cut),
    };
    pumps.push(std::thread::spawn(move || up.run()));
    pumps.push(std::thread::spawn(move || down.run()));
}

/// One direction of one proxied connection.
struct Pump {
    src: TcpStream,
    dst: TcpStream,
    dir: Direction,
    conn: u64,
    schedule: Schedule,
    metrics: Arc<ProxyMetrics>,
    stop: Arc<AtomicBool>,
    dead: Arc<AtomicBool>,
    /// The one-shot `cut-payload` threshold (0: spent or never).
    cut: Arc<AtomicUsize>,
}

impl Pump {
    fn run(mut self) {
        let _ = self.src.set_read_timeout(Some(POLL));
        let mut buf = vec![0u8; CHUNK_LEN];
        let mut chunk_idx = 0u64;
        loop {
            if self.stop.load(Ordering::Relaxed) || self.dead.load(Ordering::Relaxed) {
                return;
            }
            let n = match self.src.read(&mut buf) {
                Ok(0) => {
                    // Clean EOF: propagate the half-close and let the
                    // other direction keep draining.
                    let _ = self.dst.shutdown(Shutdown::Write);
                    return;
                }
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => {
                    self.sever();
                    return;
                }
            };
            self.metrics.chunks.inc();
            let chunk = &mut buf[..n];

            // The one-shot deterministic cut beats the random draws: a
            // reconnect gate needs its mid-frame reset exactly where the
            // schedule cannot guarantee one.
            let cut_at = self.cut.load(Ordering::Relaxed);
            if self.dir == Direction::Down
                && cut_at > 0
                && n >= cut_at
                && self.cut.swap(0, Ordering::Relaxed) == cut_at
            {
                self.metrics.truncated.inc();
                let _ = self.dst.write_all(&chunk[..n / 2]);
                let _ = self.dst.flush();
                self.sever();
                return;
            }

            let dir = self.dir as u64;
            let fault = self.schedule.chunk(self.conn, dir, chunk_idx, n);
            chunk_idx += 1;
            match fault {
                ChunkFault::Reset => {
                    self.metrics.resets.inc();
                    self.sever();
                    return;
                }
                ChunkFault::Hold => {
                    // Hold both sockets open and go silent: the fault a
                    // frame deadline exists to catch.
                    self.metrics.stalls.inc();
                    while !self.stop.load(Ordering::Relaxed) && !self.dead.load(Ordering::Relaxed) {
                        std::thread::sleep(POLL);
                    }
                    return;
                }
                ChunkFault::Truncate => {
                    self.metrics.truncated.inc();
                    let _ = self.dst.write_all(&chunk[..n / 2]);
                    let _ = self.dst.flush();
                    self.sever();
                    return;
                }
                ChunkFault::Corrupt { index, xor } => {
                    self.metrics.corrupted.inc();
                    chunk[index] ^= xor;
                    if self.relay(&buf[..n]).is_err() {
                        return;
                    }
                }
                ChunkFault::Split => {
                    self.metrics.split.inc();
                    for i in 0..n {
                        if self.relay(&buf[i..i + 1]).is_err() {
                            return;
                        }
                    }
                }
                ChunkFault::Delay(ms) => {
                    self.metrics.delayed.inc();
                    let deadline = std::time::Instant::now() + Duration::from_millis(ms);
                    while std::time::Instant::now() < deadline
                        && !self.stop.load(Ordering::Relaxed)
                        && !self.dead.load(Ordering::Relaxed)
                    {
                        std::thread::sleep(POLL.min(Duration::from_millis(ms)));
                    }
                    if self.relay(&buf[..n]).is_err() {
                        return;
                    }
                }
                ChunkFault::None => {
                    if self.relay(&buf[..n]).is_err() {
                        return;
                    }
                }
            }
        }
    }

    /// Write bytes onward, keeping the byte tallies honest.
    fn relay(&mut self, bytes: &[u8]) -> io::Result<()> {
        let counter = match self.dir {
            Direction::Up => &self.metrics.bytes_up,
            Direction::Down => &self.metrics.bytes_down,
        };
        match self.dst.write_all(bytes) {
            Ok(()) => {
                counter.add(bytes.len() as u64);
                Ok(())
            }
            Err(e) => {
                self.sever();
                Err(e)
            }
        }
    }

    /// Kill both directions of this connection.
    fn sever(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = self.src.shutdown(Shutdown::Both);
        let _ = self.dst.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// An echo server good for one connection at a time.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn passthrough_is_byte_faithful() {
        let (upstream, _srv) = echo_server();
        let mut proxy = TcpProxy::start("127.0.0.1:0", upstream, FaultProfile::zero()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        c.write_all(&payload).unwrap();
        let _ = c.shutdown(Shutdown::Write);
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert_eq!(got, payload);
        let m = proxy.metrics();
        assert_eq!(m.connections.get(), 1);
        let faults = [
            &m.corrupted,
            &m.truncated,
            &m.split,
            &m.delayed,
            &m.resets,
            &m.stalls,
        ];
        assert!(
            faults.iter().all(|f| f.get() == 0),
            "passthrough injects nothing"
        );
        assert_eq!(m.bytes_up.get(), payload.len() as u64);
        proxy.shutdown();
    }

    #[test]
    fn corrupt_flips_exactly_the_scheduled_bytes() {
        let (upstream, _srv) = echo_server();
        let cfg = FaultProfile {
            seed: 2,
            corrupt: 1.0,
            min_len: 8,
            ..FaultProfile::zero()
        };
        let mut proxy = TcpProxy::start("127.0.0.1:0", upstream, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let payload = vec![0u8; 1024];
        c.write_all(&payload).unwrap();
        let _ = c.shutdown(Shutdown::Write);
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), payload.len());
        assert_ne!(got, payload, "corrupt=1 must flip something");
        let m = proxy.metrics();
        assert!(m.corrupted.get() >= 1);
        proxy.shutdown();
    }

    #[test]
    fn cut_payload_severs_mid_chunk_once() {
        let (upstream, _srv) = echo_server();
        let cfg = FaultProfile {
            cut_payload: 1000,
            ..FaultProfile::zero()
        };
        let mut proxy = TcpProxy::start("127.0.0.1:0", upstream, cfg).unwrap();

        // First connection: a big echo comes back cut roughly in half,
        // then the connection dies.
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&vec![7u8; 4096]).unwrap();
        let mut got = Vec::new();
        let _ = c.read_to_end(&mut got); // error or short — never full
        assert!(
            got.len() < 4096,
            "cut must lose the tail, kept {}",
            got.len()
        );

        // Second connection: the one-shot is spent; full fidelity.
        let mut c2 = TcpStream::connect(proxy.addr()).unwrap();
        c2.write_all(&vec![9u8; 4096]).unwrap();
        let _ = c2.shutdown(Shutdown::Write);
        let mut got2 = Vec::new();
        c2.read_to_end(&mut got2).unwrap();
        assert_eq!(got2, vec![9u8; 4096]);
        assert_eq!(proxy.metrics().truncated.get(), 1);
        proxy.shutdown();
    }

    #[test]
    fn split_still_delivers_every_byte() {
        let (upstream, _srv) = echo_server();
        let cfg = FaultProfile {
            seed: 4,
            split: 1.0,
            ..FaultProfile::zero()
        };
        let mut proxy = TcpProxy::start("127.0.0.1:0", upstream, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let payload: Vec<u8> = (0..2000u32).map(|i| (i % 13) as u8).collect();
        c.write_all(&payload).unwrap();
        let _ = c.shutdown(Shutdown::Write);
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert_eq!(got, payload, "splitting reorders nothing");
        assert!(proxy.metrics().split.get() >= 1);
        proxy.shutdown();
    }
}
