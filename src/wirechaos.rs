//! Seeded wire-chaos: a deterministic TCP/UDP fault-injecting proxy.
//!
//! A [`TcpProxy`] or [`UdpProxy`] sits between any two planes of the
//! pipeline — coordinator↔worker, export↔collectd, loadgen↔serve — and
//! mangles traffic on the schedule of a [`FaultProfile`]: a TCP chunk's
//! fault is keyed on `(connection, direction, chunk)`, a datagram's on its
//! arrival index, so the same seed replays the same faults. The fault
//! vocabulary and every decision live in `base::fault`, accepting and
//! stopping in `base::net`; this module relays, and tallies what it did.
//! A TCP connection is one thread that dials upstream and pumps each
//! direction; a severing fault shuts down both sockets both ways, so each
//! end observes the failure. UDP carries faults forward only, and relays
//! replies to the most recent client faithfully.

use lockdown_base::fault::{ChunkFault, DatagramFault, FaultProfile, Schedule};
use lockdown_base::metrics::Metric;
use lockdown_base::net::{is_tick, Acceptor, Stop, POLL};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

lockdown_base::metrics_family! {
    /// Lock-free tallies of what a proxy actually did — the ground truth a
    /// fault-matrix test checks injected faults against. Rendered by the one
    /// exposition renderer, same school as every other plane's family.
    pub struct ProxyMetrics {
        connections: counter("wirechaos_connections", "TCP connections accepted"),
        chunks: counter("wirechaos_chunks", "TCP chunks relayed (mangled or not)"),
        bytes_up: counter("wirechaos_bytes_up", "Bytes relayed client to upstream"),
        bytes_down: counter("wirechaos_bytes_down", "Bytes relayed upstream to client"),
        corrupted: counter("wirechaos_corrupted", "Chunks or datagrams with a byte flipped"),
        /// (by `trunc` or the one-shot `cut-payload`).
        truncated: counter("wirechaos_truncated", "Chunks cut in half, severing the link"),
        split: counter("wirechaos_split", "Chunks relayed one byte per write"),
        delayed: counter("wirechaos_delayed", "Chunks or datagrams held for added latency"),
        resets: counter("wirechaos_resets", "Connections severed by a reset draw"),
        stalls: counter("wirechaos_stalls", "Directions stalled forever"),
        datagrams: counter("wirechaos_datagrams", "UDP datagrams relayed"),
        dropped: counter("wirechaos_dropped", "UDP datagrams swallowed"),
        duplicated: counter("wirechaos_duplicated", "UDP datagrams delivered twice"),
    }
}

/// Relay buffer size: one proxied "chunk" is one `read` into this much.
const CHUNK_LEN: usize = 64 << 10;

/// Strictly larger than the biggest UDP payload, so nothing truncates
/// silently inside the proxy itself.
const DGRAM_BUF: usize = 65_536 + 64;

/// The first address `addr` resolves to.
fn resolve(addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other("upstream resolved to no address"))
}

/// Client → upstream or back; the value is a schedule key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up = 0,
    Down = 1,
}

/// A running TCP wire-chaos proxy.
#[derive(Debug)]
pub struct TcpProxy {
    acceptor: Acceptor,
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
        let upstream = resolve(upstream)?;
        let metrics = ProxyMetrics::new();
        let schedule = Schedule::new(cfg);
        // The deterministic cut-payload fault fires at most once per
        // proxy lifetime: its threshold, zeroed when it fires.
        let cut = Arc::new(AtomicUsize::new(cfg.cut_payload));
        let mut conn = 0u64;
        let acceptor = Acceptor::spawn("wirechaos", listener, {
            let metrics = Arc::clone(&metrics);
            move |client, _| {
                metrics.connections.inc();
                // Ids follow accept order, so the schedule replays.
                let pumps = Pumps {
                    conn,
                    schedule,
                    metrics: Arc::clone(&metrics),
                    cut: Arc::clone(&cut),
                };
                conn += 1;
                Some(move |stop: &Stop| {
                    pumps.run(client, upstream, stop);
                })
            }
        })?;
        Ok(TcpProxy { acceptor, metrics })
    }

    /// The address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Live fault tallies.
    pub fn metrics(&self) -> Arc<ProxyMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop accepting, sever nothing, and join every pump. Idempotent.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown(Duration::MAX);
    }
}

impl Drop for TcpProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What both pumps of one connection share.
struct Pumps {
    conn: u64,
    schedule: Schedule,
    metrics: Arc<ProxyMetrics>,
    /// The one-shot `cut-payload` threshold (0: spent or never).
    cut: Arc<AtomicUsize>,
}

impl Pumps {
    /// Dial upstream and relay both directions until each ends. Upstream
    /// refused: dropping the client socket is the honest relay of that.
    fn run(self, client: TcpStream, upstream: SocketAddr, stop: &Stop) -> Option<()> {
        let server = TcpStream::connect(upstream).ok()?;
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        // A severing fault in either pump stops both; so does the proxy's.
        let dead = stop.child();
        let up = Pump {
            src: client.try_clone().ok()?,
            dst: server.try_clone().ok()?,
            dir: Direction::Up,
            bytes: &self.metrics.bytes_up,
            shared: &self,
            dead: &dead,
        };
        let down = Pump {
            src: server,
            dst: client,
            dir: Direction::Down,
            bytes: &self.metrics.bytes_down,
            shared: &self,
            dead: &dead,
        };
        std::thread::scope(|s| {
            s.spawn(|| up.run());
            down.run();
        });
        Some(())
    }
}

/// One direction of one proxied connection.
struct Pump<'a> {
    src: TcpStream,
    dst: TcpStream,
    dir: Direction,
    /// Its byte tally.
    bytes: &'a Metric,
    shared: &'a Pumps,
    dead: &'a Stop,
}

impl Pump<'_> {
    fn run(mut self) {
        let _ = self.src.set_read_timeout(Some(POLL));
        let shared = self.shared;
        let metrics = &*shared.metrics;
        let mut buf = vec![0u8; CHUNK_LEN];
        let mut chunk_idx = 0u64;
        while !self.dead.is_stopped() {
            let n = match self.src.read(&mut buf) {
                Ok(0) => {
                    // Clean EOF: propagate the half-close and let the
                    // other direction keep draining.
                    let _ = self.dst.shutdown(Shutdown::Write);
                    return;
                }
                Ok(n) => n,
                Err(e) if is_tick(&e) => continue,
                Err(_) => return self.sever(),
            };
            metrics.chunks.inc();
            let chunk = &mut buf[..n];

            // The one-shot deterministic cut beats the random draws: a
            // reconnect gate needs its mid-frame reset exactly where the
            // schedule cannot guarantee one.
            let cut_at = shared.cut.load(Ordering::Relaxed);
            if self.dir == Direction::Down
                && cut_at > 0
                && n >= cut_at
                && shared.cut.swap(0, Ordering::Relaxed) == cut_at
            {
                metrics.truncated.inc();
                return self.truncate(chunk);
            }

            let fault = shared
                .schedule
                .chunk(shared.conn, self.dir as u64, chunk_idx, n);
            chunk_idx += 1;
            let relayed = match fault {
                ChunkFault::Reset => {
                    metrics.resets.inc();
                    return self.sever();
                }
                ChunkFault::Hold => {
                    // Hold both sockets open and go silent: the fault a
                    // frame deadline exists to catch.
                    metrics.stalls.inc();
                    self.dead.sleep(Duration::MAX);
                    return;
                }
                ChunkFault::Truncate => {
                    metrics.truncated.inc();
                    return self.truncate(chunk);
                }
                ChunkFault::Corrupt { index, xor } => {
                    metrics.corrupted.inc();
                    chunk[index] ^= xor;
                    self.relay(chunk)
                }
                ChunkFault::Split => {
                    metrics.split.inc();
                    chunk.chunks(1).try_for_each(|byte| self.relay(byte))
                }
                ChunkFault::Delay(ms) => {
                    metrics.delayed.inc();
                    if self.dead.sleep(Duration::from_millis(ms)) {
                        return;
                    }
                    self.relay(chunk)
                }
                ChunkFault::None => self.relay(chunk),
            };
            if relayed.is_err() {
                return;
            }
        }
    }

    /// Write bytes onward, keeping the byte tallies honest.
    fn relay(&self, bytes: &[u8]) -> io::Result<()> {
        (&self.dst).write_all(bytes).inspect_err(|_| self.sever())?;
        self.bytes.add(bytes.len() as u64);
        Ok(())
    }

    /// Relay the first half of a chunk, then sever.
    fn truncate(&self, chunk: &[u8]) {
        let _ = (&self.dst).write_all(&chunk[..chunk.len() / 2]);
        let _ = (&self.dst).flush();
        self.sever();
    }

    /// Kill both directions of this connection.
    fn sever(&self) {
        self.dead.stop();
        let _ = self.src.shutdown(Shutdown::Both);
        let _ = self.dst.shutdown(Shutdown::Both);
    }
}

/// A running UDP wire-chaos proxy.
#[derive(Debug)]
pub struct UdpProxy {
    addr: SocketAddr,
    stop: Stop,
    threads: Vec<JoinHandle<()>>,
    metrics: Arc<ProxyMetrics>,
}

impl UdpProxy {
    /// Bind `listen` and relay datagrams to `upstream` through the
    /// fault schedule of `cfg`.
    pub fn start(
        listen: impl ToSocketAddrs,
        upstream: impl ToSocketAddrs,
        cfg: FaultProfile,
    ) -> io::Result<UdpProxy> {
        let front = UdpSocket::bind(listen)?;
        let upstream = resolve(upstream)?;
        let addr = front.local_addr()?;
        // Dial out from a second socket so upstream replies come back
        // here, not to the listening port.
        let back = UdpSocket::bind((addr.ip(), 0))?;
        front.set_read_timeout(Some(POLL))?;
        back.set_read_timeout(Some(POLL))?;

        let stop = Stop::default();
        let metrics = ProxyMetrics::new();
        let schedule = Schedule::new(cfg);
        let last_client = Arc::new(Mutex::new(None));
        let mut threads = Vec::with_capacity(2);

        // Forward pump: client → upstream, with faults.
        {
            let (front, back) = (front.try_clone()?, back.try_clone()?);
            let (stop, metrics) = (stop.clone(), Arc::clone(&metrics));
            let last_client = Arc::clone(&last_client);
            threads.push(std::thread::spawn(move || {
                let mut buf = vec![0u8; DGRAM_BUF];
                let mut idx = 0u64;
                while !stop.is_stopped() {
                    let (n, from) = match front.recv_from(&mut buf) {
                        Ok(pair) => pair,
                        Err(e) if is_tick(&e) => continue,
                        Err(_) => break,
                    };
                    *last_client.lock().expect("client-addr lock") = Some(from);
                    metrics.datagrams.inc();
                    let fault = schedule.datagram(0, idx, n);
                    idx += 1;
                    let copies = match fault {
                        DatagramFault::Drop => {
                            metrics.dropped.inc();
                            0
                        }
                        DatagramFault::Duplicate => {
                            metrics.duplicated.inc();
                            2
                        }
                        DatagramFault::Corrupt { index, xor } => {
                            metrics.corrupted.inc();
                            buf[index] ^= xor;
                            1
                        }
                        DatagramFault::Delay(ms) => {
                            metrics.delayed.inc();
                            if stop.sleep(Duration::from_millis(ms)) {
                                break;
                            }
                            1
                        }
                        DatagramFault::None => 1,
                    };
                    for _ in 0..copies {
                        let _ = back.send_to(&buf[..n], upstream);
                    }
                }
            }));
        }

        // Reverse pump: upstream replies → the most recent client,
        // relayed faithfully.
        {
            let (stop, last_client) = (stop.clone(), Arc::clone(&last_client));
            threads.push(std::thread::spawn(move || {
                let mut buf = vec![0u8; DGRAM_BUF];
                while !stop.is_stopped() {
                    match back.recv_from(&mut buf) {
                        Ok((n, _from)) => {
                            let client = *last_client.lock().expect("client-addr lock");
                            if let Some(client) = client {
                                let _ = front.send_to(&buf[..n], client);
                            }
                        }
                        Err(e) if is_tick(&e) => {}
                        Err(_) => break,
                    }
                }
            }));
        }

        Ok(UdpProxy {
            addr,
            stop,
            threads,
            metrics,
        })
    }

    /// The address exporters should send to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live fault tallies.
    pub fn metrics(&self) -> Arc<ProxyMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop both pumps and join them. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for UdpProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

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
    fn closed_connections_leave_no_pumps_behind() {
        let (upstream, _srv) = echo_server();
        let mut proxy = TcpProxy::start("127.0.0.1:0", upstream, FaultProfile::zero()).unwrap();
        for i in 0..50u8 {
            let mut c = TcpStream::connect(proxy.addr()).unwrap();
            c.write_all(&[i; 100]).unwrap();
            let _ = c.shutdown(Shutdown::Write);
            let mut got = Vec::new();
            c.read_to_end(&mut got).unwrap();
            assert_eq!(got, [i; 100]);
        }
        // At most the last connection's two pumps may still be winding
        // down; the fifty before it are reaped.
        let deadline = Instant::now() + Duration::from_secs(5);
        while proxy.acceptor.live() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(proxy.acceptor.live() <= 1, "{} live", proxy.acceptor.live());
        assert_eq!(proxy.metrics().connections.get(), 50);
        proxy.shutdown();
        assert_eq!(proxy.acceptor.live(), 0, "shutdown joins every pump");
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

    #[test]
    fn drop_dup_and_corrupt_are_accounted() {
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let cfg = FaultProfile {
            seed: 6,
            drop: 0.25,
            dup: 0.25,
            corrupt: 0.25,
            ..FaultProfile::zero()
        };
        let mut proxy = UdpProxy::start("127.0.0.1:0", sink.local_addr().unwrap(), cfg).unwrap();

        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        const SENT: u64 = 200;
        for i in 0..SENT {
            let mut dgram = vec![0u8; 64];
            dgram[..8].copy_from_slice(&i.to_be_bytes());
            tx.send_to(&dgram, proxy.addr()).unwrap();
        }

        // Drain everything that made it through.
        let mut received = 0u64;
        let mut corrupted_seen = 0u64;
        let mut buf = [0u8; 128];
        while let Ok((n, _)) = sink.recv_from(&mut buf) {
            received += 1;
            // A corrupted datagram still has its length; check payload.
            let clean = buf[8..n].iter().all(|&b| b == 0);
            let seq = u64::from_be_bytes(buf[..8].try_into().unwrap());
            if !clean || seq >= SENT {
                corrupted_seen += 1;
            }
        }

        let m = proxy.metrics();
        let dropped = m.dropped.get();
        let duplicated = m.duplicated.get();
        let corrupted = m.corrupted.get();
        assert_eq!(m.datagrams.get(), SENT);
        // The counters are the schedule's, predicted over arrival indices
        // without running the proxy.
        let s = Schedule::new(cfg);
        let predict = |f| (0..SENT).filter(|&i| s.datagram(0, i, 64) == f).count() as u64;
        assert_eq!(dropped, predict(DatagramFault::Drop), "{}", m.render());
        assert_eq!(
            duplicated,
            predict(DatagramFault::Duplicate),
            "{}",
            m.render()
        );
        assert!(corrupted > 0, "{}", m.render());
        // Conservation: every sent datagram is delivered, dropped, or
        // delivered twice — nothing vanishes unaccounted.
        assert_eq!(received, SENT - dropped + duplicated, "{}", m.render());
        assert!(corrupted_seen <= corrupted, "flips beyond schedule");
        proxy.shutdown();
    }
}
