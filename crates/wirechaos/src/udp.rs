//! The UDP interposer: one datagram in, zero, one or two datagrams out.
//!
//! The collection plane is one-way (exporters send, collectd listens),
//! so the forward path carries the fault schedule — drop, duplicate,
//! corrupt, delay — keyed on the datagram's arrival index; drop and
//! duplicate are the in-process transport's own body. A reverse
//! pump still exists (replies from the upstream go back to the most
//! recent client) but relays faithfully; none of our planes answer
//! over UDP today.

use crate::ProxyMetrics;
use lockdown_base::fault::{DatagramFault, FaultProfile, Schedule};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll tick for stoppable blocking reads.
const POLL: Duration = Duration::from_millis(20);

/// Strictly larger than the biggest UDP payload, so nothing truncates
/// silently inside the proxy itself.
const DGRAM_BUF: usize = 65_536 + 64;

/// A running UDP wire-chaos proxy.
#[derive(Debug)]
pub struct UdpProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
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
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("upstream resolved to no address"))?;
        let addr = front.local_addr()?;
        // Dial out from a second socket so upstream replies come back
        // here, not to the listening port.
        let back = UdpSocket::bind((addr.ip(), 0))?;
        front.set_read_timeout(Some(POLL))?;
        back.set_read_timeout(Some(POLL))?;

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = ProxyMetrics::new();
        let schedule = Schedule::new(cfg);
        let last_client: Arc<Mutex<Option<SocketAddr>>> = Arc::new(Mutex::new(None));
        let mut threads = Vec::with_capacity(2);

        // Forward pump: client → upstream, with faults.
        {
            let front = front.try_clone()?;
            let back = back.try_clone()?;
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let last_client = Arc::clone(&last_client);
            threads.push(std::thread::spawn(move || {
                let mut buf = vec![0u8; DGRAM_BUF];
                let mut idx = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (n, from) = match front.recv_from(&mut buf) {
                        Ok(pair) => pair,
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::WouldBlock
                                    | ErrorKind::TimedOut
                                    | ErrorKind::Interrupted
                            ) =>
                        {
                            continue;
                        }
                        Err(_) => break,
                    };
                    *last_client.lock().expect("client-addr lock") = Some(from);
                    metrics.datagrams.inc();
                    let fault = schedule.datagram(0, idx, n);
                    idx += 1;
                    match fault {
                        DatagramFault::Drop => {
                            metrics.dropped.inc();
                        }
                        DatagramFault::Duplicate => {
                            metrics.duplicated.inc();
                            let _ = back.send_to(&buf[..n], upstream);
                            let _ = back.send_to(&buf[..n], upstream);
                        }
                        DatagramFault::Corrupt { index, xor } => {
                            metrics.corrupted.inc();
                            buf[index] ^= xor;
                            let _ = back.send_to(&buf[..n], upstream);
                        }
                        DatagramFault::Delay(ms) => {
                            metrics.delayed.inc();
                            std::thread::sleep(Duration::from_millis(ms));
                            let _ = back.send_to(&buf[..n], upstream);
                        }
                        DatagramFault::None => {
                            let _ = back.send_to(&buf[..n], upstream);
                        }
                    }
                }
            }));
        }

        // Reverse pump: upstream replies → the most recent client,
        // relayed faithfully.
        {
            let stop = Arc::clone(&stop);
            let last_client = Arc::clone(&last_client);
            threads.push(std::thread::spawn(move || {
                let mut buf = vec![0u8; DGRAM_BUF];
                while !stop.load(Ordering::Relaxed) {
                    match back.recv_from(&mut buf) {
                        Ok((n, _from)) => {
                            let client = *last_client.lock().expect("client-addr lock");
                            if let Some(client) = client {
                                let _ = front.send_to(&buf[..n], client);
                            }
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::WouldBlock
                                    | ErrorKind::TimedOut
                                    | ErrorKind::Interrupted
                            ) => {}
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
        self.stop.store(true, Ordering::Relaxed);
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
