//! The collection daemon: real UDP sockets in front of the collector
//! shards.
//!
//! [`Collectd`] binds one or more receive sockets and runs two thread
//! layers connected by bounded queues:
//!
//! ```text
//!   socket 0 ─ receiver ─┐            ┌─ queue 0 ─ worker 0 ─ shard 0
//!   socket 1 ─ receiver ─┼─ peek/route┼─ queue 1 ─ worker 1 ─ shard 1
//!   ...                  ┘ domain % n └─ ...
//! ```
//!
//! Each receiver peeks the observation domain out of the format header
//! (no template state needed) and routes the datagram to the shard queue
//! `domain % shards`. The queues are bounded and *lossy at the producer*:
//! a full queue drops the datagram and counts it, instead of blocking the
//! receiver and backing datagrams up into silent kernel drops. The three
//! drop sites are accounted separately — kernel (sent but never received),
//! queue (received, shard behind), truncated (received cut, never decoded)
//! — and their sum must equal the total datagram loss; the conservation
//! auditor checks exactly that (`socket-conservation`).
//!
//! [`SocketPlane`] is the cell driver: the same export and collect stages
//! as [`crate::CollectionPlane`] (one implementation, `stages.rs`), with
//! the in-process [`crate::Transport`] between them replaced by real
//! localhost UDP. On a zero-loss run
//! its output is byte-identical to the loopback plane's: per-domain
//! ordering is preserved end to end (one sender, one receiver per socket,
//! one worker per shard), and the shard's wire-side record tags equal the
//! loopback ground-truth tags whenever every datagram decodes.

use std::collections::HashMap;
use std::io;
use std::mem;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lockdown_base::net::Stop;
use lockdown_flow::prelude::*;
use lockdown_traffic::plan::Cell;

use crate::metrics::CollectMetrics;
use crate::queue::BoundedQueue;
use crate::shard::{CollectorShard, ShardSet};
use crate::socket::{peek, Recv, RecvSocket, SendSocket, RECV_BUF_LEN};
use crate::stages::Plane;
use crate::WireConfig;

/// In-flight window for the loopback sender: at most this many datagrams
/// unaccounted between send and shard ingest. Far below both the queue
/// bound and the kernel receive buffer, so a flow-controlled run cannot
/// lose a datagram — the precondition for byte-identity with the
/// in-process transport.
pub(crate) const SEND_WINDOW: u64 = 32;

/// How long the sender waits without any accounting progress before it
/// writes the in-flight remainder off as kernel-dropped. Loopback drops
/// happen synchronously at send time, so quiescence means nothing more is
/// coming.
const QUIESCENCE: Duration = Duration::from_millis(250);

/// Hard cap on one drain barrier, in case the daemon is wedged.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Configuration of a [`Collectd`] daemon.
#[derive(Debug, Clone, Copy)]
pub struct CollectdConfig {
    /// Export format the daemon decodes.
    pub format: ExportFormat,
    /// Receive sockets to bind. With an explicit (non-zero) port, socket
    /// `i` binds `port + i`; port 0 binds ephemeral ports.
    pub sockets: usize,
    /// Shard workers (and queues) the domains are routed across.
    pub shards: usize,
    /// Bound of each shard queue, in datagrams.
    pub queue_capacity: usize,
    /// Receive buffer length; `RECV_BUF_LEN` makes truncation
    /// impossible, smaller values (tests) make it observable.
    pub recv_buf_len: usize,
    /// Kernel receive-buffer request (`SO_RCVBUF`) applied to every
    /// socket at bind; `None` keeps the kernel default. The kernel clamps
    /// the grant to `net.core.rmem_max` — the effective size lands in the
    /// `socket_rcvbuf_bytes` gauge.
    pub rcvbuf: Option<usize>,
    /// Address the first socket binds.
    pub listen: SocketAddr,
}

impl CollectdConfig {
    /// Defaults: 2 sockets on ephemeral localhost ports, 4 shards,
    /// 1024-datagram queues, truncation-proof receive buffer.
    pub fn new(format: ExportFormat) -> CollectdConfig {
        CollectdConfig {
            format,
            sockets: 2,
            shards: 4,
            queue_capacity: 1024,
            recv_buf_len: RECV_BUF_LEN,
            rcvbuf: None,
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
        }
    }
}

/// One datagram as logged by a shard worker: the identity triple the
/// cycle-close accounting diffs against the sender's manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReceivedDatagram {
    /// Observation domain from the header peek.
    pub domain: u32,
    /// Wire sequence from the header peek.
    pub sequence: u32,
    /// Payload length in bytes.
    pub len: u32,
}

/// What flows through a shard queue.
#[derive(Debug)]
enum QueueItem {
    /// One received datagram, pre-routed by domain.
    Datagram {
        domain: u32,
        sequence: u32,
        claimed: u32,
        bytes: Vec<u8>,
    },
    /// Cycle barrier: the worker hands its shard and received log back
    /// through the channel and continues with fresh ones.
    Close(mpsc::Sender<CycleSlice>),
}

/// One worker's contribution to a closed cycle.
struct CycleSlice {
    index: usize,
    shard: CollectorShard,
    received: Vec<ReceivedDatagram>,
}

/// Counters shared between receivers, workers and the cycle driver.
#[derive(Debug, Default)]
struct DaemonShared {
    /// Datagrams fully accounted: ingested by a worker, dropped at a
    /// queue, or truncated. The sender's flow-control window and the
    /// drain barrier both watch this.
    accounted: AtomicU64,
    /// Datagrams read off any socket (truncated reads included); the
    /// kernel-drop count is `sent - socket_received` at drain.
    socket_received: AtomicU64,
    /// Datagrams dropped at a full shard queue.
    queue_dropped: AtomicU64,
    /// Datagrams truncated at recv.
    truncated_datagrams: AtomicU64,
    /// Header-claimed records inside truncated datagrams.
    truncated_records: AtomicU64,
    /// Shutdown for the receiver poll loops.
    stop: Stop,
}

/// Per-cycle counter snapshot, for delta computation at cycle close.
#[derive(Debug, Default, Clone, Copy)]
struct CounterSnapshot {
    socket_received: u64,
    queue_dropped: u64,
    truncated_datagrams: u64,
    truncated_records: u64,
}

/// Everything one closed cycle collected: the reassembled shards, the
/// received-datagram log, and this cycle's drop-site counter deltas.
pub struct Cycle {
    /// The shard set as of the barrier (workers continue with fresh ones).
    pub shards: ShardSet,
    /// Every datagram the workers ingested this cycle.
    pub received: Vec<ReceivedDatagram>,
    /// Datagrams read off the sockets this cycle (truncated included).
    pub socket_received: u64,
    /// Datagrams dropped at full shard queues this cycle.
    pub queue_dropped: u64,
    /// Datagrams truncated at recv this cycle.
    pub truncated_datagrams: u64,
    /// Header-claimed records inside this cycle's truncated datagrams.
    pub truncated_records: u64,
}

/// The socket collection daemon. See the module docs for the thread
/// topology; [`Collectd::close_cycle`] is the barrier that hands the
/// accumulated shard state back for session close.
#[derive(Debug)]
pub struct Collectd {
    format: ExportFormat,
    shared: Arc<DaemonShared>,
    queues: Vec<Arc<BoundedQueue<QueueItem>>>,
    addrs: Vec<SocketAddr>,
    receivers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    prev: CounterSnapshot,
}

impl Collectd {
    /// Bind the daemon's sockets and start its receiver and worker
    /// threads. Fails (without leaking threads) if any bind fails.
    pub fn bind(cfg: &CollectdConfig, metrics: Arc<CollectMetrics>) -> io::Result<Collectd> {
        assert!(cfg.sockets >= 1, "need at least one socket");
        assert!(cfg.shards >= 1, "need at least one shard");

        // Socket i binds PORT+i: a range past 65535 is refused before any
        // socket is bound, never wrapped onto an ephemeral port.
        let base = cfg.listen.port();
        let ports = (0..cfg.sockets)
            .map(|i| match base {
                0 => Some(0),
                _ => u16::try_from(i).ok().and_then(|i| base.checked_add(i)),
            })
            .collect::<Option<Vec<u16>>>()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "ports {base}..={} run past 65535",
                        usize::from(base) + cfg.sockets - 1
                    ),
                )
            })?;

        // Bind every socket before spawning anything, so a bind failure
        // is a clean error.
        let mut sockets = Vec::with_capacity(cfg.sockets);
        let mut addrs = Vec::with_capacity(cfg.sockets);
        for port in ports {
            let mut addr = cfg.listen;
            addr.set_port(port);
            let sock = RecvSocket::bind_with_buffer(addr, cfg.recv_buf_len)?;
            let granted = match cfg.rcvbuf {
                Some(bytes) => sock.set_rcvbuf(bytes)?,
                None => sock.rcvbuf().unwrap_or(0),
            };
            metrics.socket_rcvbuf_bytes.set_max(granted as u64);
            addrs.push(sock.local_addr()?);
            sockets.push(sock);
        }

        let shared = Arc::new(DaemonShared::default());
        let queues: Vec<Arc<BoundedQueue<QueueItem>>> = (0..cfg.shards)
            .map(|_| Arc::new(BoundedQueue::new(cfg.queue_capacity)))
            .collect();
        metrics.socket_receivers.set_max(cfg.sockets as u64);
        metrics.queue_capacity.set_max(cfg.queue_capacity as u64);

        let receivers = sockets
            .into_iter()
            .map(|sock| {
                let queues = queues.clone();
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                let format = cfg.format;
                std::thread::spawn(move || receiver_loop(sock, format, &queues, &shared, &metrics))
            })
            .collect();
        let workers = queues
            .iter()
            .enumerate()
            .map(|(index, queue)| {
                let queue = Arc::clone(queue);
                let shared = Arc::clone(&shared);
                let format = cfg.format;
                std::thread::spawn(move || worker_loop(index, &queue, format, &shared))
            })
            .collect();

        Ok(Collectd {
            format: cfg.format,
            shared,
            queues,
            addrs,
            receivers,
            workers,
            prev: CounterSnapshot::default(),
        })
    }

    /// The bound socket addresses. Senders must route datagrams by
    /// `addrs()[domain % addrs().len()]` so each domain stays on one
    /// socket and per-domain ordering is preserved.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Datagrams fully accounted so far (ingested + queue-dropped +
    /// truncated). A flow-controlled sender bounds `sent - accounted()`.
    pub fn accounted(&self) -> u64 {
        self.shared.accounted.load(Ordering::Acquire)
    }

    /// Datagrams read off the sockets so far (truncated included).
    pub(crate) fn socket_received(&self) -> u64 {
        self.shared.socket_received.load(Ordering::Acquire)
    }

    /// Cycle barrier: every worker hands back its shard and received log
    /// (after draining everything enqueued before the barrier) and
    /// continues with fresh state. Callers must quiesce the senders first
    /// — datagrams still in the sockets when the barrier passes land in
    /// the *next* cycle.
    pub fn close_cycle(&mut self) -> Cycle {
        let (tx, rx) = mpsc::channel();
        let mut expected = 0;
        for q in &self.queues {
            if q.push(QueueItem::Close(tx.clone())).is_ok() {
                expected += 1;
            }
        }
        drop(tx);
        let mut slices: Vec<CycleSlice> = rx.iter().take(expected).collect();
        slices.sort_by_key(|s| s.index);

        let mut received = Vec::new();
        let mut shards = Vec::with_capacity(slices.len());
        for s in slices {
            received.extend(s.received);
            shards.push(s.shard);
        }
        if shards.is_empty() {
            // Daemon already shut down: an empty, well-formed cycle.
            shards.push(CollectorShard::new(self.format));
        }

        let now = CounterSnapshot {
            socket_received: self.shared.socket_received.load(Ordering::Acquire),
            queue_dropped: self.shared.queue_dropped.load(Ordering::Acquire),
            truncated_datagrams: self.shared.truncated_datagrams.load(Ordering::Acquire),
            truncated_records: self.shared.truncated_records.load(Ordering::Acquire),
        };
        let prev = mem::replace(&mut self.prev, now);
        Cycle {
            shards: ShardSet::from_shards(shards),
            received,
            socket_received: now.socket_received - prev.socket_received,
            queue_dropped: now.queue_dropped - prev.queue_dropped,
            truncated_datagrams: now.truncated_datagrams - prev.truncated_datagrams,
            truncated_records: now.truncated_records - prev.truncated_records,
        }
    }

    /// Stop the receivers, drain and stop the workers, join everything.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.stop();
        for h in self.receivers.drain(..) {
            let _ = h.join();
        }
        for q in &self.queues {
            q.close();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Collectd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Socket receiver: peek, route, push; count what cannot be pushed.
fn receiver_loop(
    mut sock: RecvSocket,
    format: ExportFormat,
    queues: &[Arc<BoundedQueue<QueueItem>>],
    shared: &DaemonShared,
    metrics: &CollectMetrics,
) {
    while !shared.stop.is_stopped() {
        match sock.recv() {
            Ok(Recv::Datagram(bytes)) => {
                shared.socket_received.fetch_add(1, Ordering::AcqRel);
                metrics.socket_datagrams_received.inc();
                metrics.socket_bytes_received.add(bytes.len() as u64);
                // Unpeekable datagrams (foreign senders, corruption) still
                // go to a shard — domain 0 — where they are counted as
                // malformed rather than silently vanishing.
                let (domain, sequence, claimed) = match peek(format, &bytes) {
                    Some(p) => (p.domain, p.sequence, p.claimed_records),
                    None => (0, 0, 0),
                };
                let item = QueueItem::Datagram {
                    domain,
                    sequence,
                    claimed,
                    bytes,
                };
                if queues[domain as usize % queues.len()]
                    .try_push(item)
                    .is_err()
                {
                    // Dropped at the queue: the shard is behind and the
                    // receiver must not block. Counted, and accounted so
                    // flow-controlled senders make progress.
                    shared.queue_dropped.fetch_add(1, Ordering::AcqRel);
                    shared.accounted.fetch_add(1, Ordering::AcqRel);
                    metrics.queue_datagrams_dropped.inc();
                }
            }
            Ok(Recv::Truncated(prefix)) => {
                // Dropped at the socket: the kernel cut the tail, so the
                // datagram must never reach a decoder. The intact header
                // prefix still attributes the claimed record count.
                shared.socket_received.fetch_add(1, Ordering::AcqRel);
                metrics.socket_datagrams_received.inc();
                metrics.socket_bytes_received.add(prefix.len() as u64);
                let claimed = peek(format, &prefix).map_or(0, |p| p.claimed_records);
                shared.truncated_datagrams.fetch_add(1, Ordering::AcqRel);
                shared
                    .truncated_records
                    .fetch_add(u64::from(claimed), Ordering::AcqRel);
                shared.accounted.fetch_add(1, Ordering::AcqRel);
                metrics.socket_datagrams_truncated.inc();
                metrics.socket_records_truncated.add(u64::from(claimed));
            }
            Ok(Recv::TimedOut) => {}
            Err(_) => break,
        }
    }
}

/// Shard worker: ingest datagrams, log their identity for cycle-close
/// accounting, hand the shard back at each barrier.
fn worker_loop(
    index: usize,
    queue: &BoundedQueue<QueueItem>,
    format: ExportFormat,
    shared: &DaemonShared,
) {
    let mut shard = CollectorShard::new(format);
    let mut received: Vec<ReceivedDatagram> = Vec::new();
    while let Some(item) = queue.pop() {
        match item {
            QueueItem::Datagram {
                domain,
                sequence,
                claimed,
                bytes,
            } => {
                shard.ingest_bytes(domain, claimed, &bytes);
                received.push(ReceivedDatagram {
                    domain,
                    sequence,
                    len: bytes.len() as u32,
                });
                shared.accounted.fetch_add(1, Ordering::AcqRel);
            }
            QueueItem::Close(tx) => {
                let slice = CycleSlice {
                    index,
                    shard: mem::replace(&mut shard, CollectorShard::new(format)),
                    received: mem::take(&mut received),
                };
                let _ = tx.send(slice);
            }
        }
    }
}

/// Spin until `current()` reaches `target`, giving up after the value
/// stops changing for [`QUIESCENCE`] (whatever is missing was dropped by
/// the kernel and will never arrive) or after [`DRAIN_DEADLINE`]. Returns
/// the last observed value.
fn await_progress(mut current: impl FnMut() -> u64, target: u64) -> u64 {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut last = current();
    let mut last_change = Instant::now();
    while last < target {
        std::thread::yield_now();
        let v = current();
        if v != last {
            last = v;
            last_change = Instant::now();
        } else if last_change.elapsed() > QUIESCENCE || Instant::now() > deadline {
            break;
        }
    }
    last
}

/// The real-UDP transit: a [`Collectd`] daemon on localhost sockets and
/// the socket that sends to it.
pub struct Sockets {
    daemon: Collectd,
    sender: SendSocket,
}

/// The export → real UDP → collect path for engine cells: the socket
/// counterpart of [`crate::CollectionPlane`].
///
/// Differences from the loopback plane: the fault-injecting transport is
/// replaced by the kernel (faults are whatever the sockets actually do, so
/// a datagram fault in the [`crate::FaultProfile`] is refused; its restart
/// cadence is honoured), drop ground truth comes from diffing the sender's
/// datagram manifest against the workers' received log, and every drop is
/// attributed to kernel, queue, or truncation. Cells are processed
/// sequentially (`&mut self`): one daemon, one cycle at a time.
pub type SocketPlane = Plane<Sockets>;

impl Plane<Sockets> {
    /// Bind a daemon per `dcfg` (its format is overridden by
    /// `cfg.format`) and open the sending socket. A non-zero `drop`, `dup`
    /// or `reorder` in `cfg.faults` is [`io::ErrorKind::InvalidInput`]:
    /// the kernel is this plane's transport.
    pub fn new(cfg: WireConfig, dcfg: CollectdConfig) -> io::Result<SocketPlane> {
        let f = &cfg.faults;
        for (key, p) in [("drop", f.drop), ("dup", f.dup), ("reorder", f.reorder)] {
            if p != 0.0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("the socket plane injects no datagram faults: {key}={p}"),
                ));
            }
        }
        let metrics = CollectMetrics::new();
        let dcfg = CollectdConfig {
            format: cfg.format,
            ..dcfg
        };
        let transit = Sockets {
            daemon: Collectd::bind(&dcfg, Arc::clone(&metrics))?,
            sender: SendSocket::open()?,
        };
        Ok(Plane::over(cfg, metrics, transit))
    }

    /// Push one engine cell's flows through real UDP sockets and return
    /// what the collector shards accepted (possibly renormalized under
    /// loss). The export and collect stages are the ones
    /// [`crate::CollectionPlane::process_cell`] runs; only the transit
    /// between them differs.
    pub fn process_cell(&mut self, cell: Cell, flows: &[FlowRecord]) -> Vec<FlowRecord> {
        let format = self.cfg.format;
        let (datagrams, exported) = self.export(&cell, flows);

        // The sender's manifest: identity triple → ground-truth volume.
        // Diffed against the workers' received log after the drain, this
        // yields the exact per-datagram drop ground truth the loopback
        // transport reports natively.
        let mut manifest: HashMap<(u32, u32, u32), crate::audit::Counts> =
            HashMap::with_capacity(datagrams.len());
        for dg in &datagrams {
            if format == ExportFormat::NetflowV5 {
                assert!(
                    dg.domain <= 0xFFFF,
                    "v5 carries the domain in 16 engine bits; domain {} does not fit",
                    dg.domain
                );
            }
            let seq = peek(format, &dg.bytes).map_or(0, |p| p.sequence);
            let prior = manifest.insert(
                (dg.domain, seq, dg.bytes.len() as u32),
                crate::audit::Counts {
                    records: u64::from(dg.records),
                    bytes: dg.flow_bytes,
                    packets: dg.flow_packets,
                },
            );
            debug_assert!(prior.is_none(), "datagram identity triple collided");
        }

        // Flow-controlled send: per-domain ordering is already guaranteed
        // (sequential sends, one socket per domain, one worker per shard);
        // the window additionally guarantees zero loss by keeping the
        // in-flight count far below every buffer bound.
        let addrs = self.transit.daemon.addrs().to_vec();
        let base_accounted = self.transit.daemon.accounted();
        let base_received = self.transit.daemon.socket_received();
        let mut sent: u64 = 0;
        let mut written_off: u64 = 0;
        for dg in &datagrams {
            if sent >= SEND_WINDOW {
                let target = sent - SEND_WINDOW + 1;
                let got = await_progress(
                    || self.transit.daemon.accounted() - base_accounted + written_off,
                    target,
                );
                // Quiescence with the window still full: the remainder was
                // kernel-dropped and will never be accounted.
                written_off += target.saturating_sub(got);
            }
            let _ = self
                .transit
                .sender
                .send_to(&dg.bytes, addrs[dg.domain as usize % addrs.len()]);
            sent += 1;
        }
        // Drain barrier: everything sent is accounted (or written off as
        // kernel-dropped) before the cycle closes.
        await_progress(
            || self.transit.daemon.accounted() - base_accounted + written_off,
            sent,
        );

        let cycle = self.transit.daemon.close_cycle();
        let received_now = self.transit.daemon.socket_received();
        let kernel_dropped = sent.saturating_sub(received_now - base_received);
        self.metrics
            .socket_datagrams_kernel_dropped
            .add(kernel_dropped);

        // Manifest diff: what the workers logged is delivered; the
        // remainder is dropped, with exact record/byte/packet volume.
        let mut delivered: u64 = 0;
        for r in &cycle.received {
            if manifest.remove(&(r.domain, r.sequence, r.len)).is_some() {
                delivered += 1;
            }
        }
        let mut dropped = crate::audit::Counts::default();
        for counts in manifest.values() {
            dropped.add(*counts);
        }
        let dropped_datagrams = manifest.len() as u64;
        self.collect(&cell, flows, exported, cycle.shards, |c| {
            c.delivered_datagrams += delivered;
            c.dropped_datagrams += dropped_datagrams;
            c.dropped.add(dropped);
            c.socket = true;
            c.socket_kernel_dropped += kernel_dropped;
            c.socket_queue_dropped += cycle.queue_dropped;
            c.socket_truncated += cycle.truncated_datagrams;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_ingests_and_closes_cycles() {
        let metrics = CollectMetrics::new();
        let mut cfg = CollectdConfig::new(ExportFormat::Ipfix);
        cfg.sockets = 1;
        cfg.shards = 2;
        let mut daemon = Collectd::bind(&cfg, Arc::clone(&metrics)).unwrap();
        let addr = daemon.addrs()[0];
        let tx = SendSocket::open().unwrap();

        // Garbage: routes to shard 0 as domain 0 and counts as malformed.
        tx.send_to(&[0xFF; 40], addr).unwrap();
        let base = std::time::Instant::now();
        while daemon.accounted() < 1 {
            assert!(base.elapsed() < Duration::from_secs(5), "ingest timed out");
            std::thread::yield_now();
        }
        let cycle = daemon.close_cycle();
        assert_eq!(cycle.socket_received, 1);
        assert_eq!(cycle.received.len(), 1);
        assert_eq!(cycle.shards.totals().malformed, 1);

        // A second cycle starts from zero.
        let cycle2 = daemon.close_cycle();
        assert_eq!(cycle2.socket_received, 0);
        assert!(cycle2.received.is_empty());
        assert_eq!(cycle2.shards.totals().datagrams, 0);

        daemon.shutdown();
        assert_eq!(metrics.socket_datagrams_received.get(), 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let metrics = CollectMetrics::new();
        let cfg = CollectdConfig::new(ExportFormat::NetflowV5);
        let mut daemon = Collectd::bind(&cfg, metrics).unwrap();
        daemon.shutdown();
        daemon.shutdown();
        // close_cycle after shutdown yields an empty, well-formed cycle.
        let cycle = daemon.close_cycle();
        assert!(cycle.received.is_empty());
    }

    #[test]
    fn bind_failure_reports_io_error() {
        // Occupy a port, then ask the daemon to bind it.
        let taken = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut cfg = CollectdConfig::new(ExportFormat::Ipfix);
        cfg.listen = taken.local_addr().unwrap();
        cfg.sockets = 1;
        assert!(Collectd::bind(&cfg, CollectMetrics::new()).is_err());

        // Socket i binds PORT+i: a range past 65535 fails before any bind.
        cfg.listen = "127.0.0.1:65535".parse().unwrap();
        cfg.sockets = 2;
        let err = Collectd::bind(&cfg, CollectMetrics::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("65535..=65536"), "{err}");
    }
}
