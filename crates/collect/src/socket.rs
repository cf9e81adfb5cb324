//! UDP socket edge of the collection daemon.
//!
//! Wraps `std::net::UdpSocket` with the two things a flow collector must
//! get right at the wire edge:
//!
//! * **Truncation safety.** A UDP read into a too-small buffer silently
//!   discards the datagram's tail; decoding the surviving prefix would
//!   mis-parse records. `RecvSocket::recv` therefore reads into a
//!   buffer strictly larger than the maximum UDP payload, and any read
//!   that *fills* the buffer — only possible when the buffer is smaller
//!   than the payload, i.e. the datagram was cut — is reported as
//!   `Recv::Truncated` and never decoded. The truncated prefix still
//!   carries the (intact) header, so the drop can be attributed to an
//!   observation domain and a claimed record count.
//! * **Header peeking.** Fan-out by observation domain must not wait for
//!   template state: [`peek`] reads domain, sequence and the claimed
//!   record count straight from the format header.
//!
//! * **Kernel buffer tuning.** `SO_RCVBUF` defaults to the kernel's
//!   `rmem_default`, which a burst of large datagrams overruns long
//!   before the receiver thread falls behind. `RecvSocket::set_rcvbuf`
//!   grows it through a raw `setsockopt` call (a two-symbol
//!   `extern "C"` binding — no libc dependency) and reads the granted
//!   size back, so callers see exactly what the kernel clamped them to
//!   (`net.core.rmem_max`). Senders that must not lose datagrams still
//!   bound their in-flight window (see [`crate::daemon`]); the buffer is
//!   the margin for senders that cannot.

use lockdown_base::net::{is_tick, POLL};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

/// Raw `SO_RCVBUF` get/set on an already-bound socket.
///
/// `std::net` exposes no buffer-size API and the workspace links no libc
/// crate, so the two syscall wrappers are declared directly: on Linux
/// both live in the C runtime the binary is linked against anyway. The
/// `unsafe` surface is exactly two FFI calls on stack-owned integers —
/// no pointers outlive the call.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sockopt {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::os::fd::AsRawFd;

    /// `SOL_SOCKET` on Linux.
    const SOL_SOCKET: c_int = 1;
    /// `SO_RCVBUF` on Linux.
    const SO_RCVBUF: c_int = 8;

    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut u32,
        ) -> c_int;
    }

    /// Request a receive buffer of `bytes`; returns what the kernel
    /// granted (it doubles the request for bookkeeping overhead and
    /// clamps it to `net.core.rmem_max`).
    pub(crate) fn set_rcvbuf(sock: &impl AsRawFd, bytes: usize) -> io::Result<usize> {
        let requested = bytes.min(c_int::MAX as usize) as c_int;
        let len = std::mem::size_of::<c_int>() as u32;
        let rc = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                (&requested as *const c_int).cast(),
                len,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        rcvbuf(sock)
    }

    /// The socket's current receive-buffer size as the kernel reports it.
    pub(crate) fn rcvbuf(sock: &impl AsRawFd) -> io::Result<usize> {
        let mut value: c_int = 0;
        let mut len = std::mem::size_of::<c_int>() as u32;
        let rc = unsafe {
            getsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                (&mut value as *mut c_int).cast(),
                &mut len,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(value.max(0) as usize)
    }
}

/// Non-Linux fallback: buffer tuning is a no-op request the caller sees
/// as unsupported rather than silently ignored.
#[cfg(not(target_os = "linux"))]
mod sockopt {
    use std::io;
    use std::os::fd::AsRawFd;

    pub(crate) fn set_rcvbuf(_sock: &impl AsRawFd, _bytes: usize) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_RCVBUF tuning is only wired up for Linux",
        ))
    }

    pub(crate) fn rcvbuf(_sock: &impl AsRawFd) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_RCVBUF tuning is only wired up for Linux",
        ))
    }
}

use lockdown_flow::ipfix;
use lockdown_flow::netflow::{v5, v9};
use lockdown_flow::prelude::*;

pub use lockdown_flow::wire::MAX_UDP_PAYLOAD;

/// Default receive buffer: strictly larger than [`MAX_UDP_PAYLOAD`], so a
/// full-buffer read is impossible and truncation cannot go undetected.
pub(crate) const RECV_BUF_LEN: usize = 65_536;

/// Format-level header fields readable without template state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePeek {
    /// Observation domain: v9 source id, IPFIX domain id, v5 engine
    /// type/id pair (16 bits — see `v5::encode`).
    pub domain: u32,
    /// Wire sequence number.
    pub sequence: u32,
    /// Records the datagram claims to carry: exact for v5 (header count),
    /// an upper bound for v9 (header count includes template records),
    /// and 0 for IPFIX (no header count; the decoder learns it).
    pub claimed_records: u32,
}

/// Peek `(domain, sequence, claimed records)` from a datagram header.
/// `None` when the bytes do not parse as a `format` header.
pub fn peek(format: ExportFormat, bytes: &[u8]) -> Option<WirePeek> {
    match format {
        ExportFormat::NetflowV5 => {
            // check() validates the length arithmetic of the whole packet,
            // which a truncated prefix fails; decode the fixed header
            // fields directly so attribution survives truncation.
            header_v5(bytes)
        }
        ExportFormat::NetflowV9 => v9::check(bytes).ok().map(|h| WirePeek {
            domain: h.source_id,
            sequence: h.sequence,
            claimed_records: u32::from(h.count),
        }),
        ExportFormat::Ipfix => ipfix::check(bytes).ok().map(|h| WirePeek {
            domain: h.domain_id,
            sequence: h.sequence,
            claimed_records: 0,
        }),
    }
}

/// v5 header fields from the fixed 24-byte prefix, without requiring the
/// record payload to be present (truncation attribution needs this).
fn header_v5(bytes: &[u8]) -> Option<WirePeek> {
    if let Ok(h) = v5::check(bytes) {
        return Some(WirePeek {
            domain: (u32::from(h.engine_type) << 8) | u32::from(h.engine_id),
            sequence: h.flow_sequence,
            claimed_records: u32::from(h.count),
        });
    }
    if bytes.len() < 24 || u16::from_be_bytes([bytes[0], bytes[1]]) != 5 {
        return None;
    }
    Some(WirePeek {
        domain: (u32::from(bytes[20]) << 8) | u32::from(bytes[21]),
        sequence: u32::from_be_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]),
        claimed_records: u32::from(u16::from_be_bytes([bytes[2], bytes[3]])),
    })
}

/// One `recv` outcome.
#[derive(Debug)]
pub(crate) enum Recv {
    /// A complete datagram.
    Datagram(Vec<u8>),
    /// A datagram that filled the receive buffer: its tail was cut by the
    /// kernel, so only the (header-bearing) prefix is available and it
    /// must not be decoded.
    Truncated(Vec<u8>),
    /// The poll interval elapsed with nothing to read.
    TimedOut,
}

/// A bound, polling UDP receive socket.
#[derive(Debug)]
pub(crate) struct RecvSocket {
    socket: UdpSocket,
    buf: Vec<u8>,
}

impl RecvSocket {
    /// Bind `addr` with a `buf_len`-byte receive buffer. [`RECV_BUF_LEN`]
    /// is truncation-proof; smaller buffers make truncation *possible* —
    /// used by tests to exercise the truncation path without crafting
    /// >64 KiB datagrams.
    pub(crate) fn bind_with_buffer<A: ToSocketAddrs>(
        addr: A,
        buf_len: usize,
    ) -> io::Result<RecvSocket> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(POLL))?;
        Ok(RecvSocket {
            socket,
            buf: vec![0u8; buf_len.max(64)],
        })
    }

    /// The bound local address.
    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Grow the kernel receive buffer (`SO_RCVBUF`) to `bytes`; returns
    /// the size actually granted. The kernel doubles the request for its
    /// own bookkeeping and clamps it to `net.core.rmem_max`, so the
    /// return value is how callers learn the clamp bit.
    pub(crate) fn set_rcvbuf(&self, bytes: usize) -> io::Result<usize> {
        sockopt::set_rcvbuf(&self.socket, bytes)
    }

    /// The kernel receive-buffer size currently in effect.
    pub(crate) fn rcvbuf(&self) -> io::Result<usize> {
        sockopt::rcvbuf(&self.socket)
    }

    /// Receive one datagram, classifying truncation; blocks at most
    /// [`POLL`]. Interrupted reads surface as [`Recv::TimedOut`] so the
    /// caller's poll loop simply retries.
    pub(crate) fn recv(&mut self) -> io::Result<Recv> {
        match self.socket.recv(&mut self.buf) {
            Ok(n) if n >= self.buf.len() => Ok(Recv::Truncated(self.buf[..n].to_vec())),
            Ok(n) => Ok(Recv::Datagram(self.buf[..n].to_vec())),
            Err(e) if is_tick(&e) => Ok(Recv::TimedOut),
            Err(e) => Err(e),
        }
    }
}

/// An unbound sending socket for exporter-side emission to a collectd.
#[derive(Debug)]
pub struct SendSocket {
    socket: UdpSocket,
}

impl SendSocket {
    /// An ephemeral local socket to send from.
    pub fn open() -> io::Result<SendSocket> {
        Ok(SendSocket {
            socket: UdpSocket::bind("127.0.0.1:0")?,
        })
    }

    /// Send one datagram to `target`.
    pub fn send_to(&self, bytes: &[u8], target: SocketAddr) -> io::Result<()> {
        let n = self.socket.send_to(bytes, target)?;
        if n != bytes.len() {
            return Err(io::Error::other(format!(
                "short UDP send: {n} of {} bytes",
                bytes.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_timeout() {
        let mut rx = RecvSocket::bind_with_buffer("127.0.0.1:0", RECV_BUF_LEN).unwrap();
        let addr = rx.local_addr().unwrap();
        let tx = SendSocket::open().unwrap();
        tx.send_to(b"hello", addr).unwrap();
        loop {
            match rx.recv().unwrap() {
                Recv::Datagram(b) => {
                    assert_eq!(b, b"hello");
                    break;
                }
                Recv::TimedOut => continue,
                Recv::Truncated(_) => panic!("full-size buffer cannot truncate"),
            }
        }
        assert!(matches!(rx.recv().unwrap(), Recv::TimedOut));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rcvbuf_request_is_granted_and_readable() {
        let rx = RecvSocket::bind_with_buffer("127.0.0.1:0", RECV_BUF_LEN).unwrap();
        let default = rx.rcvbuf().expect("getsockopt");
        assert!(default > 0, "kernel always grants some buffer");
        // A small request is always under rmem_max, so the grant must be
        // at least the request (Linux doubles it).
        let granted = rx.set_rcvbuf(64 * 1024).expect("setsockopt");
        assert!(granted >= 64 * 1024, "granted {granted} for a 64 KiB ask");
        assert_eq!(rx.rcvbuf().unwrap(), granted, "readback is stable");
        // An absurd request is clamped, not an error.
        let clamped = rx.set_rcvbuf(1 << 40).expect("clamped setsockopt");
        assert!(
            clamped >= granted,
            "clamp never shrinks below a prior grant"
        );
    }

    #[test]
    fn small_buffer_flags_truncation() {
        let mut rx = RecvSocket::bind_with_buffer("127.0.0.1:0", 64).unwrap();
        let addr = rx.local_addr().unwrap();
        let tx = SendSocket::open().unwrap();
        tx.send_to(&[0xAB; 300], addr).unwrap();
        loop {
            match rx.recv().unwrap() {
                Recv::Truncated(prefix) => {
                    assert_eq!(prefix.len(), 64);
                    break;
                }
                Recv::TimedOut => continue,
                Recv::Datagram(_) => panic!("300-byte datagram must truncate in a 64-byte buffer"),
            }
        }
    }

    #[test]
    fn peeks_all_three_formats() {
        use lockdown_flow::exporter::{Exporter, ExporterConfig};
        use lockdown_flow::time::Date;
        use std::net::Ipv4Addr;
        let boot = Date::new(2020, 3, 25).midnight();
        let start = boot.add_hours(1);
        let record = FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(203, 0, 113, 7),
                dst_addr: Ipv4Addr::new(192, 0, 2, 1),
                src_port: 55_000,
                dst_port: 443,
                protocol: IpProtocol::Tcp,
            },
            start,
        )
        .end(start.add_secs(12))
        .bytes(90_000)
        .packets(70)
        .build();
        for format in [
            ExportFormat::NetflowV5,
            ExportFormat::NetflowV9,
            ExportFormat::Ipfix,
        ] {
            let mut cfg = ExporterConfig::new(format, boot);
            cfg.domain_id = 0x0102;
            cfg.initial_sequence = 7;
            let mut ex = Exporter::new(cfg);
            let pkts = ex.export_all(&[record], start.add_secs(60));
            assert_eq!(pkts.len(), 1, "{format:?}: one record, one datagram");
            let p = peek(format, &pkts[0]).expect("header must peek");
            assert_eq!(p.domain, 0x0102, "{format:?} domain");
            assert_eq!(p.sequence, 7, "{format:?} first-packet sequence");
            match format {
                // v5 header count is the exact record count.
                ExportFormat::NetflowV5 => assert_eq!(p.claimed_records, 1),
                // v9 header count includes template records: upper bound.
                ExportFormat::NetflowV9 => assert!(p.claimed_records >= 1),
                // IPFIX has no header count.
                ExportFormat::Ipfix => assert_eq!(p.claimed_records, 0),
            }
        }
    }

    #[test]
    fn v5_peek_survives_truncation_to_header_prefix() {
        use lockdown_flow::netflow::v5;
        use lockdown_flow::time::Date;
        use std::net::Ipv4Addr;
        let boot = Date::new(2020, 3, 25).midnight();
        let start = boot.add_hours(1);
        let record = FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(203, 0, 113, 7),
                dst_addr: Ipv4Addr::new(192, 0, 2, 1),
                src_port: 55_000,
                dst_port: 443,
                protocol: IpProtocol::Tcp,
            },
            start,
        )
        .end(start.add_secs(12))
        .bytes(90_000)
        .packets(70)
        .build();
        let pkt = v5::encode_with_engine(&[record, record], start.add_secs(60), boot, 41, 0x0304);
        // A kernel-truncated read keeps only a prefix; the fixed header
        // still attributes domain, sequence and claimed count.
        let p = peek(ExportFormat::NetflowV5, &pkt[..32]).expect("prefix must peek");
        assert_eq!(p.domain, 0x0304);
        assert_eq!(p.sequence, 41);
        assert_eq!(p.claimed_records, 2);
        // But an intact decode of the full packet still works.
        assert!(peek(ExportFormat::NetflowV5, &pkt).is_some());
        assert!(peek(ExportFormat::NetflowV5, &[0u8; 10]).is_none());
    }
}
