//! The coordinator/worker wire protocol: length-prefixed frames.
//!
//! Same school as the HTTP plane and the collection daemon — explicit
//! bytes over `std::net`, explicit limits, no serialization dependency.
//! Every frame is
//!
//! ```text
//! "LKSH" ‖ version u8 ‖ type u8 ‖ payload_len u32 BE ‖ check u32 BE ‖ payload
//! ```
//!
//! `check` is the CRC-32 (IEEE, the archive's checksum) of the payload,
//! xor-folded with a constant derived from the type byte — so a flipped
//! payload byte fails the CRC and a flipped type byte shifts the fold,
//! and neither can decode as a silently-wrong frame. Payload integers
//! are big-endian via the analysis codec's primitives, so the
//! consumer-state frames riding inside [`T_DONE`] use the very same
//! byte conventions as their envelope.
//!
//! The conversation is strictly coordinator-driven:
//!
//! ```text
//! coordinator                         worker
//!   HELLO{identity}          ->
//!                            <-  HELLO_ACK{identity, retained ranges}
//!   ASSIGN{range, attempt}   ->
//!                            <-  HEARTBEAT  (every ~100 ms while busy)
//!                            <-  DONE{slice outcome} | FAILED{message}
//!   ...more ASSIGNs...
//!   SHUTDOWN                 ->       (worker exits)
//! ```
//!
//! Identity (seed, scenario hash, plan hash) is exchanged both ways and
//! checked by the coordinator before any assignment: a worker built
//! against a different scenario or fidelity must be rejected up front,
//! not discovered as silently-wrong figures. The HELLO_ACK additionally
//! carries the worker's *retained range inventory* — slices it has
//! already completed and still holds encoded — so a coordinator that
//! reconnects after a wire failure can re-adopt finished work instead
//! of recomputing it (see [`crate::worker`]).
//!
//! Reads are hostile-wire hardened: [`read_frame_deadline`] holds a
//! monotonic whole-frame deadline across every `read` call (a peer
//! trickling one byte per poll tick cannot reset the clock), and
//! payloads are read in capped chunks so a corrupt length field costs
//! bounded memory before the check rejects the frame.

use lockdown_analysis::codec::{self, StateReader};
use lockdown_core::engine::SliceOutcome;
use lockdown_core::supervisor::QuarantinedCell;
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_store::SegmentMeta;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::{Cell, Stream};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::ShardError;

/// Frame magic: every frame starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"LKSH";

/// Protocol version byte; bumped on any incompatible frame change.
/// v2 added the per-frame CRC-32 check and the HELLO_ACK retained-range
/// inventory; v3 locates each DONE segment by pack tag, offset and
/// length. Frames of any other version are rejected by name.
pub const PROTO_VERSION: u8 = 3;

/// Hard ceiling on a frame payload. A full-suite slice outcome at high
/// fidelity is a few MB of consumer state; 256 MiB is "corrupt peer",
/// not "big slice".
pub const MAX_PAYLOAD: u32 = 256 << 20;

/// Payloads are read in increments of at most this much, so a flipped
/// length byte claiming (say) 200 MiB costs one chunk of allocation per
/// chunk actually received, not an eager up-front `vec![0; claim]`.
pub const READ_CHUNK: usize = 64 << 10;

/// Coordinator → worker: identity announcement.
pub const T_HELLO: u8 = 1;
/// Worker → coordinator: identity echo plus retained-range inventory.
pub const T_HELLO_ACK: u8 = 2;
/// Coordinator → worker: run one cell-index range.
pub const T_ASSIGN: u8 = 3;
/// Worker → coordinator: still alive, still computing.
pub const T_HEARTBEAT: u8 = 4;
/// Worker → coordinator: the slice outcome (states, tallies, segments).
pub const T_DONE: u8 = 5;
/// Worker → coordinator: the slice failed but the worker is healthy.
pub const T_FAILED: u8 = 6;
/// Coordinator → worker: no more work; exit cleanly.
pub const T_SHUTDOWN: u8 = 7;

/// Bytes of frame header preceding the payload.
pub const HEADER_LEN: usize = 4 + 1 + 1 + 4 + 4;

/// Poll tick for deadline-guarded socket reads.
const POLL: Duration = Duration::from_millis(50);

/// Identity of one side of the shard conversation. Mirrors the archive
/// manifest key: two processes with equal identities generate equal
/// flows for equal cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    /// Generator seed.
    pub seed: u64,
    /// Scenario fingerprint (config + measure-file behaviour).
    pub scenario_hash: u64,
    /// Full-suite cell-plan fingerprint.
    pub plan_hash: u64,
    /// Cells in the full-suite plan — the assignment index space.
    pub cells: u64,
}

/// One range assignment: run plan cells `start..end` (indices into the
/// deduplicated sorted cell list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assign {
    /// First cell index.
    pub start: u32,
    /// One past the last cell index.
    pub end: u32,
    /// Zero-based attempt number (for the worker's own fault schedule).
    pub attempt: u32,
    /// Chaos: die immediately instead of running (simulated crash).
    pub kill: bool,
    /// Chaos: go silent for this many milliseconds, then die. Zero
    /// means no stall.
    pub stall_ms: u32,
}

/// The frame check value: CRC-32 of the payload, xor-folded with a
/// splitmix-derived constant of the type byte. One flipped byte in
/// either fails verification; the fold means a (kind, payload) pair can
/// never verify as a different kind with the same payload.
pub fn frame_check(kind: u8, payload: &[u8]) -> u32 {
    lockdown_base::crc::crc32(payload)
        ^ 0x9e37_79b9u32.wrapping_mul(u32::from(kind).wrapping_add(1))
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "frame payload over limit: {}",
        payload.len()
    );
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = PROTO_VERSION;
    header[5] = kind;
    header[6..10].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[10..].copy_from_slice(&frame_check(kind, payload).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Validate a complete header; returns `(kind, payload_len, check)`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32, u32), ShardError> {
    if header[..4] != MAGIC {
        return Err(ShardError::Protocol(format!(
            "bad frame magic {:02x?}",
            &header[..4]
        )));
    }
    if header[4] != PROTO_VERSION {
        return Err(ShardError::Protocol(format!(
            "protocol version {} (this build speaks {PROTO_VERSION})",
            header[4]
        )));
    }
    let kind = header[5];
    let len = u32::from_be_bytes(header[6..10].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(ShardError::Protocol(format!(
            "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
        )));
    }
    let check = u32::from_be_bytes(header[10..].try_into().expect("4 bytes"));
    Ok((kind, len, check))
}

/// Verify a received payload against the header's check value.
fn verify_check(kind: u8, payload: &[u8], check: u32) -> Result<(), ShardError> {
    let computed = frame_check(kind, payload);
    if computed != check {
        return Err(ShardError::Protocol(format!(
            "frame CRC mismatch on type {kind}: header says {check:#010x}, \
             payload is {computed:#010x} — corrupt wire"
        )));
    }
    Ok(())
}

/// Fill `buf` from the socket under a monotonic deadline. The deadline
/// is *absolute*: progress does not extend it, so a peer delivering one
/// byte per poll tick still runs out of clock.
fn read_full_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    what: &str,
) -> Result<(), ShardError> {
    let mut filled = 0;
    while filled < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return Err(ShardError::Timeout(format!(
                "{what}: whole-frame deadline exceeded after {filled} of {} bytes",
                buf.len()
            )));
        }
        let tick = (deadline - now).min(POLL);
        stream
            .set_read_timeout(Some(tick))
            .map_err(|e| ShardError::io("arming frame deadline", &e))?;
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ShardError::Protocol(format!(
                    "{what}: peer closed the connection mid-frame \
                     ({filled} of {} bytes)",
                    buf.len()
                )))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(ShardError::io(what, &e)),
        }
    }
    Ok(())
}

/// Read one frame from a socket with an idle budget and a whole-frame
/// budget.
///
/// * `idle` bounds the silence *before* the first byte — `None` waits
///   forever (a worker idling between assignments), `Some(d)` turns
///   silence past `d` into [`ShardError::Timeout`] (a coordinator
///   holding a heartbeat clock).
/// * `frame` bounds the whole frame *after* its first byte lands, as
///   one monotonic deadline across every read. A trickling or stalled
///   peer surfaces as a named timeout, never a hang — per-`read`
///   timeouts alone would reset with every byte delivered.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary. The socket's
/// read-timeout setting is clobbered by this call.
pub fn read_frame_deadline(
    stream: &mut TcpStream,
    idle: Option<Duration>,
    frame: Duration,
) -> Result<Option<(u8, Vec<u8>)>, ShardError> {
    // Phase one: await the first byte under the idle budget.
    let idle_deadline = idle.map(|d| Instant::now() + d);
    let mut first = [0u8; 1];
    loop {
        let tick = match idle_deadline {
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(ShardError::Timeout(format!(
                        "no frame within {}ms",
                        idle.expect("deadline implies budget").as_millis()
                    )));
                }
                (deadline - now).min(POLL)
            }
            None => POLL,
        };
        stream
            .set_read_timeout(Some(tick))
            .map_err(|e| ShardError::io("arming idle timeout", &e))?;
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(ShardError::io("reading frame header", &e)),
        }
    }

    // Phase two: the frame has started; everything else must land
    // before one absolute deadline.
    let deadline = Instant::now() + frame;
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    read_full_deadline(stream, &mut header[1..], deadline, "reading frame header")?;
    let (kind, len, check) = parse_header(&header)?;
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let take = (len - payload.len()).min(READ_CHUNK);
        let filled = payload.len();
        payload.resize(filled + take, 0);
        read_full_deadline(
            stream,
            &mut payload[filled..],
            deadline,
            "reading frame payload",
        )?;
    }
    verify_check(kind, &payload, check)?;
    Ok(Some((kind, payload)))
}

fn reader<'a>(buf: &'a [u8]) -> StateReader<'a> {
    StateReader::new("shard frame", buf)
}

fn proto_err(e: impl std::fmt::Display) -> ShardError {
    ShardError::Protocol(e.to_string())
}

/// Encode an identity (HELLO payload).
pub fn encode_identity(id: &Identity) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.put_u64_be(id.seed);
    out.put_u64_be(id.scenario_hash);
    out.put_u64_be(id.plan_hash);
    out.put_u64_be(id.cells);
    out
}

/// Decode an identity.
pub fn decode_identity(buf: &[u8]) -> Result<Identity, ShardError> {
    let mut r = reader(buf);
    decode_identity_from(&mut r)
}

fn decode_identity_from(r: &mut StateReader<'_>) -> Result<Identity, ShardError> {
    Ok(Identity {
        seed: r.u64("seed").map_err(proto_err)?,
        scenario_hash: r.u64("scenario hash").map_err(proto_err)?,
        plan_hash: r.u64("plan hash").map_err(proto_err)?,
        cells: r.u64("cell count").map_err(proto_err)?,
    })
}

/// Encode a HELLO_ACK: the worker's identity plus the inventory of
/// completed ranges it still retains and can re-serve without
/// recomputation.
pub fn encode_hello_ack(id: &Identity, retained: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + 8 + retained.len() * 8);
    out.put_u64_be(id.seed);
    out.put_u64_be(id.scenario_hash);
    out.put_u64_be(id.plan_hash);
    out.put_u64_be(id.cells);
    out.put_u64_be(retained.len() as u64);
    for &(start, end) in retained {
        out.put_u32_be(start);
        out.put_u32_be(end);
    }
    out
}

/// Decode a HELLO_ACK into `(identity, retained ranges)`.
pub fn decode_hello_ack(buf: &[u8]) -> Result<(Identity, Vec<(u32, u32)>), ShardError> {
    let mut r = reader(buf);
    let id = decode_identity_from(&mut r)?;
    let n = r.len("retained ranges", 8).map_err(proto_err)?;
    let mut retained = Vec::with_capacity(n);
    for _ in 0..n {
        let start = r.u32("retained range start").map_err(proto_err)?;
        let end = r.u32("retained range end").map_err(proto_err)?;
        if end <= start {
            return Err(ShardError::Protocol(format!(
                "retained range {start}..{end} is empty or inverted"
            )));
        }
        retained.push((start, end));
    }
    Ok((id, retained))
}

/// Encode an assignment.
pub fn encode_assign(a: &Assign) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.put_u32_be(a.start);
    out.put_u32_be(a.end);
    out.put_u32_be(a.attempt);
    codec::put_bool(&mut out, a.kill);
    out.put_u32_be(a.stall_ms);
    out
}

/// Decode an assignment.
pub fn decode_assign(buf: &[u8]) -> Result<Assign, ShardError> {
    let mut r = reader(buf);
    Ok(Assign {
        start: r.u32("range start").map_err(proto_err)?,
        end: r.u32("range end").map_err(proto_err)?,
        attempt: r.u32("attempt").map_err(proto_err)?,
        kill: r.bool("kill flag").map_err(proto_err)?,
        stall_ms: r.u32("stall ms").map_err(proto_err)?,
    })
}

/// Encode a FAILED message.
pub fn encode_failed(message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + message.len());
    put_str(&mut out, message);
    out
}

/// Decode a FAILED message.
pub fn decode_failed(buf: &[u8]) -> Result<String, ShardError> {
    get_str(&mut reader(buf), "failure message")
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_be(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut StateReader<'_>, what: &'static str) -> Result<String, ShardError> {
    let len = r.u32(what).map_err(proto_err)? as usize;
    let mut bytes = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        bytes.push(r.u8(what).map_err(proto_err)?);
    }
    String::from_utf8(bytes).map_err(|_| ShardError::Protocol(format!("{what} is not UTF-8")))
}

/// Stream → stable wire code. Indices 0..7 are `VantagePoint::ALL`
/// order; the two non-vantage streams follow.
fn stream_code(stream: Stream) -> u8 {
    match stream {
        Stream::Vantage(vp) => VantagePoint::ALL
            .iter()
            .position(|v| *v == vp)
            .expect("every vantage point is in ALL") as u8,
        Stream::IspTransit => VantagePoint::ALL.len() as u8,
        Stream::Edu => VantagePoint::ALL.len() as u8 + 1,
    }
}

fn stream_from_code(code: u8) -> Result<Stream, ShardError> {
    let n = VantagePoint::ALL.len() as u8;
    match code {
        c if c < n => Ok(Stream::Vantage(VantagePoint::ALL[c as usize])),
        c if c == n => Ok(Stream::IspTransit),
        c if c == n + 1 => Ok(Stream::Edu),
        other => Err(ShardError::Protocol(format!("unknown stream code {other}"))),
    }
}

fn put_cell(out: &mut Vec<u8>, cell: Cell) {
    out.push(stream_code(cell.stream));
    codec::put_i64(out, cell.date.day_number());
    out.push(cell.hour);
}

fn get_cell(r: &mut StateReader<'_>) -> Result<Cell, ShardError> {
    let stream = stream_from_code(r.u8("stream code").map_err(proto_err)?)?;
    let date = Date::from_day_number(r.i64("cell date").map_err(proto_err)?);
    let hour = r.u8("cell hour").map_err(proto_err)?;
    if hour >= 24 {
        return Err(ShardError::Protocol(format!(
            "cell hour {hour} out of range"
        )));
    }
    Ok(Cell { stream, date, hour })
}

/// Encode a slice outcome (DONE payload).
pub fn encode_outcome(o: &SliceOutcome) -> Vec<u8> {
    let state_bytes: usize = o.states.iter().map(|s| s.len() + 4).sum();
    let mut out = Vec::with_capacity(64 + state_bytes + o.segments.len() * 62);
    out.put_u64_be(o.flows);
    out.put_u64_be(o.generated);
    out.put_u64_be(o.replayed);
    out.put_u64_be(o.resumed);
    out.put_u64_be(o.retries);
    out.put_u64_be(o.states.len() as u64);
    for state in &o.states {
        out.put_u32_be(state.len() as u32);
        out.extend_from_slice(state);
    }
    out.put_u64_be(o.segments.len() as u64);
    for m in &o.segments {
        put_cell(&mut out, m.cell);
        out.put_u64_be(m.records);
        out.put_u64_be(m.pack_tag);
        out.put_u64_be(m.offset);
        out.put_u64_be(m.len);
        out.put_u32_be(m.crc);
        out.put_u64_be(m.min_start);
        out.put_u64_be(m.max_end);
    }
    out.put_u64_be(o.quarantined.len() as u64);
    for q in &o.quarantined {
        put_cell(&mut out, q.cell);
        out.put_u32_be(q.attempts);
        put_str(&mut out, &q.error);
    }
    out
}

/// Decode a slice outcome.
pub fn decode_outcome(buf: &[u8]) -> Result<SliceOutcome, ShardError> {
    let mut r = reader(buf);
    let mut o = SliceOutcome {
        flows: r.u64("flow tally").map_err(proto_err)?,
        generated: r.u64("generated tally").map_err(proto_err)?,
        replayed: r.u64("replayed tally").map_err(proto_err)?,
        resumed: r.u64("resumed tally").map_err(proto_err)?,
        retries: r.u64("retry tally").map_err(proto_err)?,
        ..SliceOutcome::default()
    };
    let n_states = r.len("consumer states", 4).map_err(proto_err)?;
    for _ in 0..n_states {
        let len = r.u32("state frame length").map_err(proto_err)? as usize;
        let mut frame = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            frame.push(r.u8("state frame byte").map_err(proto_err)?);
        }
        o.states.push(frame);
    }
    let n_segments = r.len("segment inventory", 10 + 52).map_err(proto_err)?;
    for _ in 0..n_segments {
        let cell = get_cell(&mut r)?;
        o.segments.push(SegmentMeta {
            cell,
            records: r.u64("segment records").map_err(proto_err)?,
            pack_tag: r.u64("segment pack tag").map_err(proto_err)?,
            offset: r.u64("segment offset").map_err(proto_err)?,
            len: r.u64("segment length").map_err(proto_err)?,
            crc: r.u32("segment crc").map_err(proto_err)?,
            min_start: r.u64("segment min start").map_err(proto_err)?,
            max_end: r.u64("segment max end").map_err(proto_err)?,
        });
    }
    let n_quar = r.len("quarantine list", 10 + 8).map_err(proto_err)?;
    for _ in 0..n_quar {
        let cell = get_cell(&mut r)?;
        let attempts = r.u32("quarantine attempts").map_err(proto_err)?;
        let error = get_str(&mut r, "quarantine error")?;
        o.quarantined.push(QuarantinedCell {
            cell,
            attempts,
            error,
        });
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn hello_ack_roundtrips_inventory() {
        let id = Identity {
            seed: 1,
            scenario_hash: 2,
            plan_hash: 3,
            cells: 96,
        };
        for retained in [vec![], vec![(0u32, 8u32)], vec![(0, 8), (16, 24), (88, 96)]] {
            let bytes = encode_hello_ack(&id, &retained);
            let (got_id, got_ranges) = decode_hello_ack(&bytes).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(got_ranges, retained);
        }
        // A plain identity (v1-era HELLO payload shape) is NOT a valid
        // hello-ack: the inventory count is mandatory.
        assert!(decode_hello_ack(&encode_identity(&id)).is_err());
        // Inverted ranges are rejected by name.
        let bad = encode_hello_ack(&id, &[(9, 9)]);
        let err = decode_hello_ack(&bad).unwrap_err();
        assert!(err.to_string().contains("empty or inverted"), "{err}");
    }

    #[test]
    fn a_trickling_peer_hits_the_whole_frame_deadline() {
        // Satellite regression: one byte per poll tick used to reset a
        // per-read timeout forever; the monotonic deadline must fire.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let trickler = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut wire = Vec::new();
            write_frame(&mut wire, T_DONE, &vec![7u8; 4096]).unwrap();
            for b in wire {
                if s.write_all(&[b]).is_err() {
                    return; // reader gave up — exactly the point
                }
                let _ = s.flush();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let err = read_frame_deadline(
            &mut stream,
            Some(Duration::from_secs(5)),
            Duration::from_millis(300),
        )
        .unwrap_err();
        assert!(
            matches!(err, ShardError::Timeout(_)),
            "wanted a timeout, got {err}"
        );
        assert!(err.to_string().contains("deadline"), "{err}");
        // The clock was monotonic across reads: ~300ms, not 20ms × frame len.
        assert!(started.elapsed() < Duration::from_secs(3));
        drop(stream);
        trickler.join().unwrap();
    }

    #[test]
    fn a_slow_but_live_peer_finishes_within_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut wire = Vec::new();
            write_frame(&mut wire, T_FAILED, &encode_failed("slow but fine")).unwrap();
            // Dribble in three installments, well inside the budget.
            for part in wire.chunks(wire.len() / 3 + 1) {
                s.write_all(part).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let (kind, payload) = read_frame_deadline(
            &mut stream,
            Some(Duration::from_secs(5)),
            Duration::from_secs(2),
        )
        .unwrap()
        .unwrap();
        assert_eq!(kind, T_FAILED);
        assert_eq!(decode_failed(&payload).unwrap(), "slow but fine");
        writer.join().unwrap();
    }

    #[test]
    fn idle_budget_times_out_an_utterly_silent_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let holder = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(600));
            drop(s);
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let err = read_frame_deadline(
            &mut stream,
            Some(Duration::from_millis(150)),
            Duration::from_secs(1),
        )
        .unwrap_err();
        assert!(matches!(err, ShardError::Timeout(_)), "{err}");
        assert!(err.to_string().contains("no frame within 150ms"), "{err}");
        holder.join().unwrap();
    }

    #[test]
    fn every_stream_code_roundtrips() {
        let mut streams: Vec<Stream> = VantagePoint::ALL.into_iter().map(Stream::Vantage).collect();
        streams.push(Stream::IspTransit);
        streams.push(Stream::Edu);
        for s in streams {
            assert_eq!(stream_from_code(stream_code(s)).unwrap(), s);
        }
        assert!(stream_from_code(200).is_err());
    }
}
