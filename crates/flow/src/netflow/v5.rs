//! NetFlow version 5 — the fixed-format classic.
//!
//! The L-ISP vantage point in the paper uses "NetFlow at all their border
//! routers" (§2); v5 is the lowest common denominator of router NetFlow and
//! the simplest of the three formats implemented here: a 24-byte header
//! followed by up to 30 fixed 48-byte records.
//!
//! v5 limitations faithfully reproduced: AS numbers are 16-bit (records with
//! 32-bit ASNs are clamped to `AS_TRANS` 23456, as real exporters do), and
//! flow timestamps are expressed in router uptime milliseconds relative to
//! the export time, so decoded timestamps have second granularity after the
//! uptime conversion.

use crate::protocol::{IpProtocol, TcpFlags};
use crate::record::{Direction, FlowKey, FlowRecord};
use crate::time::{uptime, Timestamp};
use crate::wire::{Cursor, PutBe, WireError, WireResult};
use std::net::Ipv4Addr;

/// Protocol version constant.
pub(crate) const VERSION: u16 = 5;
/// Header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Record size in bytes.
pub(crate) const RECORD_LEN: usize = 48;
/// Maximum records per packet (per Cisco's format definition).
pub const MAX_RECORDS: usize = 30;
/// RFC 6793 transition ASN substituted when a 32-bit ASN cannot be encoded.
pub(crate) const AS_TRANS: u16 = 23_456;

/// Decoded NetFlow v5 packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V5Header {
    /// Number of records in the packet.
    pub count: u16,
    /// Milliseconds since the exporting device booted.
    pub sys_uptime_ms: u32,
    /// Export time, Unix seconds.
    pub unix_secs: u32,
    /// Sequence number of the first flow in this packet.
    pub flow_sequence: u32,
    /// Exporter engine type / id.
    pub engine_type: u8,
    /// Exporter engine id.
    pub engine_id: u8,
    /// Sampling mode (2 bits) and interval (14 bits), packed.
    pub sampling: u16,
}

/// Encode a batch of flow records into one v5 packet.
///
/// `export_time` is the packet's export timestamp; flow start/end times are
/// encoded as uptime offsets relative to it, assuming the router booted at
/// Unix time `boot_time`. Panics if more than [`MAX_RECORDS`] records are
/// given (callers batch via [`crate::exporter::Exporter`]).
pub fn encode(
    records: &[FlowRecord],
    export_time: Timestamp,
    boot_time: Timestamp,
    flow_sequence: u32,
) -> Vec<u8> {
    encode_with_engine(records, export_time, boot_time, flow_sequence, 0)
}

/// [`encode`] with an explicit engine type/id pair.
///
/// v5 has no observation-domain field, so the 16-bit domain travels in the
/// engine bytes (type = high byte, id = low byte) — without it, datagrams
/// from different exporters arriving on one real socket are
/// indistinguishable and their interleaved sequence numbers read as
/// phantom loss. The in-process transport never hit this because it
/// carries the domain out of band next to the bytes.
pub fn encode_with_engine(
    records: &[FlowRecord],
    export_time: Timestamp,
    boot_time: Timestamp,
    flow_sequence: u32,
    engine: u16,
) -> Vec<u8> {
    assert!(
        records.len() <= MAX_RECORDS,
        "v5 packet limited to {MAX_RECORDS} records, got {}",
        records.len()
    );
    assert!(export_time >= boot_time, "export before boot");
    // The uptime clock is modular: routers stay up past the ~49.7-day u32
    // wrap, so all uptime fields are encoded mod 2^32 and decoded against
    // the export-time anchor (see `time::uptime`).
    let boot_ms = boot_time.unix() * 1000;
    let export_ms = export_time.unix() * 1000;
    let mut buf = Vec::with_capacity(HEADER_LEN + records.len() * RECORD_LEN);
    buf.put_u16_be(VERSION);
    buf.put_u16_be(records.len() as u16);
    buf.put_u32_be(uptime::to_wire(export_ms, boot_ms));
    buf.put_u32_be(export_time.unix() as u32);
    buf.put_u32_be(0); // unix nanoseconds: generator works at 1 s granularity
    buf.put_u32_be(flow_sequence);
    buf.put_u8_be((engine >> 8) as u8); // engine type: domain high byte
    buf.put_u8_be(engine as u8); // engine id: domain low byte
    buf.put_u16_be(0); // sampling: unsampled

    for r in records {
        // Clamp timestamps into [boot, export]: exporters can emit records
        // for flows still in progress, and collectors see clock skew.
        let first_ms = uptime::record_field(r.start.unix() * 1000, boot_ms, export_ms);
        let last_ms = uptime::record_field(r.end.unix() * 1000, boot_ms, export_ms);
        buf.put_u32_be(u32::from(r.key.src_addr));
        buf.put_u32_be(u32::from(r.key.dst_addr));
        buf.put_u32_be(0); // next hop: not modelled
        buf.put_u16_be(r.input_if);
        buf.put_u16_be(r.output_if);
        // v5 counters are 32-bit; saturate rather than wrap (exporters
        // split long flows before this matters, but the codec must not
        // corrupt counts silently).
        buf.put_u32_be(u32::try_from(r.packets).unwrap_or(u32::MAX));
        buf.put_u32_be(u32::try_from(r.bytes).unwrap_or(u32::MAX));
        buf.put_u32_be(first_ms);
        buf.put_u32_be(last_ms);
        buf.put_u16_be(r.key.src_port);
        buf.put_u16_be(r.key.dst_port);
        buf.put_u8_be(0); // pad1
        buf.put_u8_be(r.tcp_flags.0);
        buf.put_u8_be(r.key.protocol.number());
        buf.put_u8_be(0); // ToS
        buf.put_u16_be(clamp_asn(r.src_as));
        buf.put_u16_be(clamp_asn(r.dst_as));
        buf.put_u8_be(24); // src mask: nominal /24
        buf.put_u8_be(24); // dst mask
        buf.put_u16_be(0); // pad2
    }
    buf
}

/// Clamp a 32-bit ASN into the 16-bit field, substituting [`AS_TRANS`].
fn clamp_asn(asn: u32) -> u16 {
    u16::try_from(asn).unwrap_or(AS_TRANS)
}

/// Cheap structural validation: version, length arithmetic.
///
/// Separated from [`decode`] per the check/parse idiom so collectors can
/// reject garbage before committing to allocation.
pub fn check(buf: &[u8]) -> WireResult<V5Header> {
    let mut c = Cursor::new(buf);
    let version = c.read_u16("v5 version")?;
    if version != VERSION {
        return Err(WireError::BadVersion {
            expected: VERSION,
            found: version,
        });
    }
    let count = c.read_u16("v5 count")?;
    if count as usize > MAX_RECORDS {
        return Err(WireError::BadLength {
            what: "v5 record count",
            value: count as usize,
        });
    }
    let sys_uptime_ms = c.read_u32("v5 uptime")?;
    let unix_secs = c.read_u32("v5 unix secs")?;
    c.read_u32("v5 unix nsecs")?;
    let flow_sequence = c.read_u32("v5 sequence")?;
    let engine_type = c.read_u8("v5 engine type")?;
    let engine_id = c.read_u8("v5 engine id")?;
    let sampling = c.read_u16("v5 sampling")?;
    c.require(count as usize * RECORD_LEN, "v5 records")?;
    Ok(V5Header {
        count,
        sys_uptime_ms,
        unix_secs,
        flow_sequence,
        engine_type,
        engine_id,
        sampling,
    })
}

/// Decode a v5 packet into flow records.
pub fn decode(buf: &[u8]) -> WireResult<(V5Header, Vec<FlowRecord>)> {
    let header = check(buf)?;
    let mut c = Cursor::new(&buf[HEADER_LEN..]);
    // Never reconstruct a boot time by subtracting the (wrapped) uptime
    // from the export clock: it underflows for young exporters and lands
    // ~49.7 days off once the uptime clock has wrapped. Uptime fields are
    // resolved against the export-time anchor instead.
    let export_ms = u64::from(header.unix_secs) * 1000;
    let mut records = Vec::with_capacity(header.count as usize);
    for _ in 0..header.count {
        let src_addr = Ipv4Addr::from(c.read_u32("srcaddr")?);
        let dst_addr = Ipv4Addr::from(c.read_u32("dstaddr")?);
        c.skip(4, "nexthop")?;
        let input_if = c.read_u16("input")?;
        let output_if = c.read_u16("output")?;
        let packets = u64::from(c.read_u32("dPkts")?);
        let bytes = u64::from(c.read_u32("dOctets")?);
        let first_ms = c.read_u32("first")?;
        let last_ms = c.read_u32("last")?;
        let src_port = c.read_u16("srcport")?;
        let dst_port = c.read_u16("dstport")?;
        c.skip(1, "pad1")?;
        let tcp_flags = TcpFlags(c.read_u8("tcp flags")?);
        let protocol = IpProtocol::from_number(c.read_u8("prot")?);
        c.skip(1, "tos")?;
        let src_as = u32::from(c.read_u16("src_as")?);
        let dst_as = u32::from(c.read_u16("dst_as")?);
        c.skip(4, "masks+pad2")?;

        let start = Timestamp::from_unix(
            uptime::from_wire(first_ms, header.sys_uptime_ms, export_ms) / 1000,
        );
        let end = Timestamp::from_unix(
            uptime::from_wire(last_ms, header.sys_uptime_ms, export_ms) / 1000,
        );
        if end < start {
            return Err(WireError::BadField {
                what: "v5 record: flow ends before it starts",
            });
        }
        records.push(FlowRecord {
            key: FlowKey {
                src_addr,
                dst_addr,
                src_port,
                dst_port,
                protocol,
            },
            start,
            end,
            bytes,
            packets,
            tcp_flags,
            input_if,
            output_if,
            src_as,
            dst_as,
            direction: Direction::Unknown,
        });
    }
    Ok((header, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Date;

    fn sample_record(start: Timestamp) -> FlowRecord {
        FlowRecord::builder(
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
        .tcp_flags(TcpFlags::complete_connection())
        .interfaces(3, 9)
        .asns(3_320, 15_169)
        .build()
    }

    #[test]
    fn roundtrip() {
        let boot = Date::new(2020, 3, 1).midnight();
        let export = boot.add_hours(5);
        let recs: Vec<_> = (0..7)
            .map(|i| {
                let mut r = sample_record(export);
                // Flows must start within router uptime and end before export.
                r.start = Timestamp(export.unix() - 100 + i);
                r.end = Timestamp(export.unix() - 88 + i);
                r
            })
            .collect();
        let pkt = encode(&recs, export, boot, 1_000);
        assert_eq!(pkt.len(), HEADER_LEN + 7 * RECORD_LEN);
        let (hdr, out) = decode(&pkt).unwrap();
        assert_eq!(hdr.count, 7);
        assert_eq!(hdr.flow_sequence, 1_000);
        assert_eq!(hdr.unix_secs as u64, export.unix());
        assert_eq!(out.len(), 7);
        for (a, b) in recs.iter().zip(&out) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.packets, b.packets);
            assert_eq!(a.tcp_flags, b.tcp_flags);
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!((a.src_as, a.dst_as), (b.src_as, b.dst_as));
        }
    }

    #[test]
    fn large_asn_becomes_as_trans() {
        let boot = Date::new(2020, 3, 1).midnight();
        let export = boot.add_hours(1);
        let mut r = sample_record(export);
        r.start = Timestamp(export.unix() - 5);
        r.end = Timestamp(export.unix() - 1);
        r.src_as = 397_143; // 32-bit only
        let pkt = encode(&[r], export, boot, 0);
        let (_, out) = decode(&pkt).unwrap();
        assert_eq!(out[0].src_as, u32::from(AS_TRANS));
        assert_eq!(out[0].dst_as, 15_169);
    }

    #[test]
    fn rejects_wrong_version() {
        let boot = Date::new(2020, 3, 1).midnight();
        let mut pkt = encode(&[], boot.add_hours(1), boot, 0);
        pkt[1] = 9;
        assert!(matches!(
            check(&pkt),
            Err(WireError::BadVersion { found: 9, .. })
        ));
    }

    #[test]
    fn rejects_truncated_records() {
        let boot = Date::new(2020, 3, 1).midnight();
        let export = boot.add_hours(1);
        let mut r = sample_record(export);
        r.start = Timestamp(export.unix() - 5);
        r.end = Timestamp(export.unix() - 1);
        let pkt = encode(&[r], export, boot, 0);
        assert!(matches!(
            check(&pkt[..pkt.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_excess_count() {
        let boot = Date::new(2020, 3, 1).midnight();
        let mut pkt = encode(&[], boot.add_hours(1), boot, 0);
        pkt[3] = 31; // count = 31 > MAX_RECORDS
        assert!(matches!(check(&pkt), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn flow_ending_after_export_is_clamped() {
        // A still-running flow (end beyond export time) must encode
        // without panicking; its timestamps clamp to the export instant.
        let boot = Date::new(2020, 3, 17).midnight();
        let export = boot.add_hours(24).add_secs(3_599);
        let mut r = sample_record(export);
        r.start = Timestamp(export.unix() - 10);
        r.end = Timestamp(export.unix() + 120); // crosses the export time
        let pkt = encode(&[r], export, boot, 0);
        let (_, out) = decode(&pkt).unwrap();
        assert_eq!(out[0].start, r.start);
        assert_eq!(out[0].end, export, "end clamps to export time");
    }

    #[test]
    fn empty_packet_roundtrip() {
        let boot = Date::new(2020, 3, 1).midnight();
        let pkt = encode(&[], boot.add_hours(2), boot, 77);
        let (hdr, recs) = decode(&pkt).unwrap();
        assert_eq!(hdr.count, 0);
        assert_eq!(hdr.flow_sequence, 77);
        assert!(recs.is_empty());
    }

    #[test]
    fn uptime_wrap_straddling_flow_roundtrips() {
        // Boot the router ~49.7 days before the export so the u32 uptime
        // clock wraps between the flow's start and the export instant. The
        // pre-fix decoder reconstructed boot = export - wrapped_uptime and
        // placed such starts ~49.7 days in the future, then rejected the
        // record as "ends before it starts".
        let boot = Date::new(2020, 1, 1).midnight();
        let wrap_secs = uptime::WRAP_MS / 1000; // 4_294_967 s
        let export = boot.add_secs(wrap_secs + 10); // uptime just wrapped
        let mut r = sample_record(export);
        r.start = Timestamp(export.unix() - 30); // before the wrap point
        r.end = Timestamp(export.unix() - 5); // after the wrap point
        let pkt = encode(&[r], export, boot, 0);
        let (hdr, out) = decode(&pkt).unwrap();
        assert!(
            u64::from(hdr.sys_uptime_ms) < 20_000,
            "uptime field must have wrapped, got {}",
            hdr.sys_uptime_ms
        );
        assert_eq!(out[0].start, r.start);
        assert_eq!(out[0].end, r.end);
    }

    #[test]
    fn multi_wrap_uptime_decodes_exactly() {
        // An exporter up for > 2 wrap periods: decode stays exact because
        // it is anchored to the export time, not a reconstructed boot.
        let boot = Date::new(2019, 6, 1).midnight();
        let wrap_secs = uptime::WRAP_MS / 1000;
        let export = boot.add_secs(2 * wrap_secs + 500_000);
        let mut r = sample_record(export);
        r.start = Timestamp(export.unix() - 120);
        r.end = Timestamp(export.unix() - 60);
        let pkt = encode(&[r], export, boot, 3);
        let (_, out) = decode(&pkt).unwrap();
        assert_eq!(out[0].start, r.start);
        assert_eq!(out[0].end, r.end);
    }
}
