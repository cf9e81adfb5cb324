//! The columnar segment: one engine cell's flow records, encoded column by
//! column with a zone-map footer and a CRC.
//!
//! Layout (all integers big-endian, varints LEB128):
//!
//! ```text
//! header   magic "LKSG" | version u16 | flags u16          (shared 8-byte
//!          container header, same idiom as flow::tracefile)
//! body     ncols u8
//!          repeat: col_id u8 | byte_len u32 | column bytes
//! footer   records varint | min_start varint | max_end varint
//!          nzones u8, repeat: col_id u8 | min varint | max varint
//! trailer  footer_len u32 | crc u32                        (fixed 8 bytes)
//! ```
//!
//! The CRC covers every byte before itself (header + body + footer +
//! footer_len), so flipping any single byte of a stored segment is
//! detected. Column encodings are chosen per field: timestamps are
//! zigzag-delta varints (records are nearly time-sorted, so deltas are
//! tiny), durations/counters are varints, addresses are raw 4-byte values
//! (high entropy — varints would pessimize), and enums are single bytes.
//! Decoding rebuilds [`FlowRecord`]s bit-exactly; the replay path depends
//! on that for byte-identical figure output.

use crate::codec::{get_varint, put_varint, unzigzag, zigzag};
use crate::StoreError;
use lockdown_base::crc::crc32;
use lockdown_flow::protocol::{IpProtocol, TcpFlags};
use lockdown_flow::record::{Direction, FlowKey, FlowRecord};
use lockdown_flow::time::Timestamp;
use lockdown_flow::tracefile::{read_container_header, write_container_header};
use lockdown_flow::wire::{Cursor, PutBe, WireResult};
use std::net::Ipv4Addr;

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"LKSG";
/// Segment format version.
pub const SEGMENT_VERSION: u16 = 1;
/// Fixed trailer size: `footer_len u32 | crc u32`.
pub const TRAILER_LEN: usize = 8;

/// Column identifiers (stable on disk; do not renumber).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // one variant per FlowRecord field
pub enum Column {
    SrcAddr = 1,
    DstAddr = 2,
    SrcPort = 3,
    DstPort = 4,
    Protocol = 5,
    Start = 6,
    Duration = 7,
    Bytes = 8,
    Packets = 9,
    TcpFlags = 10,
    InputIf = 11,
    OutputIf = 12,
    SrcAs = 13,
    DstAs = 14,
    Direction = 15,
}

/// Every column, in on-disk order.
const ALL_COLUMNS: [Column; 15] = [
    Column::SrcAddr,
    Column::DstAddr,
    Column::SrcPort,
    Column::DstPort,
    Column::Protocol,
    Column::Start,
    Column::Duration,
    Column::Bytes,
    Column::Packets,
    Column::TcpFlags,
    Column::InputIf,
    Column::OutputIf,
    Column::SrcAs,
    Column::DstAs,
    Column::Direction,
];

/// `min..=max` of one column's values, for scan pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Which column the range describes.
    pub col: u8,
    /// Smallest value present (0 in an empty segment).
    pub min: u64,
    /// Largest value present (0 in an empty segment).
    pub max: u64,
}

impl ZoneMap {
    /// Whether a point predicate `v` can match inside this zone. The
    /// bounds are inclusive on both ends: a single-value column has
    /// `min == max` and still admits exactly that value.
    pub fn admits(&self, v: u64) -> bool {
        self.min <= v && v <= self.max
    }
}

/// The decoded footer: counts and zone maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentFooter {
    /// Records stored in the segment.
    pub records: u64,
    /// Earliest flow start (0 in an empty segment).
    pub min_start: u64,
    /// Latest flow end (0 in an empty segment).
    pub max_end: u64,
    /// Per-column value ranges.
    pub zones: Vec<ZoneMap>,
}

impl SegmentFooter {
    /// The zone map recorded for one column, if that column is zoned.
    pub fn zone(&self, col: Column) -> Option<&ZoneMap> {
        self.zones.iter().find(|z| z.col == col as u8)
    }
}

/// Which columns get a zone map beyond the dedicated time range: the ones
/// analyses filter on.
const ZONED: [Column; 4] = [
    Column::Bytes,
    Column::Packets,
    Column::SrcPort,
    Column::DstPort,
];

fn column_value(r: &FlowRecord, col: Column) -> u64 {
    match col {
        Column::SrcAddr => u64::from(u32::from(r.key.src_addr)),
        Column::DstAddr => u64::from(u32::from(r.key.dst_addr)),
        Column::SrcPort => u64::from(r.key.src_port),
        Column::DstPort => u64::from(r.key.dst_port),
        Column::Protocol => u64::from(r.key.protocol.number()),
        Column::Start => r.start.unix(),
        Column::Duration => zigzag(r.end.unix() as i64 - r.start.unix() as i64),
        Column::Bytes => r.bytes,
        Column::Packets => r.packets,
        Column::TcpFlags => u64::from(r.tcp_flags.0),
        Column::InputIf => u64::from(r.input_if),
        Column::OutputIf => u64::from(r.output_if),
        Column::SrcAs => u64::from(r.src_as),
        Column::DstAs => u64::from(r.dst_as),
        Column::Direction => match r.direction {
            Direction::Ingress => 0,
            Direction::Egress => 1,
            Direction::Unknown => 2,
        },
    }
}

fn encode_column(records: &[FlowRecord], col: Column, out: &mut Vec<u8>) {
    match col {
        // Raw 4-byte addresses: high entropy, varints would inflate them.
        Column::SrcAddr | Column::DstAddr => {
            for r in records {
                out.put_u32_be(column_value(r, col) as u32);
            }
        }
        // Single-byte enums and flag sets.
        Column::Protocol | Column::TcpFlags | Column::Direction => {
            for r in records {
                out.push(column_value(r, col) as u8);
            }
        }
        // Timestamps: zigzag delta from the previous record's start.
        Column::Start => {
            let mut prev = 0i64;
            for r in records {
                let v = r.start.unix() as i64;
                put_varint(out, zigzag(v - prev));
                prev = v;
            }
        }
        // Everything else: plain varints (Duration is pre-zigzagged).
        _ => {
            for r in records {
                put_varint(out, column_value(r, col));
            }
        }
    }
}

/// Encode one cell's records into a self-contained segment.
pub fn encode_segment(records: &[FlowRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + records.len() * 24);
    write_container_header(&mut buf, SEGMENT_MAGIC, SEGMENT_VERSION, 0);

    buf.push(ALL_COLUMNS.len() as u8);
    let mut col_buf = Vec::new();
    for col in ALL_COLUMNS {
        col_buf.clear();
        encode_column(records, col, &mut col_buf);
        buf.push(col as u8);
        buf.put_u32_be(col_buf.len() as u32);
        buf.extend_from_slice(&col_buf);
    }

    let footer_start = buf.len();
    put_varint(&mut buf, records.len() as u64);
    let min_start = records.iter().map(|r| r.start.unix()).min().unwrap_or(0);
    let max_end = records.iter().map(|r| r.end.unix()).max().unwrap_or(0);
    put_varint(&mut buf, min_start);
    put_varint(&mut buf, max_end);
    buf.push(ZONED.len() as u8);
    for col in ZONED {
        let mut min = u64::MAX;
        let mut max = 0u64;
        for r in records {
            let v = column_value(r, col);
            min = min.min(v);
            max = max.max(v);
        }
        if records.is_empty() {
            min = 0;
        }
        buf.push(col as u8);
        put_varint(&mut buf, min);
        put_varint(&mut buf, max);
    }

    let footer_len = (buf.len() - footer_start) as u32;
    buf.put_u32_be(footer_len);
    let crc = crc32(&buf);
    buf.put_u32_be(crc);
    buf
}

fn corrupt(segment: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        segment: segment.to_string(),
        detail: detail.into(),
    }
}

fn wire_err(segment: &str, e: lockdown_flow::wire::WireError) -> StoreError {
    corrupt(segment, e.to_string())
}

/// Validate the trailer CRC and return `(footer_start, stored_crc)`.
fn check_trailer(segment: &str, bytes: &[u8]) -> Result<(usize, u32), StoreError> {
    if bytes.len() < 8 + TRAILER_LEN {
        return Err(corrupt(segment, "shorter than header + trailer"));
    }
    let crc_off = bytes.len() - 4;
    let stored = u32::from_be_bytes(bytes[crc_off..].try_into().expect("4 bytes"));
    let actual = crc32(&bytes[..crc_off]);
    if stored != actual {
        return Err(corrupt(
            segment,
            format!("CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        ));
    }
    let flen_off = bytes.len() - TRAILER_LEN;
    let footer_len = u32::from_be_bytes(bytes[flen_off..crc_off].try_into().expect("4 bytes"));
    let footer_start = flen_off
        .checked_sub(footer_len as usize)
        .filter(|&s| s >= 8)
        .ok_or_else(|| corrupt(segment, format!("bad footer length {footer_len}")))?;
    Ok((footer_start, stored))
}

fn parse_footer(segment: &str, bytes: &[u8]) -> Result<SegmentFooter, StoreError> {
    let mut c = Cursor::new(bytes);
    let parse = |c: &mut Cursor<'_>| -> WireResult<SegmentFooter> {
        let records = get_varint(c, "footer records")?;
        let min_start = get_varint(c, "footer min_start")?;
        let max_end = get_varint(c, "footer max_end")?;
        let nzones = c.read_u8("footer zone count")?;
        let mut zones = Vec::with_capacity(nzones as usize);
        for _ in 0..nzones {
            let col = c.read_u8("zone column")?;
            let min = get_varint(c, "zone min")?;
            let max = get_varint(c, "zone max")?;
            zones.push(ZoneMap { col, min, max });
        }
        Ok(SegmentFooter {
            records,
            min_start,
            max_end,
            zones,
        })
    };
    let footer = parse(&mut c).map_err(|e| wire_err(segment, e))?;
    if c.remaining() != 0 {
        return Err(corrupt(segment, "trailing bytes after footer"));
    }
    Ok(footer)
}

/// Read only the footer (CRC-checked): what `store inspect`/`verify` use
/// without materializing records.
pub fn read_footer(segment: &str, bytes: &[u8]) -> Result<SegmentFooter, StoreError> {
    let (footer_start, _) = check_trailer(segment, bytes)?;
    parse_footer(segment, &bytes[footer_start..bytes.len() - TRAILER_LEN])
}

/// Decode a segment back into records, verifying the CRC, the header, and
/// that every column carries exactly the footer's record count.
pub fn decode_segment(
    segment: &str,
    bytes: &[u8],
) -> Result<(Vec<FlowRecord>, SegmentFooter), StoreError> {
    let (footer_start, _) = check_trailer(segment, bytes)?;
    let footer = parse_footer(segment, &bytes[footer_start..bytes.len() - TRAILER_LEN])?;
    let n = usize::try_from(footer.records)
        .map_err(|_| corrupt(segment, "record count exceeds usize"))?;

    let mut c = Cursor::new(&bytes[..footer_start]);
    read_container_header(&mut c, SEGMENT_MAGIC, SEGMENT_VERSION)
        .map_err(|e| wire_err(segment, e))?;
    let ncols = c
        .read_u8("column count")
        .map_err(|e| wire_err(segment, e))?;

    // Column payloads, collected by id so on-disk order is free to change.
    let mut cols: [Option<Cursor<'_>>; 16] = Default::default();
    for _ in 0..ncols {
        let id = c.read_u8("column id").map_err(|e| wire_err(segment, e))?;
        let len = c
            .read_u32("column length")
            .map_err(|e| wire_err(segment, e))? as usize;
        let sub = c
            .sub(len, "column bytes")
            .map_err(|e| wire_err(segment, e))?;
        let slot = cols
            .get_mut(id as usize)
            .ok_or_else(|| corrupt(segment, format!("unknown column id {id}")))?;
        if slot.replace(sub).is_some() {
            return Err(corrupt(segment, format!("duplicate column id {id}")));
        }
    }
    if c.remaining() != 0 {
        return Err(corrupt(segment, "trailing bytes after columns"));
    }

    let mut take = |col: Column| -> Result<Cursor<'_>, StoreError> {
        cols[col as usize]
            .take()
            .ok_or_else(|| corrupt(segment, format!("missing column {col:?}")))
    };
    let mut src_addr = take(Column::SrcAddr)?;
    let mut dst_addr = take(Column::DstAddr)?;
    let mut src_port = take(Column::SrcPort)?;
    let mut dst_port = take(Column::DstPort)?;
    let mut protocol = take(Column::Protocol)?;
    let mut start = take(Column::Start)?;
    let mut duration = take(Column::Duration)?;
    let mut bytes_col = take(Column::Bytes)?;
    let mut packets = take(Column::Packets)?;
    let mut tcp_flags = take(Column::TcpFlags)?;
    let mut input_if = take(Column::InputIf)?;
    let mut output_if = take(Column::OutputIf)?;
    let mut src_as = take(Column::SrcAs)?;
    let mut dst_as = take(Column::DstAs)?;
    let mut direction = take(Column::Direction)?;

    let mut out = Vec::with_capacity(n);
    let mut prev_start = 0i64;
    for _ in 0..n {
        let we = |e: lockdown_flow::wire::WireError| wire_err(segment, e);
        let start_v = prev_start
            .checked_add(unzigzag(get_varint(&mut start, "start delta").map_err(we)?))
            .filter(|&v| v >= 0)
            .ok_or_else(|| corrupt(segment, "start delta out of range"))?;
        prev_start = start_v;
        let dur = unzigzag(get_varint(&mut duration, "duration").map_err(we)?);
        let end_v = (start_v)
            .checked_add(dur)
            .filter(|&v| v >= 0)
            .ok_or_else(|| corrupt(segment, "duration out of range"))?;
        let dir = match direction.read_u8("direction").map_err(we)? {
            0 => Direction::Ingress,
            1 => Direction::Egress,
            2 => Direction::Unknown,
            other => return Err(corrupt(segment, format!("bad direction {other}"))),
        };
        out.push(FlowRecord {
            key: FlowKey {
                src_addr: Ipv4Addr::from(src_addr.read_u32("src_addr").map_err(we)?),
                dst_addr: Ipv4Addr::from(dst_addr.read_u32("dst_addr").map_err(we)?),
                src_port: get_varint(&mut src_port, "src_port").map_err(we)? as u16,
                dst_port: get_varint(&mut dst_port, "dst_port").map_err(we)? as u16,
                protocol: IpProtocol::from_number(protocol.read_u8("protocol").map_err(we)?),
            },
            start: Timestamp::from_unix(start_v as u64),
            end: Timestamp::from_unix(end_v as u64),
            bytes: get_varint(&mut bytes_col, "bytes").map_err(we)?,
            packets: get_varint(&mut packets, "packets").map_err(we)?,
            tcp_flags: TcpFlags(tcp_flags.read_u8("tcp_flags").map_err(we)?),
            input_if: get_varint(&mut input_if, "input_if").map_err(we)? as u16,
            output_if: get_varint(&mut output_if, "output_if").map_err(we)? as u16,
            src_as: get_varint(&mut src_as, "src_as").map_err(we)? as u32,
            dst_as: get_varint(&mut dst_as, "dst_as").map_err(we)? as u32,
            direction: dir,
        });
    }
    for (cur, name) in [
        (&src_addr, "src_addr"),
        (&dst_addr, "dst_addr"),
        (&src_port, "src_port"),
        (&dst_port, "dst_port"),
        (&protocol, "protocol"),
        (&start, "start"),
        (&duration, "duration"),
        (&bytes_col, "bytes"),
        (&packets, "packets"),
        (&tcp_flags, "tcp_flags"),
        (&input_if, "input_if"),
        (&output_if, "output_if"),
        (&src_as, "src_as"),
        (&dst_as, "dst_as"),
        (&direction, "direction"),
    ] {
        if cur.remaining() != 0 {
            return Err(corrupt(
                segment,
                format!("column {name} longer than record count"),
            ));
        }
    }
    Ok((out, footer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::time::Date;

    fn sample(n: u32) -> Vec<FlowRecord> {
        let t = Date::new(2020, 3, 25).at_hour(9);
        (0..n)
            .map(|i| {
                FlowRecord::builder(
                    FlowKey {
                        src_addr: Ipv4Addr::from(0xC633_6400 | i),
                        dst_addr: Ipv4Addr::from(0x0A00_0000 | (i * 7)),
                        src_port: (1024 + i * 3) as u16,
                        dst_port: if i % 2 == 0 { 443 } else { 4500 },
                        protocol: if i % 3 == 0 {
                            IpProtocol::Udp
                        } else {
                            IpProtocol::Tcp
                        },
                    },
                    t.add_secs(u64::from(i % 600)),
                )
                .end(t.add_secs(u64::from(i % 600) + u64::from(i % 90)))
                .bytes(1_000 + u64::from(i) * 1_234)
                .packets(1 + u64::from(i % 40))
                .tcp_flags(TcpFlags(i as u8))
                .interfaces(i as u16 % 8, (i as u16 + 1) % 8)
                .asns(64_496 + i, 15_169)
                .direction(match i % 3 {
                    0 => Direction::Ingress,
                    1 => Direction::Egress,
                    _ => Direction::Unknown,
                })
                .build()
            })
            .collect()
    }

    #[test]
    fn roundtrip_is_exact() {
        let records = sample(500);
        let bytes = encode_segment(&records);
        let (decoded, footer) = decode_segment("test", &bytes).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(footer.records, 500);
        assert_eq!(
            footer.min_start,
            records.iter().map(|r| r.start.unix()).min().unwrap()
        );
        assert_eq!(
            footer.max_end,
            records.iter().map(|r| r.end.unix()).max().unwrap()
        );
    }

    #[test]
    fn empty_segment_roundtrips() {
        let bytes = encode_segment(&[]);
        let (decoded, footer) = decode_segment("empty", &bytes).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(footer.records, 0);
        assert_eq!(footer.min_start, 0);
    }

    #[test]
    fn zone_maps_cover_column_ranges() {
        let records = sample(64);
        let bytes = encode_segment(&records);
        let footer = read_footer("test", &bytes).unwrap();
        let zone = |c: Column| {
            footer
                .zones
                .iter()
                .find(|z| z.col == c as u8)
                .copied()
                .unwrap()
        };
        let b = zone(Column::Bytes);
        assert_eq!(b.min, records.iter().map(|r| r.bytes).min().unwrap());
        assert_eq!(b.max, records.iter().map(|r| r.bytes).max().unwrap());
        let p = zone(Column::DstPort);
        assert_eq!(p.min, 443);
        assert_eq!(p.max, 4500);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let records = sample(40);
        let bytes = encode_segment(&records);
        // Flip each byte in turn: decode must never silently succeed with
        // different records.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_segment("seg-x", &bad) {
                Err(e) => assert!(e.to_string().contains("seg-x"), "{e}"),
                Ok((decoded, _)) => assert_eq!(decoded, records, "flip at {i} changed data"),
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_segment(&sample(10));
        for cut in [0, 5, 8, bytes.len() - 1] {
            assert!(decode_segment("t", &bytes[..cut]).is_err());
        }
    }
}
