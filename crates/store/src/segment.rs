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

use crate::codec::{get_varint, put_varint, unzigzag, varint_at, varint_word_at, zigzag};
use crate::StoreError;
use lockdown_base::crc::crc32;
use lockdown_flow::protocol::{IpProtocol, TcpFlags};
use lockdown_flow::record::{Direction, FlowKey, FlowRecord};
use lockdown_flow::time::Timestamp;
use lockdown_flow::tracefile::{read_container_header, write_container_header};
use lockdown_flow::wire::{Cursor, PutBe, WireResult};
use std::fmt;
use std::net::Ipv4Addr;

/// Segment file magic.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"LKSG";
/// Segment format version.
pub(crate) const SEGMENT_VERSION: u16 = 1;
/// Fixed trailer size: `footer_len u32 | crc u32`.
pub(crate) const TRAILER_LEN: usize = 8;

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
/// analyses filter on, in the order [`zoned_values`] yields them.
const ZONED: [Column; 4] = [
    Column::Bytes,
    Column::Packets,
    Column::SrcPort,
    Column::DstPort,
];

fn zoned_values(r: &FlowRecord) -> [u64; 4] {
    [
        r.bytes,
        r.packets,
        u64::from(r.key.src_port),
        u64::from(r.key.dst_port),
    ]
}

/// The footer `records` imply: what [`encode_segment`] writes, and what a
/// decode must find.
fn footer_of(records: &[FlowRecord]) -> SegmentFooter {
    let (mut min_start, mut max_end) = (u64::MAX, 0);
    let (mut lo, mut hi) = ([u64::MAX; 4], [0; 4]);
    for r in records {
        min_start = min_start.min(r.start.unix());
        max_end = max_end.max(r.end.unix());
        for (i, v) in zoned_values(r).into_iter().enumerate() {
            lo[i] = lo[i].min(v);
            hi[i] = hi[i].max(v);
        }
    }
    if records.is_empty() {
        (min_start, lo) = (0, [0; 4]);
    }
    SegmentFooter {
        records: records.len() as u64,
        min_start,
        max_end,
        zones: (0..ZONED.len())
            .map(|i| ZoneMap {
                col: ZONED[i] as u8,
                min: lo[i],
                max: hi[i],
            })
            .collect(),
    }
}

fn direction_byte(d: Direction) -> u8 {
    match d {
        Direction::Ingress => 0,
        Direction::Egress => 1,
        Direction::Unknown => 2,
    }
}

/// Append one column: its id, its length (back-patched once `write` has
/// appended the column's bytes) and those bytes.
fn put_column(buf: &mut Vec<u8>, col: Column, write: impl FnOnce(&mut Vec<u8>)) {
    buf.push(col as u8);
    let len_at = buf.len();
    buf.put_u32_be(0);
    write(buf);
    let len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
}

fn put_varints(buf: &mut Vec<u8>, records: &[FlowRecord], field: impl Fn(&FlowRecord) -> u64) {
    for r in records {
        put_varint(buf, field(r));
    }
}

/// Encode one cell's records into a self-contained segment.
pub fn encode_segment(records: &[FlowRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + records.len() * 40);
    write_container_header(&mut buf, SEGMENT_MAGIC, SEGMENT_VERSION, 0);

    // One loop per column, in `ALL_COLUMNS` order. Addresses are raw
    // 4-byte values (high entropy: varints would inflate them), enums and
    // flag sets single bytes, starts zigzag deltas from the previous
    // record's start, everything else plain varints.
    buf.push(ALL_COLUMNS.len() as u8);
    let addrs = |buf: &mut Vec<u8>, addr: fn(&FlowRecord) -> Ipv4Addr| {
        for r in records {
            buf.put_u32_be(u32::from(addr(r)));
        }
    };
    put_column(&mut buf, Column::SrcAddr, |b| addrs(b, |r| r.key.src_addr));
    put_column(&mut buf, Column::DstAddr, |b| addrs(b, |r| r.key.dst_addr));
    put_column(&mut buf, Column::SrcPort, |b| {
        put_varints(b, records, |r| u64::from(r.key.src_port))
    });
    put_column(&mut buf, Column::DstPort, |b| {
        put_varints(b, records, |r| u64::from(r.key.dst_port))
    });
    put_column(&mut buf, Column::Protocol, |b| {
        b.extend(records.iter().map(|r| r.key.protocol.number()))
    });
    put_column(&mut buf, Column::Start, |b| {
        let mut prev = 0i64;
        for r in records {
            let v = r.start.unix() as i64;
            put_varint(b, zigzag(v - prev));
            prev = v;
        }
    });
    put_column(&mut buf, Column::Duration, |b| {
        put_varints(b, records, |r| {
            zigzag(r.end.unix() as i64 - r.start.unix() as i64)
        })
    });
    put_column(&mut buf, Column::Bytes, |b| {
        put_varints(b, records, |r| r.bytes)
    });
    put_column(&mut buf, Column::Packets, |b| {
        put_varints(b, records, |r| r.packets)
    });
    put_column(&mut buf, Column::TcpFlags, |b| {
        b.extend(records.iter().map(|r| r.tcp_flags.0))
    });
    put_column(&mut buf, Column::InputIf, |b| {
        put_varints(b, records, |r| u64::from(r.input_if))
    });
    put_column(&mut buf, Column::OutputIf, |b| {
        put_varints(b, records, |r| u64::from(r.output_if))
    });
    put_column(&mut buf, Column::SrcAs, |b| {
        put_varints(b, records, |r| u64::from(r.src_as))
    });
    put_column(&mut buf, Column::DstAs, |b| {
        put_varints(b, records, |r| u64::from(r.dst_as))
    });
    put_column(&mut buf, Column::Direction, |b| {
        b.extend(records.iter().map(|r| direction_byte(r.direction)))
    });

    let footer_start = buf.len();
    let footer = footer_of(records);
    put_varint(&mut buf, footer.records);
    put_varint(&mut buf, footer.min_start);
    put_varint(&mut buf, footer.max_end);
    buf.push(footer.zones.len() as u8);
    for z in &footer.zones {
        buf.push(z.col);
        put_varint(&mut buf, z.min);
        put_varint(&mut buf, z.max);
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
pub(crate) fn read_footer(segment: &str, bytes: &[u8]) -> Result<SegmentFooter, StoreError> {
    let (footer_start, _) = check_trailer(segment, bytes)?;
    parse_footer(segment, &bytes[footer_start..bytes.len() - TRAILER_LEN])
}

/// Decode a segment into a fresh record vector: `decode_segment_into`
/// for callers that keep no buffer.
pub fn decode_segment(
    segment: &str,
    bytes: &[u8],
) -> Result<(Vec<FlowRecord>, SegmentFooter), StoreError> {
    let mut records = Vec::new();
    let footer = decode_segment_into(segment, bytes, &mut records)?;
    Ok((records, footer))
}

/// Decode a segment into `out`, replacing its contents, one column at a
/// time: `out` is sized to the footer's record count, then each column's
/// loop writes its field into every record. Verifies the CRC, the
/// header, the column directory, that every column carries exactly the
/// footer's record count of in-range values, and that the footer is the
/// one the records imply, so a decode that succeeds re-encodes to the
/// same bytes. On error `out` is left empty.
pub(crate) fn decode_segment_into(
    segment: &str,
    bytes: &[u8],
    out: &mut Vec<FlowRecord>,
) -> Result<SegmentFooter, StoreError> {
    let decoded = decode_columns(segment, bytes, out);
    if decoded.is_err() {
        out.clear();
    }
    decoded
}

/// What every field of a record is before its column writes it.
const BLANK: FlowRecord = FlowRecord {
    key: FlowKey {
        src_addr: Ipv4Addr::UNSPECIFIED,
        dst_addr: Ipv4Addr::UNSPECIFIED,
        src_port: 0,
        dst_port: 0,
        protocol: IpProtocol::Other(0),
    },
    start: Timestamp::from_unix(0),
    end: Timestamp::from_unix(0),
    bytes: 0,
    packets: 0,
    tcp_flags: TcpFlags(0),
    input_if: 0,
    output_if: 0,
    src_as: 0,
    dst_as: 0,
    direction: Direction::Unknown,
};

fn decode_columns(
    segment: &str,
    bytes: &[u8],
    out: &mut Vec<FlowRecord>,
) -> Result<SegmentFooter, StoreError> {
    let (footer_start, _) = check_trailer(segment, bytes)?;
    let footer = parse_footer(segment, &bytes[footer_start..bytes.len() - TRAILER_LEN])?;
    let n = usize::try_from(footer.records)
        .map_err(|_| corrupt(segment, "record count exceeds usize"))?;
    let [src_addr, dst_addr, src_port, dst_port, protocol, start, duration, bytes_col, packets, tcp_flags, input_if, output_if, src_as, dst_as, direction] =
        column_directory(segment, &bytes[..footer_start])?;

    // Every record takes at least one byte of the start column: a count
    // the column cannot hold is corrupt, and is refused before it sizes
    // the buffer.
    if n > start.len() {
        return Err(corrupt(
            segment,
            format!(
                "{n} records cannot fit in a {}-byte start column",
                start.len()
            ),
        ));
    }
    out.clear();
    out.resize(n, BLANK);
    let out = &mut out[..];
    fixed(segment, "src_addr", src_addr, out, |r, b: [u8; 4]| {
        r.key.src_addr = Ipv4Addr::from(b);
        true
    })?;
    fixed(segment, "dst_addr", dst_addr, out, |r, b: [u8; 4]| {
        r.key.dst_addr = Ipv4Addr::from(b);
        true
    })?;
    varints(segment, "src_port", src_port, out, |r, v| {
        u16::try_from(v).map(|v| r.key.src_port = v).is_ok()
    })?;
    varints(segment, "dst_port", dst_port, out, |r, v| {
        u16::try_from(v).map(|v| r.key.dst_port = v).is_ok()
    })?;
    fixed(segment, "protocol", protocol, out, |r, [b]| {
        r.key.protocol = IpProtocol::from_number(b);
        true
    })?;
    let mut prev = 0i64;
    varints(segment, "start", start, out, |r, v| {
        match prev.checked_add(unzigzag(v)).filter(|&s| s >= 0) {
            Some(s) => {
                prev = s;
                r.start = Timestamp::from_unix(s as u64);
                true
            }
            None => false,
        }
    })?;
    varints(
        segment,
        "duration",
        duration,
        out,
        |r, v| match (r.start.unix() as i64)
            .checked_add(unzigzag(v))
            .filter(|&e| e >= 0)
        {
            Some(e) => {
                r.end = Timestamp::from_unix(e as u64);
                true
            }
            None => false,
        },
    )?;
    varints(segment, "bytes", bytes_col, out, |r, v| {
        r.bytes = v;
        true
    })?;
    varints(segment, "packets", packets, out, |r, v| {
        r.packets = v;
        true
    })?;
    fixed(segment, "tcp_flags", tcp_flags, out, |r, [b]| {
        r.tcp_flags = TcpFlags(b);
        true
    })?;
    varints(segment, "input_if", input_if, out, |r, v| {
        u16::try_from(v).map(|v| r.input_if = v).is_ok()
    })?;
    varints(segment, "output_if", output_if, out, |r, v| {
        u16::try_from(v).map(|v| r.output_if = v).is_ok()
    })?;
    varints(segment, "src_as", src_as, out, |r, v| {
        u32::try_from(v).map(|v| r.src_as = v).is_ok()
    })?;
    varints(segment, "dst_as", dst_as, out, |r, v| {
        u32::try_from(v).map(|v| r.dst_as = v).is_ok()
    })?;
    fixed(segment, "direction", direction, out, |r, [b]| {
        r.direction = match b {
            0 => Direction::Ingress,
            1 => Direction::Egress,
            2 => Direction::Unknown,
            _ => return false,
        };
        true
    })?;
    if footer_of(out) != footer {
        return Err(corrupt(segment, "footer does not match the records"));
    }
    Ok(footer)
}

/// The header and the column directory of a segment's body: one byte
/// slice per column, in [`ALL_COLUMNS`] order, the only order
/// [`encode_segment`] writes.
fn column_directory<'a>(segment: &str, body: &'a [u8]) -> Result<[&'a [u8]; 15], StoreError> {
    let we = |e| wire_err(segment, e);
    let mut c = Cursor::new(body);
    let flags = read_container_header(&mut c, SEGMENT_MAGIC, SEGMENT_VERSION).map_err(we)?;
    if flags != 0 {
        return Err(corrupt(
            segment,
            format!("unknown header flags {flags:#06x}"),
        ));
    }
    let ncols = c.read_u8("column count").map_err(we)?;
    if usize::from(ncols) != ALL_COLUMNS.len() {
        return Err(corrupt(
            segment,
            format!("{ncols} columns, not {}", ALL_COLUMNS.len()),
        ));
    }
    let mut cols = [&[][..]; 15];
    for (slot, col) in cols.iter_mut().zip(ALL_COLUMNS) {
        let id = c.read_u8("column id").map_err(we)?;
        if id != col as u8 {
            return Err(corrupt(
                segment,
                format!("column id {id} where {col:?} belongs"),
            ));
        }
        let len = c.read_u32("column length").map_err(we)? as usize;
        *slot = c.read_bytes(len, "column bytes").map_err(we)?;
    }
    if c.remaining() != 0 {
        return Err(corrupt(segment, "trailing bytes after columns"));
    }
    Ok(cols)
}

/// Decode a varint column into one field of every record of `out`:
/// `set` stores a value and says whether it is in its field's range.
/// Columns of long values (three bytes a record or more, as byte and
/// packet counts are) are read a word at a time; the rest a byte at a
/// time, where a one-byte value takes the fast path.
#[inline(always)]
fn varints(
    segment: &str,
    name: &str,
    col: &[u8],
    out: &mut [FlowRecord],
    set: impl FnMut(&mut FlowRecord, u64) -> bool,
) -> Result<(), StoreError> {
    if col.len() >= 3 * out.len() {
        return varint_loop(segment, name, col, out, set, varint_word_at);
    }
    let read = |col: &[u8], pos: &mut usize| match col.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Some(u64::from(b))
        }
        _ => varint_at(col, pos),
    };
    varint_loop(segment, name, col, out, set, read)
}

#[inline(always)]
fn varint_loop(
    segment: &str,
    name: &str,
    col: &[u8],
    out: &mut [FlowRecord],
    mut set: impl FnMut(&mut FlowRecord, u64) -> bool,
    read: impl Fn(&[u8], &mut usize) -> Option<u64>,
) -> Result<(), StoreError> {
    let mut pos = 0;
    for (i, r) in out.iter_mut().enumerate() {
        let Some(v) = read(col, &mut pos) else {
            return Err(bad_value(
                segment,
                name,
                "a truncated or overlong varint",
                i,
            ));
        };
        if !set(r, v) {
            return Err(out_of_range(segment, name, v, i));
        }
    }
    if pos != col.len() {
        return Err(longer_than_count(segment, name));
    }
    Ok(())
}

/// Decode a fixed-width column of `W`-byte values, as [`varints`] does.
#[inline(always)]
fn fixed<const W: usize>(
    segment: &str,
    name: &str,
    col: &[u8],
    out: &mut [FlowRecord],
    mut set: impl FnMut(&mut FlowRecord, [u8; W]) -> bool,
) -> Result<(), StoreError> {
    if col.len() < W * out.len() {
        let held = col.len() / W;
        return Err(bad_value(segment, name, "the column's end", held));
    }
    if col.len() > W * out.len() {
        return Err(longer_than_count(segment, name));
    }
    for (i, (r, w)) in out.iter_mut().zip(col.chunks_exact(W)).enumerate() {
        if !set(r, w.try_into().expect("W bytes")) {
            return Err(out_of_range(segment, name, w, i));
        }
    }
    Ok(())
}

#[cold]
fn bad_value(segment: &str, name: &str, what: &str, record: usize) -> StoreError {
    corrupt(segment, format!("column {name}: {what} at record {record}"))
}

/// Takes the value by value, so the hot loop never spills it for the
/// message's sake.
#[cold]
#[inline(never)]
fn out_of_range(segment: &str, name: &str, v: impl fmt::Debug, record: usize) -> StoreError {
    corrupt(
        segment,
        format!("column {name}: value {v:?} out of range at record {record}"),
    )
}

#[cold]
fn longer_than_count(segment: &str, name: &str) -> StoreError {
    corrupt(segment, format!("column {name} longer than record count"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_base::hash::SplitMix;
    use lockdown_base::prop::cases;
    use lockdown_flow::time::Date;

    /// The per-record decoder the column-at-a-time one replaced, kept as
    /// the differential reference. Never used outside tests: it casts
    /// ports, interface indexes and AS numbers with `as`, so a value wider
    /// than its field decodes truncated instead of failing.
    fn reference_decode(
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

        // Every record takes at least one byte of the start column: a count
        // the column cannot hold is corrupt, and is refused before it sizes
        // an allocation.
        if n > start.remaining() {
            return Err(corrupt(
                segment,
                format!(
                    "{n} records cannot fit in a {}-byte start column",
                    start.remaining()
                ),
            ));
        }
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

    /// Re-stamp the trailing CRC over the bytes before it, so a mutation
    /// gets past the CRC and reaches the column decoder.
    fn restamp(bytes: &mut [u8]) {
        if let Some(crc_off) = bytes.len().checked_sub(4) {
            let crc = crc32(&bytes[..crc_off]);
            bytes[crc_off..].copy_from_slice(&crc.to_be_bytes());
        }
    }

    /// Byte offsets of every column's length field and of its bytes, in
    /// on-disk order.
    fn directory(bytes: &[u8]) -> Vec<(usize, std::ops::Range<usize>)> {
        let mut pos = 9; // container header + column count
        (0..bytes[8])
            .map(|_| {
                let len = u32::from_be_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
                let at = pos + 1;
                pos += 5 + len as usize;
                (at, at + 4..pos)
            })
            .collect()
    }

    /// A value of up to `bits` bits; half of them use every bit, so each
    /// varint column holds values of its field's full width.
    fn magnitude(rng: &mut SplitMix, bits: u64) -> u64 {
        let bits = if rng.chance(0.5) {
            bits
        } else {
            rng.below(bits + 1)
        };
        match bits {
            0 => 0,
            b => rng.next_u64() >> (64 - b),
        }
    }

    /// `n` records, every field drawn: starts wander in small steps of
    /// either sign, a few durations are negative (the format holds them; the
    /// builder would refuse them), and each varint field
    /// spans one byte to its full width.
    fn random_cell(rng: &mut SplitMix, n: usize) -> Vec<FlowRecord> {
        let mut t = 1_584_000_000 + rng.below(1 << 20) as i64;
        (0..n)
            .map(|_| {
                t = (t + rng.below(400) as i64 - 100).max(0);
                let end = (t + magnitude(rng, 16) as i64 - rng.below(4) as i64).max(0);
                FlowRecord {
                    key: FlowKey {
                        src_addr: Ipv4Addr::from(rng.next_u64() as u32),
                        dst_addr: Ipv4Addr::from(rng.next_u64() as u32),
                        src_port: magnitude(rng, 16) as u16,
                        dst_port: magnitude(rng, 16) as u16,
                        protocol: IpProtocol::from_number(rng.next_u64() as u8),
                    },
                    start: Timestamp::from_unix(t as u64),
                    end: Timestamp::from_unix(end as u64),
                    bytes: magnitude(rng, 64),
                    packets: magnitude(rng, 40),
                    tcp_flags: TcpFlags(rng.next_u64() as u8),
                    input_if: magnitude(rng, 16) as u16,
                    output_if: magnitude(rng, 16) as u16,
                    src_as: magnitude(rng, 32) as u32,
                    dst_as: magnitude(rng, 32) as u32,
                    direction: rng.pick(&[
                        Direction::Ingress,
                        Direction::Egress,
                        Direction::Unknown,
                    ]),
                }
            })
            .collect()
    }

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
    fn a_record_count_the_columns_cannot_hold_is_corrupt_not_an_abort() {
        // An empty segment whose footer, CRC and all, claims 2^40 records.
        let empty = encode_segment(&[]);
        let (footer_start, _) = check_trailer("empty", &empty).unwrap();
        let mut bytes = empty[..footer_start].to_vec();
        put_varint(&mut bytes, 1 << 40);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 0);
        bytes.push(0);
        bytes.put_u32_be((bytes.len() - footer_start) as u32);
        let crc = crc32(&bytes);
        bytes.put_u32_be(crc);
        assert_eq!(read_footer("huge", &bytes).unwrap().records, 1 << 40);
        match decode_segment("huge", &bytes) {
            Err(StoreError::Corrupt { segment, detail }) => {
                assert_eq!(segment, "huge");
                assert!(detail.contains("1099511627776 records"), "{detail}");
            }
            other => panic!("expected a named corruption, got {other:?}"),
        }
    }

    #[test]
    fn column_decoder_equals_the_per_record_reference() {
        let check = |records: &[FlowRecord], out: &mut Vec<FlowRecord>| {
            let bytes = encode_segment(records);
            let (reference, reference_footer) = reference_decode("cell", &bytes).unwrap();
            let footer = decode_segment_into("cell", &bytes, out).unwrap();
            assert_eq!(*out, reference);
            assert_eq!(*out, records);
            assert_eq!(footer, reference_footer);
            bytes.len()
        };
        let mut rng = SplitMix::new(0x5E6);
        let mut out = random_cell(&mut rng, 5);
        assert!(check(&[], &mut out) < 200);
        check(&random_cell(&mut rng, 1), &mut out);
        assert!(check(&random_cell(&mut rng, 4_000), &mut out) > 64 * 1024);
        // A dirty buffer of any length is replaced, never appended to.
        cases(64, |rng, size| {
            let n = match rng.below(8) {
                0 => 0,
                1 => 1,
                2 => 3_000 + rng.below(2_000) as usize,
                _ => rng.below(20 * size as u64) as usize,
            };
            let dirty = rng.below(50) as usize;
            let mut out = random_cell(rng, dirty);
            check(&random_cell(rng, n), &mut out);
        });
    }

    #[test]
    fn restamped_mutations_are_named_errors_or_identical_decodes() {
        cases(4_000, |rng, size| {
            let segment = |rng: &mut SplitMix| {
                let n = rng.below(4 * size as u64) as usize;
                encode_segment(&random_cell(rng, n))
            };
            let (a, b) = (segment(rng), segment(rng));
            let mut m = a.clone();
            match rng.below(5) {
                0 => {
                    // Anywhere, or inside one column's values.
                    let cols = directory(&a);
                    let (_, within) = &cols[rng.below(cols.len() as u64) as usize];
                    let at = match rng.chance(0.5) && !within.is_empty() {
                        true => rng.range(within.start as u64..within.end as u64),
                        false => rng.below(a.len() as u64),
                    };
                    m[at as usize] ^= 1 << rng.below(8);
                }
                1 => m.truncate(rng.below(a.len() as u64) as usize),
                2 => {
                    let at = rng.below(a.len() as u64 + 1) as usize;
                    let extra: Vec<u8> = (0..rng.range(1..20))
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    m.splice(at..at, extra);
                }
                3 => {
                    // A column length, or the footer length in the trailer.
                    let mut fields: Vec<usize> = directory(&a).iter().map(|(at, _)| *at).collect();
                    fields.push(a.len() - TRAILER_LEN);
                    let at = rng.pick(&fields);
                    let len = u32::from_be_bytes(m[at..at + 4].try_into().unwrap());
                    let inflated = len.wrapping_add(rng.range(1..300) as u32);
                    m[at..at + 4].copy_from_slice(&inflated.to_be_bytes());
                }
                _ => {
                    let (i, j) = (rng.below(a.len() as u64), rng.below(b.len() as u64));
                    m = [&a[..i as usize], &b[j as usize..]].concat();
                }
            }
            restamp(&mut m);
            let mut out = Vec::new();
            match decode_segment_into("mutant", &m, &mut out) {
                Ok(_) => assert_eq!(encode_segment(&out), m, "a decode that does not re-encode"),
                Err(StoreError::Corrupt { segment, .. }) => {
                    assert_eq!(segment, "mutant");
                    assert!(out.is_empty(), "a failed decode left records behind");
                }
                Err(e) => panic!("not a named corruption: {e:?}"),
            }
        });
    }

    #[test]
    fn a_value_wider_than_its_field_is_corrupt_not_truncated() {
        // One record with the field at its maximum; the column's one
        // varint is rewritten to `maximum + 4465`, which has the same
        // length, and the CRC re-stamped.
        type Field = (Column, &'static str, u64, fn(&mut FlowRecord));
        let fields: [Field; 6] = [
            (Column::SrcPort, "src_port", 65_535, |r| {
                r.key.src_port = u16::MAX
            }),
            (Column::DstPort, "dst_port", 65_535, |r| {
                r.key.dst_port = u16::MAX
            }),
            (Column::InputIf, "input_if", 65_535, |r| {
                r.input_if = u16::MAX
            }),
            (Column::OutputIf, "output_if", 65_535, |r| {
                r.output_if = u16::MAX
            }),
            (Column::SrcAs, "src_as", u64::from(u32::MAX), |r| {
                r.src_as = u32::MAX
            }),
            (Column::DstAs, "dst_as", u64::from(u32::MAX), |r| {
                r.dst_as = u32::MAX
            }),
        ];
        for (col, name, max, set) in fields {
            let mut records = sample(1);
            set(&mut records[0]);
            let mut bytes = encode_segment(&records);
            let (_, at) =
                directory(&bytes)[ALL_COLUMNS.iter().position(|&c| c == col).unwrap()].clone();
            let mut wide = Vec::new();
            put_varint(&mut wide, max + 4_465);
            assert_eq!(wide.len(), at.len(), "{name}");
            bytes[at].copy_from_slice(&wide);
            restamp(&mut bytes);
            // The per-record reference keeps the low bits: 70 000 as u16
            // is 4 464, and the decode no longer re-encodes.
            let (truncated, _) = reference_decode("wide", &bytes).unwrap();
            assert_ne!(encode_segment(&truncated), bytes, "{name}");
            match decode_segment("wide", &bytes) {
                Err(StoreError::Corrupt { segment, detail }) => {
                    assert_eq!(segment, "wide");
                    let want = format!("column {name}: value {} out of range", max + 4_465);
                    assert!(detail.contains(&want), "{detail}");
                }
                other => panic!("{name}: expected a named corruption, got {other:?}"),
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
