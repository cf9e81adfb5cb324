//! The columnar segment: one engine cell's flow records, encoded column by
//! column with a zone-map footer and a CRC.
//!
//! Layout (integers big-endian, footer varints LEB128):
//!
//! ```text
//! header   magic "LKSG" | version u16 | flags u16          (shared 8-byte
//!          container header, same idiom as flow::tracefile)
//! body     ncols u8
//!          repeat: col_id u8 | byte_len u32 | column bytes
//! column   min u64 | width u8 | n values of `value − min`, `width` bits
//!          each, packed LSB first; the last byte's spare bits are 0
//! footer   records varint | min_start varint | max_end varint
//!          nzones u8, repeat: col_id u8 | min varint | max varint
//! trailer  footer_len u32 | crc u32                        (fixed 8 bytes)
//! ```
//!
//! The CRC covers every byte before itself (header + body + footer +
//! footer_len), so flipping any single byte of a stored segment is
//! detected. Every column is one frame of reference: its smallest value,
//! then each value's offset from it in `width = bits(max − min)` bits, so
//! a cell's starts (all within about an hour) take some 12 bits, its
//! addresses 32 or fewer and a flag set 8. A duration is stored as
//! `zigzag(end − start)`. Decoding is one fixed-width unpack per column,
//! with no per-value length branch, and rebuilds [`FlowRecord`]s
//! bit-exactly; the replay path depends on that for byte-identical figure
//! output.

use crate::archive::MANIFEST_VERSION;
use crate::codec::{get_varint, put_varint, unzigzag, zigzag};
use crate::{corrupt, StoreError};
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
/// Fixed trailer size: `footer_len u32 | crc u32`.
pub(crate) const TRAILER_LEN: usize = 8;
/// A column's frame ahead of its packed values: `min u64 | width u8`.
const FRAME_LEN: usize = 9;
/// Most records one segment holds. [`encode_segment`] asserts it, and a
/// decode refuses a footer claiming more before that count sizes a
/// buffer: a column of 0-bit values takes no bytes, so bytes bound
/// nothing.
pub(crate) const MAX_SEGMENT_RECORDS: u64 = 1 << 24;

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

/// What a decode learns of a segment's records beyond its footer: the
/// latest flow start and the wrapping sums of bytes and packets. The
/// manifest entry carries the same three values, computed at spill time,
/// and every decode checks them against the records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Summary {
    /// Latest flow start (0 in an empty segment).
    pub(crate) max_start: u64,
    /// Sum of the records' bytes, wrapping on overflow.
    pub(crate) bytes: u64,
    /// Sum of the records' packets, wrapping on overflow.
    pub(crate) packets: u64,
}

impl Summary {
    /// The summary of `records`, as a decode of their segment finds it.
    pub(crate) fn of(records: &[FlowRecord]) -> Summary {
        records.iter().fold(Summary::default(), |s, r| Summary {
            max_start: s.max_start.max(r.start.unix()),
            bytes: s.bytes.wrapping_add(r.bytes),
            packets: s.packets.wrapping_add(r.packets),
        })
    }
}

/// Which columns get a zone map beyond the dedicated time range: the ones
/// analyses filter on, in the order the footer holds them.
const ZONED: [Column; 4] = [
    Column::Bytes,
    Column::Packets,
    Column::SrcPort,
    Column::DstPort,
];

/// The zone maps of the [`ZONED`] columns, from each one's `(min, max)`.
fn zones(ranges: [(u64, u64); 4]) -> [ZoneMap; 4] {
    std::array::from_fn(|i| ZoneMap {
        col: ZONED[i] as u8,
        min: ranges[i].0,
        max: ranges[i].1,
    })
}

/// Bits needed to write `v`: 0 for 0.
fn bits(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// Bytes `n` values of `width` bits pack into.
fn packed_len(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

/// A record's value in every column, in [`ALL_COLUMNS`] order.
#[inline(always)]
fn values(r: &FlowRecord) -> [u64; 15] {
    [
        u32::from(r.key.src_addr).into(),
        u32::from(r.key.dst_addr).into(),
        r.key.src_port.into(),
        r.key.dst_port.into(),
        r.key.protocol.number().into(),
        r.start.unix(),
        zigzag(r.end.unix().wrapping_sub(r.start.unix()) as i64),
        r.bytes,
        r.packets,
        r.tcp_flags.0.into(),
        r.input_if.into(),
        r.output_if.into(),
        r.src_as.into(),
        r.dst_as.into(),
        match r.direction {
            Direction::Ingress => 0,
            Direction::Egress => 1,
            Direction::Unknown => 2,
        },
    ]
}

/// Append column `ALL_COLUMNS[I]`: its id, its length, and its values as
/// a frame of reference, `min` and then every value's offset from it in
/// `bits(max − min)` bits. One loop per column: `values(r)[I]` computes
/// that column's field alone.
fn put_column<const I: usize>(buf: &mut Vec<u8>, records: &[FlowRecord], min: u64, max: u64) {
    let width = bits(max - min);
    buf.push(ALL_COLUMNS[I] as u8);
    buf.put_u32_be((FRAME_LEN + packed_len(records.len(), width)) as u32);
    pack(buf, min, width, records.iter().map(|r| values(r)[I] - min));
}

/// Append a frame, `min | width`, and `offsets`, `width` bits each, LSB
/// first through a register accumulator: each full word is stored whole,
/// and the last store, of the tail, may run past the column into slack
/// the truncate drops, leaving the spare bits 0. Every offset must fit
/// in `width` bits.
fn pack(buf: &mut Vec<u8>, min: u64, width: u32, offsets: impl ExactSizeIterator<Item = u64>) {
    buf.put_u64_be(min);
    buf.push(width as u8);
    let (start, len) = (buf.len(), packed_len(offsets.len(), width));
    buf.resize(start + len + 8, 0);
    let out = &mut buf[start..];
    let (mut acc, mut held, mut at) = (0u64, 0, 0);
    for d in offsets {
        acc |= d << held;
        held += width;
        if held >= 64 {
            out[at..at + 8].copy_from_slice(&acc.to_le_bytes());
            at += 8;
            held -= 64;
            // The bits of `d` the word had no room for, in two shifts:
            // one of 64 would overflow.
            acc = (d >> 1) >> (width - held - 1);
        }
    }
    out[at..at + 8].copy_from_slice(&acc.to_le_bytes());
    buf.truncate(start + len);
}

/// Encode one cell's records into a self-contained segment.
pub fn encode_segment(records: &[FlowRecord]) -> Vec<u8> {
    assert!(
        records.len() as u64 <= MAX_SEGMENT_RECORDS,
        "a cell of {} records exceeds the segment limit",
        records.len()
    );
    // One pass takes every column's range; `min` is 0 in an empty segment.
    let (mut lo, mut hi, mut max_end) = ([u64::MAX; 15], [0; 15], 0);
    for r in records {
        for (i, v) in values(r).into_iter().enumerate() {
            (lo[i], hi[i]) = (lo[i].min(v), hi[i].max(v));
        }
        max_end = max_end.max(r.end.unix());
    }
    let lo: [u64; 15] = std::array::from_fn(|i| lo[i].min(hi[i]));
    let mut buf = Vec::with_capacity(256 + records.len() * 32);
    write_container_header(&mut buf, SEGMENT_MAGIC, MANIFEST_VERSION, 0);
    buf.push(ALL_COLUMNS.len() as u8);
    // Then each column is packed in a loop of its own.
    macro_rules! put_columns {
        ($($i:literal)*) => { $(put_column::<$i>(&mut buf, records, lo[$i], hi[$i]);)* };
    }
    put_columns!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14);

    let footer_start = buf.len();
    put_varint(&mut buf, records.len() as u64);
    put_varint(&mut buf, lo[Column::Start as usize - 1]);
    put_varint(&mut buf, max_end);
    buf.push(ZONED.len() as u8);
    for z in zones(ZONED.map(|c| (lo[c as usize - 1], hi[c as usize - 1]))) {
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

/// Validate the trailer CRC and return where the footer starts.
fn check_trailer(segment: &str, bytes: &[u8]) -> Result<usize, StoreError> {
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
    flen_off
        .checked_sub(footer_len as usize)
        .filter(|&s| s >= 8)
        .ok_or_else(|| corrupt(segment, format!("bad footer length {footer_len}")))
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
    let footer = parse(&mut c).map_err(|e| StoreError::wire(segment, e))?;
    if c.remaining() != 0 {
        return Err(corrupt(segment, "trailing bytes after footer"));
    }
    Ok(footer)
}

/// A segment whose CRC checked and whose footer parsed, its columns not
/// yet decoded: an index entry is compared with the footer before any
/// column is read.
pub(crate) struct Sealed<'a> {
    /// The parsed footer.
    pub(crate) footer: SegmentFooter,
    body: &'a [u8],
}

/// Check a segment's CRC and parse its footer: all `store
/// inspect`/`verify` and scan pruning read.
pub(crate) fn open_segment<'a>(segment: &str, bytes: &'a [u8]) -> Result<Sealed<'a>, StoreError> {
    let footer_start = check_trailer(segment, bytes)?;
    let footer = parse_footer(segment, &bytes[footer_start..bytes.len() - TRAILER_LEN])?;
    Ok(Sealed {
        footer,
        body: &bytes[..footer_start],
    })
}

/// Decode a segment into a fresh record vector.
pub fn decode_segment(
    segment: &str,
    bytes: &[u8],
) -> Result<(Vec<FlowRecord>, SegmentFooter), StoreError> {
    let mut records = Vec::new();
    let (footer, _) = open_segment(segment, bytes)?.decode_into(segment, &mut records)?;
    Ok((records, footer))
}

impl Sealed<'_> {
    /// Decode the columns into `out`, replacing its contents, one column
    /// at a time: `out` is sized to the footer's record count once every
    /// column's length agrees with it, then each column's unpack writes
    /// its field into every record. Verifies the header, the column
    /// directory, every frame's canonical form and range, and that the
    /// footer is the one the records imply, so a decode that succeeds
    /// re-encodes to the same bytes. Returns the footer and the records'
    /// [`Summary`]. On error `out` is left empty.
    pub(crate) fn decode_into(
        self,
        segment: &str,
        out: &mut Vec<FlowRecord>,
    ) -> Result<(SegmentFooter, Summary), StoreError> {
        let decoded = decode_columns(segment, self.body, &self.footer, out);
        if decoded.is_err() {
            out.clear();
        }
        decoded.map(|summary| (self.footer, summary))
    }
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

const DIRECTIONS: [Direction; 4] = [
    Direction::Ingress,
    Direction::Egress,
    Direction::Unknown,
    Direction::Unknown, // out of range, refused after the column's unpack
];

fn decode_columns(
    segment: &str,
    body: &[u8],
    footer: &SegmentFooter,
    out: &mut Vec<FlowRecord>,
) -> Result<Summary, StoreError> {
    let cols = column_directory(segment, body)?;
    let n = footer.records;
    if n > MAX_SEGMENT_RECORDS {
        let what = format!("{n} records exceed the segment limit of {MAX_SEGMENT_RECORDS}");
        return Err(corrupt(segment, what));
    }
    let n = n as usize;
    let mut frames = [Frame::EMPTY; 15];
    for ((frame, col), bytes) in frames.iter_mut().zip(ALL_COLUMNS).zip(cols) {
        *frame = Frame::parse(segment, col, bytes, n)?;
    }
    let [src_addr, dst_addr, src_port, dst_port, protocol, start, duration, bytes_col, packets, tcp_flags, input_if, output_if, src_as, dst_as, direction] =
        frames;

    out.clear();
    out.resize(n, BLANK);
    let out = &mut out[..];
    let (u8s, u16s, u32s) = (u8::MAX.into(), u16::MAX.into(), u32::MAX.into());
    // Narrow fields take the low bits here; `unpack` refuses the column
    // afterwards if any value was wider than its field.
    unpack(segment, src_addr, u32s, out, |r, v| {
        r.key.src_addr = Ipv4Addr::from(v as u32)
    })?;
    unpack(segment, dst_addr, u32s, out, |r, v| {
        r.key.dst_addr = Ipv4Addr::from(v as u32)
    })?;
    let src_port_max = unpack(segment, src_port, u16s, out, |r, v| {
        r.key.src_port = v as u16
    })?;
    let dst_port_max = unpack(segment, dst_port, u16s, out, |r, v| {
        r.key.dst_port = v as u16
    })?;
    unpack(segment, protocol, u8s, out, |r, v| {
        r.key.protocol = IpProtocol::from_number(v as u8)
    })?;
    let max_start = unpack(segment, start, u64::MAX, out, |r, v| {
        r.start = Timestamp::from_unix(v)
    })?;
    let mut max_end = 0;
    unpack(segment, duration, u64::MAX, out, |r, v| {
        let end = r.start.unix().wrapping_add(unzigzag(v) as u64);
        max_end = max_end.max(end);
        r.end = Timestamp::from_unix(end);
    })?;
    let (mut bytes_sum, mut packets_sum) = (0u64, 0u64);
    let bytes_max = unpack(segment, bytes_col, u64::MAX, out, |r, v| {
        r.bytes = v;
        bytes_sum = bytes_sum.wrapping_add(v);
    })?;
    let packets_max = unpack(segment, packets, u64::MAX, out, |r, v| {
        r.packets = v;
        packets_sum = packets_sum.wrapping_add(v);
    })?;
    unpack(segment, tcp_flags, u8s, out, |r, v| {
        r.tcp_flags = TcpFlags(v as u8)
    })?;
    unpack(segment, input_if, u16s, out, |r, v| r.input_if = v as u16)?;
    unpack(segment, output_if, u16s, out, |r, v| r.output_if = v as u16)?;
    unpack(segment, src_as, u32s, out, |r, v| r.src_as = v as u32)?;
    unpack(segment, dst_as, u32s, out, |r, v| r.dst_as = v as u32)?;
    unpack(segment, direction, 2, out, |r, v| {
        r.direction = DIRECTIONS[v as usize & 3]
    })?;

    let zones = zones([
        (bytes_col.min, bytes_max),
        (packets.min, packets_max),
        (src_port.min, src_port_max),
        (dst_port.min, dst_port_max),
    ]);
    if footer.min_start != start.min || footer.max_end != max_end || footer.zones != zones {
        return Err(corrupt(segment, "footer does not match the records"));
    }
    Ok(Summary {
        max_start,
        bytes: bytes_sum,
        packets: packets_sum,
    })
}

/// The header and the column directory of a segment's body: one byte
/// slice per column, in [`ALL_COLUMNS`] order, the only order
/// [`encode_segment`] writes. A header of another version is
/// [`StoreError::Version`].
fn column_directory<'a>(segment: &str, body: &'a [u8]) -> Result<[&'a [u8]; 15], StoreError> {
    let we = |e| StoreError::wire(segment, e);
    let mut c = Cursor::new(body);
    let flags = read_container_header(&mut c, SEGMENT_MAGIC, MANIFEST_VERSION).map_err(we)?;
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

/// One column's frame of reference and its packed values.
#[derive(Clone, Copy)]
struct Frame<'a> {
    col: Column,
    min: u64,
    width: u32,
    packed: &'a [u8],
}

impl<'a> Frame<'a> {
    const EMPTY: Frame<'static> = Frame {
        col: Column::SrcAddr,
        min: 0,
        width: 0,
        packed: &[],
    };

    /// Split a column into its frame and packed values, refusing a width
    /// over 64 bits and any length other than `n` values of that width.
    fn parse(segment: &str, col: Column, bytes: &'a [u8], n: usize) -> Result<Self, StoreError> {
        let Some((head, packed)) = bytes.split_first_chunk::<FRAME_LEN>() else {
            return Err(column_err(segment, col, "shorter than its frame"));
        };
        let min = u64::from_be_bytes(head[..8].try_into().expect("8 bytes"));
        let width = head[8];
        if width > 64 {
            return Err(column_err(segment, col, format!("{width}-bit values")));
        }
        let want = packed_len(n, width.into());
        if packed.len() != want {
            let held = packed.len();
            let what = format!("{held} bytes where {n} values of {width} bits take {want}");
            return Err(column_err(segment, col, what));
        }
        Ok(Frame {
            col,
            min,
            width: width.into(),
            packed,
        })
    }
}

/// Unpack a column into one field of every record of `out`: `set` takes
/// each value, `min` plus its offset, and the column's largest value is
/// returned. The frame must be the one [`put_column`] writes and the
/// values in `0..=limit`: some offset is 0 (or the segment is empty and
/// `min` is 0), the width is the widest offset's, the spare bits are 0,
/// and `min` plus the widest offset is at most `limit`. Each is checked
/// once, after the loop.
#[inline(always)]
fn unpack(
    segment: &str,
    f: Frame<'_>,
    limit: u64,
    out: &mut [FlowRecord],
    mut set: impl FnMut(&mut FlowRecord, u64),
) -> Result<u64, StoreError> {
    let (no_zero, hi) = match f.width {
        0 => {
            out.iter_mut().for_each(|r| set(r, f.min));
            (false, 0)
        }
        // A value and its shift fit one 8-byte load up to 56 bits.
        1..=56 => unpack_bits::<8>(f, out, set),
        _ => unpack_bits::<16>(f, out, set),
    };
    let spare = (out.len() * f.width as usize) % 8;
    let fail = |what: String| Err(column_err(segment, f.col, what));
    if out.is_empty() && f.min != 0 || !out.is_empty() && no_zero {
        return fail(format!("no value is the frame's min {}", f.min));
    }
    if bits(hi) != f.width {
        return fail(format!("{}-bit frame of {}-bit offsets", f.width, bits(hi)));
    }
    if spare != 0 && f.packed.last().is_some_and(|b| b >> spare != 0) {
        return fail("nonzero padding bits".to_string());
    }
    match f.min.checked_add(hi).filter(|&max| max <= limit) {
        Some(max) => Ok(max),
        None => fail(format!(
            "value {} out of range",
            u128::from(f.min) + u128::from(hi)
        )),
    }
}

/// The unpack for widths of 1 to 64 bits, each value one `LOAD`-byte
/// little-endian load at its byte and a shift. Values whose load lies
/// inside the column read it in place; the last few read a zero-padded
/// copy of its tail. Returns whether no offset is 0, and the largest.
#[inline(always)]
fn unpack_bits<const LOAD: usize>(
    f: Frame<'_>,
    out: &mut [FlowRecord],
    mut set: impl FnMut(&mut FlowRecord, u64),
) -> (bool, u64) {
    let w = f.width as usize;
    let fast = f
        .packed
        .len()
        .checked_sub(LOAD)
        .map_or(0, |room| out.len().min(room * 8 / w + 1));
    let (head, tail) = out.split_at_mut(fast);
    let from = fast * w / 8;
    let mut pad = [0u8; 32];
    pad[..f.packed.len() - from].copy_from_slice(&f.packed[from..]);
    let (no_zero, hi) = unpack_run::<LOAD>(f, f.packed, 0, head, &mut set);
    let (tail_no_zero, tail_hi) = unpack_run::<LOAD>(f, &pad, fast * w - from * 8, tail, &mut set);
    (no_zero && tail_no_zero, hi.max(tail_hi))
}

/// One loop of [`unpack_bits`]: `out`'s values, from bit `bit` of `src`.
/// Whether some offset is 0 is a flag, not a running minimum: one `and`
/// per value instead of a compare and select.
#[inline(always)]
fn unpack_run<const LOAD: usize>(
    f: Frame<'_>,
    src: &[u8],
    mut bit: usize,
    out: &mut [FlowRecord],
    set: &mut impl FnMut(&mut FlowRecord, u64),
) -> (bool, u64) {
    let mask = u64::MAX >> (64 - f.width);
    let (mut no_zero, mut hi) = (true, 0);
    for r in out {
        let at = bit / 8;
        let word = match LOAD {
            8 => u64::from_le_bytes(src[at..at + 8].try_into().expect("8 bytes")) >> (bit % 8),
            _ => {
                (u128::from_le_bytes(src[at..at + 16].try_into().expect("16 bytes")) >> (bit % 8))
                    as u64
            }
        };
        let d = word & mask;
        no_zero &= d != 0;
        hi = hi.max(d);
        set(r, f.min.wrapping_add(d));
        bit += f.width as usize;
    }
    (no_zero, hi)
}

#[cold]
#[inline(never)]
fn column_err(segment: &str, col: Column, what: impl fmt::Display) -> StoreError {
    corrupt(segment, format!("column {col:?}: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_base::hash::SplitMix;
    use lockdown_base::prop::cases;
    use lockdown_flow::time::Date;
    use std::ops::Range;

    /// Byte offsets of every column's length field and of its bytes, in
    /// on-disk order.
    fn directory(bytes: &[u8]) -> Vec<(usize, Range<usize>)> {
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

    /// Column `c`'s (an index into [`ALL_COLUMNS`]) frame and its `n`
    /// offsets, read one bit at a time.
    fn offsets(bytes: &[u8], c: usize, n: usize) -> (u64, u32, Vec<u64>) {
        let col = &bytes[directory(bytes)[c].1.clone()];
        let (min, width) = (u64::from_be_bytes(col[..8].try_into().unwrap()), col[8]);
        let packed = &col[FRAME_LEN..];
        let bit = |at: usize| u64::from((packed[at / 8] >> (at % 8)) & 1);
        let w = usize::from(width);
        let offsets = (0..n)
            .map(|i| (0..w).fold(0, |d, k| d | (bit(i * w + k) << k)))
            .collect();
        (min, width.into(), offsets)
    }

    /// The scalar reference: every column read one bit at a time, then
    /// the records assembled from them. Never used outside tests: it
    /// checks no frame and casts narrow fields with `as`, so a value
    /// wider than its field decodes truncated instead of failing.
    fn reference_decode(bytes: &[u8]) -> (Vec<FlowRecord>, SegmentFooter) {
        let footer = open_segment("reference", bytes).unwrap().footer;
        let n = footer.records as usize;
        let cols: Vec<Vec<u64>> = (0..ALL_COLUMNS.len())
            .map(|c| {
                let (min, _, offsets) = offsets(bytes, c, n);
                offsets.into_iter().map(|d| min.wrapping_add(d)).collect()
            })
            .collect();
        let records = (0..n)
            .map(|i| {
                let v = |col: Column| cols[col as usize - 1][i];
                let start = v(Column::Start);
                FlowRecord {
                    key: FlowKey {
                        src_addr: Ipv4Addr::from(v(Column::SrcAddr) as u32),
                        dst_addr: Ipv4Addr::from(v(Column::DstAddr) as u32),
                        src_port: v(Column::SrcPort) as u16,
                        dst_port: v(Column::DstPort) as u16,
                        protocol: IpProtocol::from_number(v(Column::Protocol) as u8),
                    },
                    start: Timestamp::from_unix(start),
                    end: Timestamp::from_unix(
                        start.wrapping_add(unzigzag(v(Column::Duration)) as u64),
                    ),
                    bytes: v(Column::Bytes),
                    packets: v(Column::Packets),
                    tcp_flags: TcpFlags(v(Column::TcpFlags) as u8),
                    input_if: v(Column::InputIf) as u16,
                    output_if: v(Column::OutputIf) as u16,
                    src_as: v(Column::SrcAs) as u32,
                    dst_as: v(Column::DstAs) as u32,
                    direction: match v(Column::Direction) {
                        0 => Direction::Ingress,
                        1 => Direction::Egress,
                        _ => Direction::Unknown,
                    },
                }
            })
            .collect();
        (records, footer)
    }

    /// Re-stamp the trailing CRC over the bytes before it, so a mutation
    /// gets past the CRC and reaches the column decoder.
    fn restamp(bytes: &mut [u8]) {
        if let Some(crc_off) = bytes.len().checked_sub(4) {
            let crc = crc32(&bytes[..crc_off]);
            bytes[crc_off..].copy_from_slice(&crc.to_be_bytes());
        }
    }

    /// `bytes` with column `c`'s bytes replaced by `col`, its length
    /// field fixed and the CRC re-stamped.
    fn with_column(bytes: &[u8], c: usize, col: &[u8]) -> Vec<u8> {
        let (len_at, at) = directory(bytes)[c].clone();
        let len = (col.len() as u32).to_be_bytes();
        let mut out = [&bytes[..len_at], &len, col, &bytes[at.end..]].concat();
        restamp(&mut out);
        out
    }

    /// `bytes` with column `c` packed again as `min | width | offsets`.
    fn repack(bytes: &[u8], c: usize, min: u64, width: u32, offsets: &[u64]) -> Vec<u8> {
        let mut col = Vec::new();
        pack(&mut col, min, width, offsets.iter().copied());
        with_column(bytes, c, &col)
    }

    /// Decode as the archive does, into a buffer that may hold records.
    /// A decode that succeeds must summarize the records it returns.
    fn decode_into(
        segment: &str,
        bytes: &[u8],
        out: &mut Vec<FlowRecord>,
    ) -> Result<SegmentFooter, StoreError> {
        let (footer, summary) = open_segment(segment, bytes)
            .inspect_err(|_| out.clear())?
            .decode_into(segment, out)?;
        assert_eq!(summary, Summary::of(out), "{segment}");
        Ok(footer)
    }

    /// A value of up to `bits` bits; half of them use every bit, so each
    /// column holds values of its field's full width.
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
    /// builder would refuse them), and each integer field
    /// spans one bit to its full width.
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

    /// The `Corrupt` detail of a decode that must fail, naming `segment`.
    fn refusal(segment: &str, bytes: &[u8]) -> String {
        match decode_segment(segment, bytes) {
            Err(StoreError::Corrupt { segment: s, detail }) if s == segment => detail,
            other => panic!("expected a named corruption, got {other:?}"),
        }
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
        // These starts span 500 s: a 9-bit frame.
        let (_, width, _) = offsets(&bytes, Column::Start as usize - 1, 500);
        assert_eq!(width, 9);
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
        let footer = open_segment("test", &bytes).unwrap().footer;
        let b = footer.zone(Column::Bytes).unwrap();
        assert_eq!(b.min, records.iter().map(|r| r.bytes).min().unwrap());
        assert_eq!(b.max, records.iter().map(|r| r.bytes).max().unwrap());
        let p = footer.zone(Column::DstPort).unwrap();
        assert_eq!((p.min, p.max), (443, 4500));
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
    fn a_record_count_past_the_limit_is_corrupt_and_allocates_nothing() {
        // An empty segment, every column 0 bits wide, whose footer claims
        // 2^40 records, CRC and all: no column's length can refuse it.
        let empty = encode_segment(&[]);
        let footer_start = check_trailer("empty", &empty).unwrap();
        let mut bytes = empty[..footer_start].to_vec();
        put_varint(&mut bytes, 1 << 40);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 0);
        bytes.push(0);
        bytes.put_u32_be((bytes.len() - footer_start) as u32);
        let crc = crc32(&bytes);
        bytes.put_u32_be(crc);
        assert_eq!(
            open_segment("huge", &bytes).unwrap().footer.records,
            1 << 40
        );
        let mut out = Vec::new();
        match decode_into("huge", &bytes, &mut out) {
            Err(StoreError::Corrupt { segment, detail }) => {
                assert_eq!(segment, "huge");
                assert!(detail.contains("1099511627776 records exceed"), "{detail}");
            }
            other => panic!("expected a named corruption, got {other:?}"),
        }
        assert_eq!(out.capacity(), 0);
    }

    #[test]
    fn a_segment_of_another_version_is_refused_by_version() {
        let mut bytes = encode_segment(&sample(3));
        bytes[4..6].copy_from_slice(&2u16.to_be_bytes());
        restamp(&mut bytes);
        assert_eq!(
            decode_segment("seg-v2", &bytes).unwrap_err(),
            StoreError::Version {
                file: "seg-v2".into(),
                found: 2
            }
        );
    }

    #[test]
    fn every_width_from_0_to_64_roundtrips() {
        // The bytes column spans exactly `width` bits, 0 and u64::MAX
        // together at 64, with the other counter columns at other widths;
        // the counts put the last value inside the 8- and 16-byte loads'
        // padded tail and past it.
        let mut out = Vec::new();
        for width in 0..=64u32 {
            for n in [1u32, 2, 7, 8, 9, 17, 64, 129] {
                let mut records = sample(n);
                let top = u64::MAX >> (64 - width.max(1));
                let base = if width == 64 { 0 } else { 3 << 40 };
                for (i, r) in records.iter_mut().enumerate() {
                    r.bytes = match (width, i) {
                        (0, _) => base,
                        (_, 0) => base,
                        (_, 1) => base + top,
                        _ => base + (top / 3).wrapping_mul(i as u64) % top.max(1),
                    };
                    r.packets = u64::MAX - r.bytes / 5;
                }
                let bytes = encode_segment(&records);
                let (_, stored, _) = offsets(&bytes, Column::Bytes as usize - 1, n as usize);
                let want = if n == 1 { 0 } else { width };
                assert_eq!(stored, want, "{width} bits, {n} records");
                let footer = decode_into("w", &bytes, &mut out).unwrap();
                assert_eq!(out, records, "{width} bits, {n} records");
                assert_eq!((out.clone(), footer), reference_decode(&bytes));
            }
        }
    }

    #[test]
    fn column_decoder_equals_the_bitwise_reference() {
        let check = |records: &[FlowRecord], out: &mut Vec<FlowRecord>| {
            let bytes = encode_segment(records);
            let (reference, reference_footer) = reference_decode(&bytes);
            let footer = decode_into("cell", &bytes, out).unwrap();
            assert_eq!(*out, reference);
            assert_eq!(*out, records);
            assert_eq!(footer, reference_footer);
            bytes.len()
        };
        let mut rng = SplitMix::new(0x5E6);
        let mut out = random_cell(&mut rng, 5);
        assert!(check(&[], &mut out) < 300);
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
        // Byte-level damage, and frames rewritten against each canonical
        // rule in turn: a min no value reaches, a width wider than the
        // offsets need, set padding bits, pad bytes, and a value past its
        // field's range. Each rule's mutants decode to the same records
        // when the rule is not checked, and re-encode differently.
        cases(4_000, |rng, size| {
            let segment = |rng: &mut SplitMix| {
                let n = rng.below(4 * size as u64) as usize;
                encode_segment(&random_cell(rng, n))
            };
            let (a, b) = (segment(rng), segment(rng));
            let n = open_segment("a", &a).unwrap().footer.records as usize;
            let cols = directory(&a);
            let c = rng.below(cols.len() as u64) as usize;
            let within = cols[c].1.clone();
            let (min, width, mut offs) = offsets(&a, c, n);
            let mut m = a.clone();
            match rng.below(10) {
                0 => {
                    // Anywhere, or inside one column's bytes.
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
                    let mut fields: Vec<usize> = cols.iter().map(|(at, _)| *at).collect();
                    fields.push(a.len() - TRAILER_LEN);
                    let at = rng.pick(&fields);
                    let len = u32::from_be_bytes(m[at..at + 4].try_into().unwrap());
                    let inflated = len.wrapping_add(rng.range(1..300) as u32);
                    m[at..at + 4].copy_from_slice(&inflated.to_be_bytes());
                }
                4 => {
                    let (i, j) = (rng.below(a.len() as u64), rng.below(b.len() as u64));
                    m = [&a[..i as usize], &b[j as usize..]].concat();
                }
                5 => {
                    // The min lowered, every offset raised to match.
                    let most = 1 << rng.range(1..40);
                    let k = rng.range(1..most).min(min);
                    let top = offs.iter().max().map_or(0, |&d| d.saturating_add(k));
                    offs.iter_mut().for_each(|d| *d = d.saturating_add(k));
                    m = repack(&a, c, min - k, bits(top), &offs);
                }
                6 => {
                    // The same offsets, wider.
                    let wider = rng.range(u64::from(width) + 1..66).min(64) as u32;
                    m = repack(&a, c, min, wider, &offs);
                }
                7 => {
                    // Any spare bit of the last byte set.
                    let spare = (n * width as usize % 8) as u64;
                    if spare != 0 {
                        m[within.end - 1] |= 1 << rng.range(spare..8);
                    }
                }
                8 => {
                    // Bytes after the last value, the length grown to match.
                    let pad: Vec<u8> = (0..rng.range(1..9))
                        .map(|_| rng.next_u64() as u8 & rng.pick(&[0, 0xFF]))
                        .collect();
                    m = with_column(&a, c, &[&a[within.clone()], &pad].concat());
                }
                _ => {
                    // One value past 2^(field bits), framed canonically.
                    let mut values: Vec<u64> = offs.iter().map(|d| min + d).collect();
                    if let Some(v) = values.get_mut(rng.below(n as u64 + 1) as usize) {
                        *v = magnitude(rng, 64) | 1 << rng.range(8..64);
                    }
                    let lo = values.iter().copied().min().unwrap_or(0);
                    let top = values.iter().map(|v| v - lo).max().unwrap_or(0);
                    let offs: Vec<u64> = values.iter().map(|v| v - lo).collect();
                    m = repack(&a, c, lo, bits(top), &offs);
                }
            }
            restamp(&mut m);
            let mut out = Vec::new();
            match decode_into("mutant", &m, &mut out) {
                Ok(_) => assert_eq!(encode_segment(&out), m, "a decode that does not re-encode"),
                Err(
                    StoreError::Corrupt { segment, .. } | StoreError::Version { file: segment, .. },
                ) => {
                    assert_eq!(segment, "mutant");
                    assert!(out.is_empty(), "a failed decode left records behind");
                }
                Err(e) => panic!("not a named refusal: {e:?}"),
            }
        });
    }

    /// One refusal per canonical rule, on column `SrcAs` of a 5-record
    /// cell whose values are 64 496..=64 500: a 3-bit frame at min 64 496.
    #[test]
    fn each_frame_rule_refuses_by_name() {
        let bytes = encode_segment(&sample(5));
        let c = Column::SrcAs as usize - 1;
        let (min, width, offs) = offsets(&bytes, c, 5);
        assert_eq!((min, width, &offs[..]), (64_496, 3, &[0, 1, 2, 3, 4][..]));
        let up: Vec<u64> = offs.iter().map(|d| d + 1).collect();
        let (_, at) = directory(&bytes)[c].clone();
        let mut padding = bytes.clone();
        padding[at.end - 1] |= 0x80; // 15 bits of 16 hold values
        restamp(&mut padding);
        let padded = with_column(&bytes, c, &[&bytes[at.clone()], &[0][..]].concat());
        let short = with_column(&bytes, c, &bytes[at.start..at.start + FRAME_LEN - 1]);
        let mut wide = bytes.clone();
        wide[at.start + 8] = 65;
        restamp(&mut wide);
        let cases: [(Vec<u8>, &str); 7] = [
            (
                repack(&bytes, c, min - 1, 3, &up),
                "no value is the frame's min 64495",
            ),
            (
                repack(&bytes, c, min, 4, &offs),
                "4-bit frame of 3-bit offsets",
            ),
            (padding, "nonzero padding bits"),
            (padded, "3 bytes where 5 values of 3 bits take 2"),
            (short, "shorter than its frame"),
            (wide, "65-bit values"),
            (
                repack(&bytes, c, u64::from(u32::MAX) - 3, 3, &offs),
                "value 4294967296 out of range",
            ),
        ];
        for (bad, want) in cases {
            let detail = refusal("rule", &bad);
            assert_eq!(detail, format!("column SrcAs: {want}"));
        }
        // An empty segment's frames are all `0 | 0`.
        let empty = encode_segment(&[]);
        let c = Column::DstAs as usize - 1;
        assert_eq!(
            refusal("rule", &repack(&empty, c, 7, 0, &[])),
            "column DstAs: no value is the frame's min 7"
        );
    }

    /// The unpack reads a column's values in place up to the last whole
    /// load and the rest from a padded copy of its tail: "some offset is
    /// 0" must be found on either side of that split, and refused when it
    /// is on neither.
    #[test]
    fn the_zero_offset_is_found_on_either_side_of_the_padded_tail() {
        let n = 40;
        let c = Column::SrcAs as usize - 1;
        for low in [0, n - 1] {
            let mut records = sample(n as u32);
            for (i, r) in records.iter_mut().enumerate() {
                r.src_as = if i == low { 100 } else { 1_000 + i as u32 };
            }
            let bytes = encode_segment(&records);
            let (min, width, offs) = offsets(&bytes, c, n);
            assert_eq!((min, width), (100, 10));
            assert_eq!(offs.iter().position(|&d| d == 0), Some(low));
            // 40 values of 10 bits take 50 bytes: an 8-byte load at the
            // last value's byte would overrun them, so it is in the tail.
            let in_tail = low * 10 / 8 + 8 > packed_len(n, 10);
            assert_eq!(in_tail, low == n - 1);
            assert_eq!(decode_segment("zero", &bytes).unwrap().0, records);
            let up: Vec<u64> = offs.iter().map(|d| d + 1).collect();
            assert_eq!(
                refusal("zero", &repack(&bytes, c, min - 1, 10, &up)),
                "column SrcAs: no value is the frame's min 99"
            );
        }
    }

    #[test]
    fn a_value_wider_than_its_field_is_corrupt_not_truncated() {
        // One record with the field at its maximum; the column is framed
        // again at `maximum + 4465` and the CRC re-stamped.
        type Field = (Column, u64, fn(&mut FlowRecord));
        let fields: [Field; 9] = [
            (Column::SrcAddr, u32::MAX.into(), |r| {
                r.key.src_addr = Ipv4Addr::BROADCAST
            }),
            (Column::SrcPort, 65_535, |r| r.key.src_port = u16::MAX),
            (Column::DstPort, 65_535, |r| r.key.dst_port = u16::MAX),
            (Column::Protocol, 255, |r| {
                r.key.protocol = IpProtocol::from_number(255)
            }),
            (Column::InputIf, 65_535, |r| r.input_if = u16::MAX),
            (Column::OutputIf, 65_535, |r| r.output_if = u16::MAX),
            (Column::SrcAs, u32::MAX.into(), |r| r.src_as = u32::MAX),
            (Column::DstAs, u32::MAX.into(), |r| r.dst_as = u32::MAX),
            (Column::Direction, 2, |r| r.direction = Direction::Unknown),
        ];
        for (col, max, set) in fields {
            let mut records = sample(1);
            set(&mut records[0]);
            let bytes = encode_segment(&records);
            let bytes = repack(&bytes, col as usize - 1, max + 4_465, 0, &[0]);
            // The reference keeps the low bits (70 000 as u16 is 4 464),
            // and that decode no longer re-encodes.
            let (truncated, _) = reference_decode(&bytes);
            assert_ne!(encode_segment(&truncated), bytes, "{col:?}");
            let want = format!("column {col:?}: value {} out of range", max + 4_465);
            assert_eq!(refusal("wide", &bytes), want);
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
