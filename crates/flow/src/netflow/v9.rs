//! NetFlow version 9 (RFC 3954) — the templated export format.
//!
//! A v9 packet carries a 20-byte header and a sequence of FlowSets. FlowSet
//! id 0 holds templates; ids ≥ 256 hold data records whose layout is defined
//! by the referenced template. Decoding therefore requires template state —
//! [`TemplateCache`] — which in practice is keyed by `(exporter, source id,
//! template id)`; here the exporter identity is the cache instance.

use super::options::{parse_options_record, validate, OptionsTemplate, SamplingInfo};
use super::{field, FieldSpec, FixedTimes, Template};
use crate::protocol::{IpProtocol, TcpFlags};
use crate::record::{Direction, FlowKey, FlowRecord};
use crate::time::{uptime, Timestamp};
use crate::wire::{padded, Cursor, PutBe, WireError, WireResult};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Export-time anchor for resolving uptime-relative timestamp fields.
///
/// Both values come from the packet header being decoded; wrapped
/// `FIRST_SWITCHED`/`LAST_SWITCHED` fields are resolved against them via
/// [`uptime::from_wire`], never against a reconstructed boot time (which
/// goes wrong once the u32 uptime clock wraps). Decoders for formats with
/// absolute timestamps (IPFIX) pass an anchor with `uptime_ms == 0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimeAnchor {
    /// Export time from the header, in Unix milliseconds.
    pub export_unix_ms: u64,
    /// `SysUptime` from the header (wrapped u32 milliseconds).
    pub uptime_ms: u32,
}

/// Protocol version constant.
pub(crate) const VERSION: u16 = 9;
/// Packet header size.
pub const HEADER_LEN: usize = 20;
/// FlowSet id carrying templates.
pub(crate) const TEMPLATE_FLOWSET_ID: u16 = 0;
/// FlowSet id carrying options templates (parsed and skipped).
pub(crate) const OPTIONS_FLOWSET_ID: u16 = 1;

/// Decoded v9 packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V9Header {
    /// Total records (data + templates) in the packet.
    pub count: u16,
    /// Milliseconds since the exporter booted.
    pub sys_uptime_ms: u32,
    /// Export time, Unix seconds.
    pub unix_secs: u32,
    /// Packet-level sequence number (unlike v5's flow-level one).
    pub sequence: u32,
    /// Exporter observation domain ("source id").
    pub source_id: u32,
}

/// Per-exporter template state used when decoding data FlowSets.
#[derive(Debug, Default, Clone)]
pub struct TemplateCache {
    templates: HashMap<u16, Template>,
    options: HashMap<u16, OptionsTemplate>,
    sampling: Option<SamplingInfo>,
}

impl TemplateCache {
    /// An empty cache.
    pub fn new() -> TemplateCache {
        TemplateCache::default()
    }

    /// Insert or refresh a template (v9 semantics: latest definition wins).
    pub(crate) fn insert(&mut self, template: Template) {
        self.templates.insert(template.id, template);
    }

    /// Insert or refresh an options template.
    pub(crate) fn insert_options(&mut self, template: OptionsTemplate) {
        self.options.insert(template.id, template);
    }

    /// The exporter's announced sampling configuration, if any.
    pub(crate) fn sampling(&self) -> Option<SamplingInfo> {
        self.sampling
    }
}

/// Encode one v9 packet containing a template FlowSet (if `template` is
/// given) followed by a data FlowSet with `records`.
///
/// Real exporters resend templates periodically; [`crate::exporter::Exporter`]
/// models that refresh cycle and calls this with `template: Some(..)` when
/// due.
pub fn encode(
    records: &[FlowRecord],
    template: Option<&Template>,
    data_template: &Template,
    export_time: Timestamp,
    boot_time: Timestamp,
    sequence: u32,
    source_id: u32,
) -> Vec<u8> {
    encode_full(
        records,
        template,
        None,
        data_template,
        export_time,
        boot_time,
        sequence,
        source_id,
    )
}

/// [`encode`] plus an optional in-band sampling announcement: when
/// `sampling` is given, the packet carries an options template FlowSet and
/// one options data record scoped to this exporter (RFC 3954 §6.1).
#[allow(clippy::too_many_arguments)] // mirrors the packet layout
pub(crate) fn encode_full(
    records: &[FlowRecord],
    template: Option<&Template>,
    sampling: Option<(&OptionsTemplate, SamplingInfo)>,
    data_template: &Template,
    export_time: Timestamp,
    boot_time: Timestamp,
    sequence: u32,
    source_id: u32,
) -> Vec<u8> {
    assert!(export_time >= boot_time, "export before boot");
    // Modular uptime encoding: see `time::uptime` for the wrap semantics.
    let boot_ms = boot_time.unix() * 1000;
    let export_ms = export_time.unix() * 1000;
    let record_count =
        records.len() + usize::from(template.is_some()) + if sampling.is_some() { 2 } else { 0 };
    let total = packet_len(
        records.len(),
        template,
        sampling.map(|(ot, _)| ot),
        data_template,
    );
    let mut buf = Vec::with_capacity(total);
    buf.put_u16_be(VERSION);
    buf.put_u16_be(u16::try_from(record_count).expect("a v9 packet's record count is 16-bit"));
    buf.put_u32_be(uptime::to_wire(export_ms, boot_ms));
    buf.put_u32_be(export_time.unix() as u32);
    buf.put_u32_be(sequence);
    buf.put_u32_be(source_id);

    if let Some(t) = template {
        encode_template_flowset(&mut buf, t);
    }
    if let Some((ot, info)) = sampling {
        encode_options_template_flowset(&mut buf, ot);
        encode_options_data_flowset(&mut buf, ot, info, source_id);
    }
    encode_data_set(&mut buf, records, data_template, boot_ms, export_ms);
    assert_eq!(buf.len(), total, "v9 packet length computed up front");
    buf
}

/// Exact length of the packet [`encode_full`] builds from these parts.
pub(crate) fn packet_len(
    records: usize,
    template: Option<&Template>,
    sampling: Option<&OptionsTemplate>,
    data_template: &Template,
) -> usize {
    HEADER_LEN
        + template.map_or(0, |t| 8 + t.fields.len() * 4)
        + sampling.map_or(0, |ot| {
            let specs = (ot.scope_fields.len() + ot.option_fields.len()) * 4;
            padded(10 + specs) + padded(4 + ot.record_len())
        })
        + data_set_len(records, data_template)
}

/// v9 options template FlowSet: scope/option sizes are in *bytes*.
fn encode_options_template_flowset(buf: &mut Vec<u8>, t: &OptionsTemplate) {
    let scope_len = t.scope_fields.len() * 4;
    let option_len = t.option_fields.len() * 4;
    let raw = 4 + 6 + scope_len + option_len;
    let padding = (4 - raw % 4) % 4;
    buf.put_u16_be(OPTIONS_FLOWSET_ID);
    buf.put_u16_be((raw + padding) as u16);
    buf.put_u16_be(t.id);
    buf.put_u16_be(scope_len as u16);
    buf.put_u16_be(option_len as u16);
    for f in t.scope_fields.iter().chain(&t.option_fields) {
        buf.put_u16_be(f.field_type);
        buf.put_u16_be(f.length);
    }
    for _ in 0..padding {
        buf.put_u8_be(0);
    }
}

/// One options data record (in a regular data FlowSet keyed by the
/// options template id) announcing the sampling configuration.
fn encode_options_data_flowset(
    buf: &mut Vec<u8>,
    t: &OptionsTemplate,
    info: SamplingInfo,
    source_id: u32,
) {
    use super::options::{SAMPLING_ALGORITHM, SAMPLING_INTERVAL, SCOPE_SYSTEM};
    let raw = 4 + t.record_len();
    let padding = (4 - raw % 4) % 4;
    buf.put_u16_be(t.id);
    buf.put_u16_be((raw + padding) as u16);
    for f in t.scope_fields.iter().chain(&t.option_fields) {
        let value: u64 = match f.field_type {
            SCOPE_SYSTEM => u64::from(source_id),
            SAMPLING_INTERVAL => u64::from(info.interval),
            SAMPLING_ALGORITHM => u64::from(info.algorithm),
            _ => 0,
        };
        for i in (0..f.length).rev() {
            buf.put_u8_be((value >> (8 * i)) as u8);
        }
    }
    for _ in 0..padding {
        buf.put_u8_be(0);
    }
}

fn encode_template_flowset(buf: &mut Vec<u8>, t: &Template) {
    let body_len = 4 + 4 + t.fields.len() * 4; // flowset hdr + tmpl hdr + fields
    buf.put_u16_be(TEMPLATE_FLOWSET_ID);
    buf.put_u16_be(body_len as u16);
    buf.put_u16_be(t.id);
    buf.put_u16_be(t.fields.len() as u16);
    for f in &t.fields {
        buf.put_u16_be(f.field_type);
        buf.put_u16_be(f.length);
    }
}

/// Encoded length of a data record of either standard template.
const FIXED_LEN: usize = 51;

/// Length of the data set carrying `records` records of `template`, header
/// and alignment padding included; an empty batch has no data set.
pub(crate) fn data_set_len(records: usize, template: &Template) -> usize {
    if records == 0 {
        0
    } else {
        padded(4 + records * template.record_len())
    }
}

/// Append the data set (v9 FlowSet, IPFIX Set: same bytes) carrying
/// `records`. The record layout is chosen here, once per set, from the
/// template's field list: the standard lists are written at fixed offsets,
/// any other list by the per-field walk.
pub(crate) fn encode_data_set(
    buf: &mut Vec<u8>,
    records: &[FlowRecord],
    template: &Template,
    boot_ms: u64,
    export_ms: u64,
) {
    let set_len = data_set_len(records.len(), template);
    if set_len == 0 {
        return;
    }
    let end = buf.len() + set_len;
    buf.put_u16_be(template.id);
    buf.put_u16_be(u16::try_from(set_len).expect("a data set's length is a 16-bit field"));
    match template.fixed_times() {
        Some(times) => encode_fixed(buf, records, times, boot_ms, export_ms),
        None => encode_walk(buf, records, template, boot_ms, export_ms),
    }
    buf.resize(end, 0); // sets are 32-bit aligned
}

/// Wire code of a flow direction (`flowDirection`, 0xFF when unknown).
fn direction_code(direction: Direction) -> u8 {
    match direction {
        Direction::Ingress => 0,
        Direction::Egress => 1,
        Direction::Unknown => 0xFF,
    }
}

fn direction_of(code: u64) -> Direction {
    match code {
        0 => Direction::Ingress,
        1 => Direction::Egress,
        _ => Direction::Unknown,
    }
}

/// The standard templates' records, written at fixed offsets: the same
/// bytes [`encode_walk`] produces for those field lists.
fn encode_fixed(
    buf: &mut Vec<u8>,
    records: &[FlowRecord],
    times: FixedTimes,
    boot_ms: u64,
    export_ms: u64,
) {
    let rel_ms = |t: Timestamp| uptime::record_field(t.unix() * 1000, boot_ms, export_ms);
    for r in records {
        let (start, end) = match times {
            FixedTimes::Seconds => (r.start.unix() as u32, r.end.unix() as u32),
            FixedTimes::Uptime => (rel_ms(r.start), rel_ms(r.end)),
        };
        let mut out = [0u8; FIXED_LEN];
        out[0..4].copy_from_slice(&r.key.src_addr.octets());
        out[4..8].copy_from_slice(&r.key.dst_addr.octets());
        out[8..10].copy_from_slice(&r.key.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&r.key.dst_port.to_be_bytes());
        out[12] = r.key.protocol.number();
        out[13] = r.tcp_flags.0;
        out[14..16].copy_from_slice(&r.input_if.to_be_bytes());
        out[16..18].copy_from_slice(&r.output_if.to_be_bytes());
        out[18..26].copy_from_slice(&r.bytes.to_be_bytes());
        out[26..34].copy_from_slice(&r.packets.to_be_bytes());
        out[34..38].copy_from_slice(&start.to_be_bytes());
        out[38..42].copy_from_slice(&end.to_be_bytes());
        out[42..46].copy_from_slice(&r.src_as.to_be_bytes());
        out[46..50].copy_from_slice(&r.dst_as.to_be_bytes());
        out[50] = direction_code(r.direction);
        buf.extend_from_slice(&out);
    }
}

/// Any template's records, field by field: the only path for permuted,
/// reduced-size and foreign templates, and the reference [`encode_fixed`]
/// is tested against.
fn encode_walk(
    buf: &mut Vec<u8>,
    records: &[FlowRecord],
    template: &Template,
    boot_ms: u64,
    export_ms: u64,
) {
    for r in records {
        for f in &template.fields {
            encode_field(buf, r, f, boot_ms, export_ms);
        }
    }
}

/// Encode one field of one record according to its spec.
fn encode_field(buf: &mut Vec<u8>, r: &FlowRecord, spec: &FieldSpec, boot_ms: u64, export_ms: u64) {
    use field::*;
    let rel_ms = |t: Timestamp| -> u64 {
        u64::from(uptime::record_field(t.unix() * 1000, boot_ms, export_ms))
    };
    let value: u64 = match spec.field_type {
        IPV4_SRC_ADDR => u64::from(u32::from(r.key.src_addr)),
        IPV4_DST_ADDR => u64::from(u32::from(r.key.dst_addr)),
        L4_SRC_PORT => u64::from(r.key.src_port),
        L4_DST_PORT => u64::from(r.key.dst_port),
        PROTOCOL => u64::from(r.key.protocol.number()),
        TCP_FLAGS => u64::from(r.tcp_flags.0),
        INPUT_SNMP => u64::from(r.input_if),
        OUTPUT_SNMP => u64::from(r.output_if),
        IN_BYTES => r.bytes,
        IN_PKTS => r.packets,
        FIRST_SWITCHED => rel_ms(r.start),
        LAST_SWITCHED => rel_ms(r.end),
        FLOW_START_SECONDS => r.start.unix(),
        FLOW_END_SECONDS => r.end.unix(),
        SRC_AS => u64::from(r.src_as),
        DST_AS => u64::from(r.dst_as),
        DIRECTION => u64::from(direction_code(r.direction)),
        _ => 0, // unknown field types encode as zero
    };
    // Big-endian, truncated to the spec'd length (reduced-size encoding).
    for i in (0..spec.length).rev() {
        buf.put_u8_be((value >> (8 * i)) as u8);
    }
}

/// Validate the packet header without touching FlowSets.
pub fn check(buf: &[u8]) -> WireResult<V9Header> {
    let mut c = Cursor::new(buf);
    let version = c.read_u16("v9 version")?;
    if version != VERSION {
        return Err(WireError::BadVersion {
            expected: VERSION,
            found: version,
        });
    }
    let count = c.read_u16("v9 count")?;
    let sys_uptime_ms = c.read_u32("v9 uptime")?;
    let unix_secs = c.read_u32("v9 unix secs")?;
    let sequence = c.read_u32("v9 sequence")?;
    let source_id = c.read_u32("v9 source id")?;
    Ok(V9Header {
        count,
        sys_uptime_ms,
        unix_secs,
        sequence,
        source_id,
    })
}

/// Data sets skipped during a tolerant decode because their template had not
/// been seen yet. Shared by the v9 and IPFIX decoders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SkippedSets {
    /// Number of data sets skipped in this datagram.
    pub count: u32,
    /// Template id of the first skipped set, for error reporting.
    pub first_id: Option<u16>,
}

impl SkippedSets {
    /// Record one skipped data set referencing template `id`.
    pub(crate) fn note(&mut self, id: u16) {
        self.count += 1;
        self.first_id.get_or_insert(id);
    }
}

/// Decode a v9 packet, updating `cache` with any templates found and
/// decoding data FlowSets whose template is known.
///
/// Data FlowSets referencing unknown templates produce
/// [`WireError::UnknownTemplate`]; a tolerant collector should use
/// `decode_tolerant` instead to keep the records from the datagram's other
/// FlowSets (see [`crate::collector`]).
pub fn decode(buf: &[u8], cache: &mut TemplateCache) -> WireResult<(V9Header, Vec<FlowRecord>)> {
    let (header, records, skipped) = decode_tolerant(buf, cache)?;
    if let Some(id) = skipped.first_id {
        return Err(WireError::UnknownTemplate { id });
    }
    Ok((header, records))
}

/// Decode a v9 packet, skipping (rather than failing on) data FlowSets whose
/// template is unknown.
///
/// Templates learned from earlier FlowSets in the same datagram apply to
/// later ones, so an unknown template only costs the sets that reference it.
/// Structural errors (truncation, bad lengths, reserved ids) still fail the
/// whole datagram.
pub(crate) fn decode_tolerant(
    buf: &[u8],
    cache: &mut TemplateCache,
) -> WireResult<(V9Header, Vec<FlowRecord>, SkippedSets)> {
    let mut records = Vec::new();
    let (header, skipped) = decode_tolerant_into(buf, cache, &mut records)?;
    Ok((header, records, skipped))
}

/// [`decode_tolerant`] appending to the caller's `out`, which is left as
/// it was found when the datagram is rejected.
pub(crate) fn decode_tolerant_into(
    buf: &[u8],
    cache: &mut TemplateCache,
    out: &mut Vec<FlowRecord>,
) -> WireResult<(V9Header, SkippedSets)> {
    let header = check(buf)?;
    let anchor = TimeAnchor {
        export_unix_ms: u64::from(header.unix_secs) * 1000,
        uptime_ms: header.sys_uptime_ms,
    };
    let mark = out.len();
    let mut sets = || {
        let mut c = Cursor::new(&buf[HEADER_LEN..]);
        let mut skipped = SkippedSets::default();
        while c.remaining() >= 4 {
            let set_id = c.read_u16("flowset id")?;
            let set_len = c.read_u16("flowset length")? as usize;
            if set_len < 4 {
                return Err(WireError::BadLength {
                    what: "flowset length",
                    value: set_len,
                });
            }
            let mut body = c.sub(set_len - 4, "flowset body")?;
            match set_id {
                TEMPLATE_FLOWSET_ID => decode_template_flowset(&mut body, cache)?,
                OPTIONS_FLOWSET_ID => decode_options_template_flowset(&mut body, cache)?,
                id if id >= 256 => {
                    decode_data_set(id, &mut body, cache, anchor, out, &mut skipped)?
                }
                _ => {
                    return Err(WireError::BadField {
                        what: "reserved flowset id",
                    })
                }
            }
        }
        Ok(skipped)
    };
    let skipped = sets().inspect_err(|_| out.truncate(mark))?;
    Ok((header, skipped))
}

/// Decode one data set (ids ≥ 256; v9 FlowSet and IPFIX Set alike). A set
/// keyed by an options template is exporter metadata and updates the
/// cache's sampling state; one whose template is unknown is noted in
/// `skipped`; otherwise its flow records are appended to `out` — at fixed
/// offsets when the template's field list is a standard one, by the
/// per-field walk when not. The templates are borrowed, never cloned.
pub(crate) fn decode_data_set(
    id: u16,
    body: &mut Cursor<'_>,
    cache: &mut TemplateCache,
    anchor: TimeAnchor,
    out: &mut Vec<FlowRecord>,
    skipped: &mut SkippedSets,
) -> WireResult<()> {
    if let Some(ot) = cache.options.get(&id) {
        let rec_len = ot.record_len();
        while rec_len > 0 && body.remaining() >= rec_len {
            if let Some(info) = parse_options_record(body, ot)? {
                cache.sampling = Some(info);
            }
        }
        return Ok(());
    }
    let Some(template) = cache.templates.get(&id) else {
        skipped.note(id);
        return Ok(());
    };
    match template.fixed_times() {
        Some(times) => {
            let bytes = body.read_bytes(body.remaining(), "data set")?;
            decode_fixed(bytes, times, anchor, out)
        }
        None => decode_walk(body, template, anchor, out),
    }
}

/// Decode a template set: same bytes in v9 and IPFIX.
pub(crate) fn decode_template_flowset(
    c: &mut Cursor<'_>,
    cache: &mut TemplateCache,
) -> WireResult<()> {
    // A template set may carry several templates back to back.
    while c.remaining() >= 4 {
        let id = c.read_u16("template id")?;
        let field_count = c.read_u16("template field count")? as usize;
        let mut fields = Vec::with_capacity(field_count);
        for _ in 0..field_count {
            let field_type = c.read_u16("field type")?;
            let length = c.read_u16("field length")?;
            if length == 0 {
                return Err(WireError::BadLength {
                    what: "template field length",
                    value: 0,
                });
            }
            fields.push(FieldSpec { field_type, length });
        }
        cache.insert(Template::new(id, fields)?);
    }
    Ok(())
}

/// Decode a v9 options template FlowSet (scope/option sizes in bytes).
fn decode_options_template_flowset(
    c: &mut Cursor<'_>,
    cache: &mut TemplateCache,
) -> WireResult<()> {
    while c.remaining() >= 6 {
        let id = c.read_u16("options template id")?;
        let scope_len = c.read_u16("option scope length")? as usize;
        let option_len = c.read_u16("option length")? as usize;
        if !scope_len.is_multiple_of(4) || !option_len.is_multiple_of(4) {
            return Err(WireError::BadLength {
                what: "options template field-spec length",
                value: scope_len + option_len,
            });
        }
        let read_specs = |n: usize, c: &mut Cursor<'_>| -> WireResult<Vec<FieldSpec>> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let field_type = c.read_u16("options field type")?;
                let length = c.read_u16("options field length")?;
                out.push(FieldSpec { field_type, length });
            }
            Ok(out)
        };
        let scope_fields = read_specs(scope_len / 4, c)?;
        let option_fields = read_specs(option_len / 4, c)?;
        let t = OptionsTemplate {
            id,
            scope_fields,
            option_fields,
        };
        validate(&t)?;
        cache.insert_options(t);
        // Remaining bytes < 6 are padding; the loop condition handles it.
    }
    Ok(())
}

/// The standard templates' records, read at fixed offsets: the same
/// records, or the same error, [`decode_walk`] gives for those field
/// lists. Whatever follows the last whole record is alignment padding.
fn decode_fixed(
    set: &[u8],
    times: FixedTimes,
    anchor: TimeAnchor,
    out: &mut Vec<FlowRecord>,
) -> WireResult<()> {
    let records = set.chunks_exact(FIXED_LEN);
    out.reserve(records.len());
    for rec in records {
        let rec: &[u8; FIXED_LEN] = rec.try_into().expect("chunks_exact yields whole records");
        let u16_at = |at: usize| u16::from_be_bytes([rec[at], rec[at + 1]]);
        let u32_at =
            |at: usize| u32::from_be_bytes([rec[at], rec[at + 1], rec[at + 2], rec[at + 3]]);
        let u64_at = |at: usize| (u64::from(u32_at(at)) << 32) | u64::from(u32_at(at + 4));
        let time = |at: usize| match times {
            FixedTimes::Seconds => Timestamp(u64::from(u32_at(at))),
            FixedTimes::Uptime => Timestamp(
                uptime::from_wire(u32_at(at), anchor.uptime_ms, anchor.export_unix_ms) / 1000,
            ),
        };
        let (start, end) = (time(34), time(38));
        if end < start {
            return Err(ENDS_BEFORE_IT_STARTS);
        }
        out.push(FlowRecord {
            key: FlowKey {
                src_addr: Ipv4Addr::from(u32_at(0)),
                dst_addr: Ipv4Addr::from(u32_at(4)),
                src_port: u16_at(8),
                dst_port: u16_at(10),
                protocol: IpProtocol::from_number(rec[12]),
            },
            start,
            end,
            bytes: u64_at(18),
            packets: u64_at(26),
            tcp_flags: TcpFlags(rec[13]),
            input_if: u16_at(14),
            output_if: u16_at(16),
            src_as: u32_at(42),
            dst_as: u32_at(46),
            direction: direction_of(u64::from(rec[50])),
        });
    }
    Ok(())
}

const ENDS_BEFORE_IT_STARTS: WireError = WireError::BadField {
    what: "flow ends before it starts",
};

/// Any template's records, field by field (see [`encode_walk`]).
fn decode_walk(
    c: &mut Cursor<'_>,
    template: &Template,
    anchor: TimeAnchor,
    out: &mut Vec<FlowRecord>,
) -> WireResult<()> {
    let rec_len = template.record_len();
    if rec_len == 0 {
        return Err(WireError::BadLength {
            what: "template record length",
            value: 0,
        });
    }
    while c.remaining() >= rec_len {
        out.push(decode_record(c, template, anchor)?);
    }
    // Whatever is left (< rec_len) is alignment padding.
    Ok(())
}

/// Decode one data record against a template, element by element.
fn decode_record(
    c: &mut Cursor<'_>,
    template: &Template,
    anchor: TimeAnchor,
) -> WireResult<FlowRecord> {
    use field::*;
    let mut src_addr = Ipv4Addr::UNSPECIFIED;
    let mut dst_addr = Ipv4Addr::UNSPECIFIED;
    let (mut src_port, mut dst_port) = (0u16, 0u16);
    let mut protocol = IpProtocol::Other(0);
    let mut tcp_flags = TcpFlags::default();
    let (mut input_if, mut output_if) = (0u16, 0u16);
    let (mut bytes, mut packets) = (0u64, 0u64);
    let (mut start, mut end) = (Timestamp(0), Timestamp(0));
    let (mut src_as, mut dst_as) = (0u32, 0u32);
    let mut direction = Direction::Unknown;

    for f in &template.fields {
        let v = c.read_uint(f.length as usize, "data field")?;
        match f.field_type {
            IPV4_SRC_ADDR => src_addr = Ipv4Addr::from(v as u32),
            IPV4_DST_ADDR => dst_addr = Ipv4Addr::from(v as u32),
            L4_SRC_PORT => src_port = v as u16,
            L4_DST_PORT => dst_port = v as u16,
            PROTOCOL => protocol = IpProtocol::from_number(v as u8),
            TCP_FLAGS => tcp_flags = TcpFlags(v as u8),
            INPUT_SNMP => input_if = v as u16,
            OUTPUT_SNMP => output_if = v as u16,
            IN_BYTES => bytes = v,
            IN_PKTS => packets = v,
            FIRST_SWITCHED => {
                start = Timestamp(
                    uptime::from_wire(v as u32, anchor.uptime_ms, anchor.export_unix_ms) / 1000,
                )
            }
            LAST_SWITCHED => {
                end = Timestamp(
                    uptime::from_wire(v as u32, anchor.uptime_ms, anchor.export_unix_ms) / 1000,
                )
            }
            FLOW_START_SECONDS => start = Timestamp(v),
            FLOW_END_SECONDS => end = Timestamp(v),
            SRC_AS => src_as = v as u32,
            DST_AS => dst_as = v as u32,
            DIRECTION => direction = direction_of(v),
            _ => { /* unknown information element: ignore */ }
        }
    }
    if end < start {
        return Err(ENDS_BEFORE_IT_STARTS);
    }
    Ok(FlowRecord {
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
        direction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Date;
    use lockdown_base::prop::cases;

    const EXPORT_MS: u64 = 1_585_000_000_000; // 2020-03-23
    const BOOT_MS: u64 = EXPORT_MS - 86_400_000;

    /// Both standard field lists, each with the layout it selects and the
    /// anchor its decoder resolves timestamps against.
    fn standard() -> [(Template, FixedTimes, TimeAnchor); 2] {
        let anchor = |uptime_ms| TimeAnchor {
            export_unix_ms: EXPORT_MS,
            uptime_ms,
        };
        [
            (
                Template::standard_ipfix(256),
                FixedTimes::Seconds,
                anchor(0),
            ),
            (
                Template::standard_v9(256),
                FixedTimes::Uptime,
                anchor(uptime::to_wire(EXPORT_MS, BOOT_MS)),
            ),
        ]
    }

    /// Fixed layout against the walk over the same records: the same
    /// bytes out, and the same records back from those bytes.
    #[test]
    fn fixed_layout_writes_and_reads_what_the_walk_does() {
        cases(256, |rng, _| {
            let records: Vec<FlowRecord> = (0..rng.below(65))
                .map(|_| {
                    let start = Timestamp(EXPORT_MS / 1000 - rng.below(3_600) - 600);
                    FlowRecord {
                        key: FlowKey {
                            src_addr: Ipv4Addr::from(rng.next_u64() as u32),
                            dst_addr: Ipv4Addr::from(rng.next_u64() as u32),
                            src_port: rng.next_u64() as u16,
                            dst_port: rng.next_u64() as u16,
                            protocol: IpProtocol::from_number(rng.next_u64() as u8),
                        },
                        start,
                        end: start.add_secs(rng.below(600)),
                        bytes: rng.next_u64(),
                        packets: rng.next_u64(),
                        tcp_flags: TcpFlags(rng.next_u64() as u8),
                        input_if: rng.next_u64() as u16,
                        output_if: rng.next_u64() as u16,
                        src_as: rng.next_u64() as u32,
                        dst_as: rng.next_u64() as u32,
                        direction: direction_of(rng.below(3)),
                    }
                })
                .collect();
            for (template, times, anchor) in standard() {
                assert_eq!(template.fixed_times(), Some(times));
                let (mut fixed, mut walk) = (Vec::new(), Vec::new());
                encode_fixed(&mut fixed, &records, times, BOOT_MS, EXPORT_MS);
                encode_walk(&mut walk, &records, &template, BOOT_MS, EXPORT_MS);
                assert_eq!(fixed, walk, "{times:?}");
                let (mut by_fixed, mut by_walk) = (Vec::new(), Vec::new());
                decode_fixed(&fixed, times, anchor, &mut by_fixed).unwrap();
                decode_walk(&mut Cursor::new(&walk), &template, anchor, &mut by_walk).unwrap();
                assert_eq!(by_fixed, records, "{times:?}");
                assert_eq!(by_walk, records, "{times:?}");
            }
        });
    }

    /// Whatever bytes a standard-template data set holds — any length, so
    /// every truncation and inflation of a whole number of records, and
    /// any content, so flows that end before they start — both layouts
    /// give the same records or the same error.
    #[test]
    fn fixed_layout_rejects_what_the_walk_rejects() {
        let (mut accepted, mut rejected) = (0, 0);
        cases(512, |rng, _| {
            let mut set: Vec<u8> = (0..rng.below(4 * FIXED_LEN as u64 + 4))
                .map(|_| rng.next_u64() as u8)
                .collect();
            if rng.chance(0.5) {
                // Let whole sets decode too: zero every record's start.
                for rec in set.chunks_exact_mut(FIXED_LEN) {
                    rec[34..38].fill(0);
                }
            }
            for (template, times, anchor) in standard() {
                let (mut by_fixed, mut by_walk) = (Vec::new(), Vec::new());
                let fixed = decode_fixed(&set, times, anchor, &mut by_fixed);
                let walk = decode_walk(&mut Cursor::new(&set), &template, anchor, &mut by_walk);
                assert_eq!(fixed, walk, "{times:?}");
                assert_eq!(by_fixed, by_walk, "{times:?}");
                match fixed {
                    Ok(()) => accepted += 1,
                    Err(_) => rejected += 1,
                }
            }
        });
        assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
    }

    fn sample(start: Timestamp, i: u16) -> FlowRecord {
        FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(100, 64, (i >> 8) as u8, i as u8),
                dst_addr: Ipv4Addr::new(192, 0, 2, 1),
                src_port: 40_000 + i,
                dst_port: 443,
                protocol: IpProtocol::Udp,
            },
            start,
        )
        .end(start.add_secs(9))
        .bytes(1_234_567)
        .packets(890)
        .asns(6_805, 20_940)
        .direction(Direction::Egress)
        .build()
    }

    #[test]
    fn roundtrip_with_inline_template() {
        let boot = Date::new(2020, 2, 20).midnight();
        let export = boot.add_hours(3);
        let t = Template::standard_v9(300);
        let recs: Vec<_> = (0..5)
            .map(|i| {
                let mut r = sample(export, i);
                r.start = Timestamp(export.unix() - 60);
                r.end = Timestamp(export.unix() - 51);
                r
            })
            .collect();
        let pkt = encode(&recs, Some(&t), &t, export, boot, 9, 1);
        let mut cache = TemplateCache::new();
        let (hdr, out) = decode(&pkt, &mut cache).unwrap();
        assert_eq!(hdr.count, 6); // 5 data + 1 template
        assert_eq!(hdr.source_id, 1);
        assert_eq!(cache.templates.len(), 1);
        assert_eq!(out.len(), 5);
        for (a, b) in recs.iter().zip(&out) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn data_without_template_fails_then_succeeds() {
        let boot = Date::new(2020, 2, 20).midnight();
        let export = boot.add_hours(1);
        let t = Template::standard_v9(400);
        let mut r = sample(export, 1);
        r.start = Timestamp(export.unix() - 10);
        r.end = Timestamp(export.unix() - 2);

        let data_only = encode(&[r], None, &t, export, boot, 1, 7);
        let mut cache = TemplateCache::new();
        assert!(matches!(
            decode(&data_only, &mut cache),
            Err(WireError::UnknownTemplate { id: 400 })
        ));

        // Template-only packet teaches the cache; data then decodes.
        let tmpl_only = encode(&[], Some(&t), &t, export, boot, 2, 7);
        let (_, none) = decode(&tmpl_only, &mut cache).unwrap();
        assert!(none.is_empty());
        let (_, recs) = decode(&data_only, &mut cache).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].bytes, 1_234_567);
        assert_eq!(recs[0].direction, Direction::Egress);
    }

    #[test]
    fn flowset_alignment_padding() {
        // standard template is 41 bytes -> one record needs 3 bytes padding.
        let boot = Date::new(2020, 2, 20).midnight();
        let export = boot.add_hours(1);
        let t = Template::standard_v9(300);
        let mut r = sample(export, 0);
        r.start = Timestamp(export.unix() - 10);
        r.end = Timestamp(export.unix() - 2);
        let pkt = encode(&[r], None, &t, export, boot, 0, 0);
        assert_eq!(
            (pkt.len() - HEADER_LEN) % 4,
            0,
            "flowset must be 32-bit aligned"
        );
        let mut cache = TemplateCache::new();
        cache.insert(t);
        let (_, recs) = decode(&pkt, &mut cache).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn wrong_version_rejected() {
        let boot = Date::new(2020, 2, 20).midnight();
        let t = Template::standard_v9(300);
        let mut pkt = encode(&[], Some(&t), &t, boot.add_hours(1), boot, 0, 0);
        pkt[1] = 10;
        assert!(matches!(
            check(&pkt),
            Err(WireError::BadVersion { found: 10, .. })
        ));
    }

    #[test]
    fn truncated_flowset_rejected() {
        let boot = Date::new(2020, 2, 20).midnight();
        let export = boot.add_hours(1);
        let t = Template::standard_v9(300);
        let mut r = sample(export, 0);
        r.start = Timestamp(export.unix() - 10);
        r.end = Timestamp(export.unix() - 2);
        let pkt = encode(&[r], Some(&t), &t, export, boot, 0, 0);
        let mut cache = TemplateCache::new();
        assert!(decode(&pkt[..pkt.len() - 5], &mut cache).is_err());
    }

    #[test]
    fn uptime_wrap_straddling_flow_roundtrips() {
        // The exporter has been up just past one u32-ms wrap: FIRST/LAST
        // SWITCHED fields straddling the wrap must decode monotonically
        // against the export-time anchor. The pre-fix decoder derived
        // boot = export - wrapped_uptime and rejected these records.
        let boot = Date::new(2020, 1, 1).midnight();
        let wrap_secs = uptime::WRAP_MS / 1000;
        let export = boot.add_secs(wrap_secs + 10);
        let t = Template::standard_v9(300);
        let mut r = sample(export, 1);
        r.start = Timestamp(export.unix() - 30); // before the wrap
        r.end = Timestamp(export.unix() - 5); // after the wrap
        let pkt = encode(&[r], Some(&t), &t, export, boot, 0, 1);
        let hdr = check(&pkt).unwrap();
        assert!(
            u64::from(hdr.sys_uptime_ms) < 20_000,
            "uptime field must have wrapped, got {}",
            hdr.sys_uptime_ms
        );
        let mut cache = TemplateCache::new();
        let (_, out) = decode(&pkt, &mut cache).unwrap();
        assert_eq!(out[0].start, r.start);
        assert_eq!(out[0].end, r.end);
    }

    #[test]
    fn template_refresh_overwrites() {
        let mut cache = TemplateCache::new();
        cache.insert(Template::standard_v9(300));
        let shorter = Template::new(
            300,
            vec![FieldSpec {
                field_type: field::IN_BYTES,
                length: 4,
            }],
        )
        .unwrap();
        cache.insert(shorter.clone());
        assert_eq!(cache.templates.get(&300), Some(&shorter));
    }
}
