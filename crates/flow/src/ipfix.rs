//! IPFIX (RFC 7011) — the IETF flow export protocol used by the IXP
//! vantage points in the paper ("At the IXPs we use IPFIX data", §2).
//!
//! Structurally IPFIX is NetFlow v9's successor: a 16-byte message header
//! (which, unlike v9, carries the *total message length* and an absolute
//! export time but no uptime) followed by Sets. Set id 2 carries templates,
//! id 3 options templates, ids ≥ 256 data records. The template machinery
//! and record field semantics are shared with the v9 module; the standard
//! IPFIX template uses absolute `flowStartSeconds`/`flowEndSeconds`
//! timestamps, so no uptime conversion is involved.

use crate::netflow::options::{validate, OptionsTemplate, SamplingInfo};
use crate::netflow::v9::{self, SkippedSets, TemplateCache, TimeAnchor};
use crate::netflow::{FieldSpec, Template};
use crate::record::FlowRecord;
use crate::time::{uptime, Timestamp};
use crate::wire::{padded, Cursor, PutBe, WireError, WireResult};

/// Protocol version constant.
pub(crate) const VERSION: u16 = 10;
/// Message header size.
pub const HEADER_LEN: usize = 16;
/// Set id carrying templates.
pub(crate) const TEMPLATE_SET_ID: u16 = 2;
/// Set id carrying options templates (skipped on decode).
pub(crate) const OPTIONS_TEMPLATE_SET_ID: u16 = 3;

/// Decoded IPFIX message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpfixHeader {
    /// Total message length in bytes, including this header.
    pub length: u16,
    /// Export time, Unix seconds.
    pub export_time: u32,
    /// Running count of exported data records.
    pub sequence: u32,
    /// Observation domain id.
    pub domain_id: u32,
}

/// Encode one IPFIX message: an optional template set plus a data set.
pub fn encode(
    records: &[FlowRecord],
    template: Option<&Template>,
    data_template: &Template,
    export_time: Timestamp,
    sequence: u32,
    domain_id: u32,
) -> Vec<u8> {
    encode_full(
        records,
        template,
        None,
        data_template,
        export_time,
        sequence,
        domain_id,
    )
}

/// [`encode`] plus an optional in-band sampling announcement (options
/// template set + one options record, RFC 7011 §3.4.2.2).
pub(crate) fn encode_full(
    records: &[FlowRecord],
    template: Option<&Template>,
    sampling: Option<(&OptionsTemplate, SamplingInfo)>,
    data_template: &Template,
    export_time: Timestamp,
    sequence: u32,
    domain_id: u32,
) -> Vec<u8> {
    let total = message_len(
        records.len(),
        template,
        sampling.map(|(ot, _)| ot),
        data_template,
    );
    let mut buf = Vec::with_capacity(total);
    buf.put_u16_be(VERSION);
    buf.put_u16_be(u16::try_from(total).expect("an IPFIX message's length is a 16-bit field"));
    buf.put_u32_be(export_time.unix() as u32);
    buf.put_u32_be(sequence);
    buf.put_u32_be(domain_id);

    if let Some(t) = template {
        let set_len = 4 + 4 + t.fields.len() * 4;
        buf.put_u16_be(TEMPLATE_SET_ID);
        buf.put_u16_be(set_len as u16);
        buf.put_u16_be(t.id);
        buf.put_u16_be(t.fields.len() as u16);
        for f in &t.fields {
            buf.put_u16_be(f.field_type);
            buf.put_u16_be(f.length);
        }
    }

    if let Some((ot, info)) = sampling {
        // Options template set: field count includes scope fields; scope
        // fields come first (IPFIX counts fields, unlike v9's byte sizes).
        let total_fields = ot.scope_fields.len() + ot.option_fields.len();
        let set_len = 4 + 6 + total_fields * 4;
        buf.put_u16_be(OPTIONS_TEMPLATE_SET_ID);
        buf.put_u16_be(set_len as u16);
        buf.put_u16_be(ot.id);
        buf.put_u16_be(total_fields as u16);
        buf.put_u16_be(ot.scope_fields.len() as u16);
        for f in ot.scope_fields.iter().chain(&ot.option_fields) {
            buf.put_u16_be(f.field_type);
            buf.put_u16_be(f.length);
        }
        // One options data record in a set keyed by the options template.
        use crate::netflow::options::{SAMPLING_ALGORITHM, SAMPLING_INTERVAL, SCOPE_SYSTEM};
        let raw = 4 + ot.record_len();
        let padding = (4 - raw % 4) % 4;
        buf.put_u16_be(ot.id);
        buf.put_u16_be((raw + padding) as u16);
        for f in ot.scope_fields.iter().chain(&ot.option_fields) {
            let value: u64 = match f.field_type {
                SCOPE_SYSTEM => u64::from(domain_id),
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

    // IPFIX has no uptime clock. An uptime-relative element a (non-standard)
    // template might carry is written against a notional boot a whole
    // number of clock wraps before the export, so that the clock reads zero
    // at the export instant: the anchor `decode_tolerant` resolves against.
    let export_ms = export_time.unix() * 1000;
    let boot_ms = export_ms % uptime::WRAP_MS;
    v9::encode_data_set(&mut buf, records, data_template, boot_ms, export_ms);
    assert_eq!(buf.len(), total, "IPFIX message length computed up front");
    buf
}

/// Exact length of the message [`encode_full`] builds from these parts.
pub(crate) fn message_len(
    records: usize,
    template: Option<&Template>,
    sampling: Option<&OptionsTemplate>,
    data_template: &Template,
) -> usize {
    HEADER_LEN
        + template.map_or(0, |t| 8 + t.fields.len() * 4)
        + sampling.map_or(0, |ot| {
            let specs = (ot.scope_fields.len() + ot.option_fields.len()) * 4;
            10 + specs + padded(4 + ot.record_len())
        })
        + v9::data_set_len(records, data_template)
}

/// Structural validation of an IPFIX message header.
pub fn check(buf: &[u8]) -> WireResult<IpfixHeader> {
    let mut c = Cursor::new(buf);
    let version = c.read_u16("ipfix version")?;
    if version != VERSION {
        return Err(WireError::BadVersion {
            expected: VERSION,
            found: version,
        });
    }
    let length = c.read_u16("ipfix length")?;
    if (length as usize) < HEADER_LEN {
        return Err(WireError::BadLength {
            what: "ipfix message length",
            value: length as usize,
        });
    }
    if (length as usize) > buf.len() {
        return Err(WireError::Truncated {
            what: "ipfix message",
            needed: length as usize - buf.len(),
        });
    }
    let export_time = c.read_u32("ipfix export time")?;
    let sequence = c.read_u32("ipfix sequence")?;
    let domain_id = c.read_u32("ipfix domain")?;
    Ok(IpfixHeader {
        length,
        export_time,
        sequence,
        domain_id,
    })
}

/// Decode one IPFIX message, updating `cache` with any templates and
/// decoding data sets whose template is known.
///
/// Data sets referencing unknown templates fail the whole message with
/// [`WireError::UnknownTemplate`]; use `decode_tolerant` to keep the
/// records from the message's other sets.
pub fn decode(buf: &[u8], cache: &mut TemplateCache) -> WireResult<(IpfixHeader, Vec<FlowRecord>)> {
    let (header, records, skipped) = decode_tolerant(buf, cache)?;
    if let Some(id) = skipped.first_id {
        return Err(WireError::UnknownTemplate { id });
    }
    Ok((header, records))
}

/// Decode one IPFIX message, skipping (rather than failing on) data sets
/// whose template is unknown.
///
/// Templates learned from earlier sets in the same message apply to later
/// ones, so an unknown template only costs the sets that reference it.
/// Structural errors (truncation, bad lengths, reserved ids) still fail the
/// whole message.
pub(crate) fn decode_tolerant(
    buf: &[u8],
    cache: &mut TemplateCache,
) -> WireResult<(IpfixHeader, Vec<FlowRecord>, SkippedSets)> {
    let mut records = Vec::new();
    let (header, skipped) = decode_tolerant_into(buf, cache, &mut records)?;
    Ok((header, records, skipped))
}

/// [`decode_tolerant`] appending to the caller's `out`, which is left as
/// it was found when the message is rejected.
pub(crate) fn decode_tolerant_into(
    buf: &[u8],
    cache: &mut TemplateCache,
    out: &mut Vec<FlowRecord>,
) -> WireResult<(IpfixHeader, SkippedSets)> {
    let header = check(buf)?;
    // IPFIX has no uptime clock; the anchor carries the absolute export
    // time with a zero uptime base, so any (non-standard) uptime-relative
    // field a template might carry still resolves against the export time.
    let anchor = TimeAnchor {
        export_unix_ms: u64::from(header.export_time) * 1000,
        uptime_ms: 0,
    };
    let mark = out.len();
    let mut sets = || {
        let mut c = Cursor::new(&buf[HEADER_LEN..header.length as usize]);
        let mut skipped = SkippedSets::default();
        while c.remaining() >= 4 {
            let set_id = c.read_u16("set id")?;
            let set_len = c.read_u16("set length")? as usize;
            if set_len < 4 {
                return Err(WireError::BadLength {
                    what: "set length",
                    value: set_len,
                });
            }
            let mut body = c.sub(set_len - 4, "set body")?;
            match set_id {
                TEMPLATE_SET_ID => v9::decode_template_flowset(&mut body, cache)?,
                OPTIONS_TEMPLATE_SET_ID => decode_options_template_set(&mut body, cache)?,
                id if id >= 256 => {
                    v9::decode_data_set(id, &mut body, cache, anchor, out, &mut skipped)?
                }
                _ => {
                    return Err(WireError::BadField {
                        what: "reserved set id",
                    })
                }
            }
        }
        Ok(skipped)
    };
    let skipped = sets().inspect_err(|_| out.truncate(mark))?;
    Ok((header, skipped))
}

/// IPFIX options template set: scope fields are *counted*, and come first.
fn decode_options_template_set(body: &mut Cursor<'_>, cache: &mut TemplateCache) -> WireResult<()> {
    while body.remaining() >= 6 {
        let id = body.read_u16("options template id")?;
        let total_fields = body.read_u16("options field count")? as usize;
        let scope_count = body.read_u16("scope field count")? as usize;
        if scope_count > total_fields {
            return Err(WireError::BadLength {
                what: "options scope field count",
                value: scope_count,
            });
        }
        let mut specs = Vec::with_capacity(total_fields);
        for _ in 0..total_fields {
            let field_type = body.read_u16("options field type")?;
            let length = body.read_u16("options field length")?;
            specs.push(FieldSpec { field_type, length });
        }
        let option_fields = specs.split_off(scope_count);
        let t = OptionsTemplate {
            id,
            scope_fields: specs,
            option_fields,
        };
        validate(&t)?;
        cache.insert_options(t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::IpProtocol;
    use crate::record::{Direction, FlowKey};
    use crate::time::Date;
    use std::net::Ipv4Addr;

    fn sample(start: Timestamp) -> FlowRecord {
        FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(185, 1, 2, 3),
                dst_addr: Ipv4Addr::new(185, 4, 5, 6),
                src_port: 443,
                dst_port: 50_000,
                protocol: IpProtocol::Tcp,
            },
            start,
        )
        .end(start.add_secs(120))
        .bytes(5_000_000_000) // > u32: exercises 8-byte counters
        .packets(3_600_000)
        .asns(15_169, 3_320)
        .direction(Direction::Ingress)
        .build()
    }

    #[test]
    fn roundtrip() {
        let export = Date::new(2020, 4, 23).at_hour(12);
        let t = Template::standard_ipfix(500);
        let recs: Vec<_> = (0..3)
            .map(|i| {
                let mut r = sample(export.add_secs(i));
                r.end = r.start.add_secs(60);
                r
            })
            .collect();
        let msg = encode(&recs, Some(&t), &t, export, 42, 99);
        let mut cache = TemplateCache::new();
        let (hdr, out) = decode(&msg, &mut cache).unwrap();
        assert_eq!(hdr.domain_id, 99);
        assert_eq!(hdr.sequence, 42);
        assert_eq!(hdr.length as usize, msg.len());
        assert_eq!(out, recs);
        // 64-bit byte counter survived.
        assert_eq!(out[0].bytes, 5_000_000_000);
    }

    /// Uptime-relative elements are not IPFIX's own, but a template may
    /// carry them: they used to be written as zeros and read back as the
    /// export instant.
    #[test]
    fn uptime_relative_elements_roundtrip() {
        let export = Date::new(2020, 4, 23).at_hour(12);
        let t = Template::standard_v9(500);
        // `sample` flows last 120 s: both ended by the export instant.
        let hour_ago = Timestamp::from_unix(export.unix() - 3_600);
        let recs = [sample(hour_ago), sample(hour_ago.add_secs(3_480))];
        let msg = encode(&recs, Some(&t), &t, export, 0, 0);
        let mut cache = TemplateCache::new();
        let (_, out) = decode(&msg, &mut cache).unwrap();
        assert_eq!(out, recs);
    }

    #[test]
    fn header_length_is_authoritative() {
        let export = Date::new(2020, 4, 23).at_hour(12);
        let t = Template::standard_ipfix(500);
        let msg = encode(&[sample(export)], Some(&t), &t, export, 0, 0);
        // Extra trailing junk beyond the declared length must be ignored.
        let mut extended = msg.clone();
        extended.extend_from_slice(&[0xFF; 16]);
        let mut cache = TemplateCache::new();
        let (_, out) = decode(&extended, &mut cache).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn truncated_message_rejected() {
        let export = Date::new(2020, 4, 23).at_hour(12);
        let t = Template::standard_ipfix(500);
        let msg = encode(&[sample(export)], Some(&t), &t, export, 0, 0);
        assert!(matches!(
            check(&msg[..msg.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_template_reported() {
        let export = Date::new(2020, 4, 23).at_hour(12);
        let t = Template::standard_ipfix(700);
        let msg = encode(&[sample(export)], None, &t, export, 0, 0);
        let mut cache = TemplateCache::new();
        assert!(matches!(
            decode(&msg, &mut cache),
            Err(WireError::UnknownTemplate { id: 700 })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let export = Date::new(2020, 4, 23).at_hour(12);
        let t = Template::standard_ipfix(500);
        let mut msg = encode(&[], Some(&t), &t, export, 0, 0);
        msg[1] = 9;
        assert!(matches!(check(&msg), Err(WireError::BadVersion { .. })));
    }

    #[test]
    fn empty_message() {
        let export = Date::new(2020, 4, 23).at_hour(0);
        let msg = encode(&[], None, &Template::standard_ipfix(500), export, 5, 6);
        assert_eq!(msg.len(), HEADER_LEN);
        let mut cache = TemplateCache::new();
        let (hdr, recs) = decode(&msg, &mut cache).unwrap();
        assert_eq!(hdr.sequence, 5);
        assert!(recs.is_empty());
    }
}
