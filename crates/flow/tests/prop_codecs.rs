//! Property-based tests for the wire codecs: arbitrary flow records must
//! survive an encode/decode round trip in every format, and the decoders
//! must never panic on arbitrary bytes.

use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::ipfix;
use lockdown_flow::netflow::v9::TemplateCache;
use lockdown_flow::netflow::{field, v5, v9, FieldSpec, Template};
use lockdown_flow::prelude::*;
use lockdown_flow::tracefile::{TraceReader, TraceWriter};
use std::net::Ipv4Addr;

const EXPORT_UNIX: u64 = 1_585_000_000; // 2020-03-23, within the study window

/// Up to `max` plausible flow records, scaled by the case `size`.
/// Start/end stay within a window preceding [`EXPORT_UNIX`] so v5/v9
/// uptime-relative encoding is exact; byte, packet and AS ranges are
/// v5-safe (32-, 32- and 16-bit fields).
fn records(rng: &mut SplitMix, size: usize, max: u64) -> Vec<FlowRecord> {
    let n = rng.below(1 + max * size as u64 / 100);
    (0..n)
        .map(|_| {
            let (back, dur) = (rng.below(3_000), rng.below(600));
            let start = Timestamp::from_unix(EXPORT_UNIX - back - dur);
            // Four draws in five name TCP, UDP, GRE or ESP.
            let any = rng.next_u64() as u8;
            let proto = rng.pick(&[6, 17, 47, 50, any]);
            FlowRecord::builder(
                FlowKey {
                    src_addr: Ipv4Addr::from(rng.next_u64() as u32),
                    dst_addr: Ipv4Addr::from(rng.next_u64() as u32),
                    src_port: rng.next_u64() as u16,
                    dst_port: rng.next_u64() as u16,
                    protocol: IpProtocol::from_number(proto),
                },
                start,
            )
            .end(start.add_secs(dur))
            .bytes(rng.range(1..4_000_000_000))
            .packets(rng.range(1..3_000_000))
            .tcp_flags(TcpFlags(rng.next_u64() as u8))
            .interfaces(rng.next_u64() as u16, rng.next_u64() as u16)
            .asns(rng.below(65_000) as u32, rng.below(65_000) as u32)
            .direction(Direction::Egress)
            .build()
        })
        .collect()
}

/// `lo..=lo + span` arbitrary bytes, the span scaled by the case `size`.
fn junk(rng: &mut SplitMix, size: usize, lo: u64, span: u64) -> Vec<u8> {
    let n = lo + rng.below(1 + span * size as u64 / 100);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn v5_roundtrip() {
    cases(256, |rng, size| {
        let records = records(rng, size, 30);
        let export = Timestamp::from_unix(EXPORT_UNIX);
        let boot = Timestamp::from_unix(EXPORT_UNIX - 86_400);
        let pkt = v5::encode(&records, export, boot, 7);
        let (hdr, out) = v5::decode(&pkt).unwrap();
        assert_eq!(hdr.count as usize, records.len());
        assert_eq!(out.len(), records.len());
        for (a, b) in records.iter().zip(&out) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.packets, b.packets);
            assert_eq!(a.tcp_flags, b.tcp_flags);
            assert_eq!((a.src_as, a.dst_as), (b.src_as, b.dst_as));
        }
    });
}

#[test]
fn v9_roundtrip() {
    cases(256, |rng, size| {
        let records = records(rng, size, 79);
        let export = Timestamp::from_unix(EXPORT_UNIX);
        let boot = Timestamp::from_unix(EXPORT_UNIX - 86_400);
        let t = Template::standard_v9(300);
        let pkt = v9::encode(&records, Some(&t), &t, export, boot, 1, 2);
        let mut cache = TemplateCache::new();
        let (_, out) = v9::decode(&pkt, &mut cache).unwrap();
        // v9 standard template has no Direction::Unknown encoding ambiguity
        // for Egress, so full equality holds.
        assert_eq!(out, records);
    });
}

#[test]
fn ipfix_roundtrip() {
    cases(256, |rng, size| {
        let records = records(rng, size, 79);
        let export = Timestamp::from_unix(EXPORT_UNIX);
        let t = Template::standard_ipfix(256);
        let msg = ipfix::encode(&records, Some(&t), &t, export, 1, 2);
        let mut cache = TemplateCache::new();
        let (hdr, out) = ipfix::decode(&msg, &mut cache).unwrap();
        assert_eq!(hdr.length as usize, msg.len());
        assert_eq!(out, records);
    });
}

/// Encode `records` under `t` in both templated formats, check each
/// message decodes back to `records`, and return the two messages.
fn both_formats(records: &[FlowRecord], t: &Template) -> [Vec<u8>; 2] {
    let export = Timestamp::from_unix(EXPORT_UNIX);
    let boot = Timestamp::from_unix(EXPORT_UNIX - 86_400);
    let v9_pkt = v9::encode(records, Some(t), t, export, boot, 1, 2);
    let (_, out) = v9::decode(&v9_pkt, &mut TemplateCache::new()).unwrap();
    assert_eq!(out, records, "v9, template {:?}", t.fields);
    let ipfix_msg = ipfix::encode(records, Some(t), t, export, 1, 2);
    let (_, out) = ipfix::decode(&ipfix_msg, &mut TemplateCache::new()).unwrap();
    assert_eq!(out, records, "ipfix, template {:?}", t.fields);
    [v9_pkt, ipfix_msg]
}

/// The standard templates' fixed layout against the per-field walk, from
/// outside: a standard field list plus one trailing pad octet (element 210,
/// unknown here, so written as zero and ignored) is no longer standard and
/// takes the walk. Record for record the walk must write the fixed
/// layout's 51 bytes and then its zero, and read back the same records.
#[test]
fn fixed_layout_matches_the_walk_behind_a_pad_octet() {
    cases(256, |rng, _| {
        let records = records(rng, 100, 64);
        for standard in [Template::standard_v9(256), Template::standard_ipfix(256)] {
            let mut fields = standard.fields.clone();
            fields.push(FieldSpec {
                field_type: 210,
                length: 1,
            });
            let padded = Template::new(256, fields).unwrap();
            let fixed = both_formats(&records, &standard);
            let walk = both_formats(&records, &padded);
            for (fixed, walk) in fixed.iter().zip(&walk) {
                // From the end: the data set, and before it the template
                // set, one field spec longer for the walk.
                let data = fixed.len() - (records.len() * 51).next_multiple_of(4);
                let fixed = fixed[data..].chunks_exact(51);
                let walk = walk[data + 4..].chunks_exact(52);
                assert_eq!(walk.len(), records.len());
                assert_eq!(fixed.len(), records.len());
                for (fixed, walk) in fixed.zip(walk) {
                    assert_eq!((fixed, 0), (&walk[..51], walk[51]));
                }
            }
        }
    });
}

/// A permuted field list and a reduced-size one (4-byte `IN_BYTES`) are
/// not the standard templates: they take the walk, and round-trip. The
/// permuted v9 list carries uptime-relative timestamps into IPFIX too.
#[test]
fn permuted_and_reduced_size_templates_round_trip() {
    cases(256, |rng, size| {
        let records = records(rng, size, 64);
        for standard in [Template::standard_v9(300), Template::standard_ipfix(300)] {
            let mut permuted = standard.fields.clone();
            rng.shuffle(&mut permuted);
            if permuted == standard.fields {
                permuted.swap(0, 14);
            }
            both_formats(&records, &Template::new(300, permuted).unwrap());

            let mut reduced = standard.fields.clone();
            for f in &mut reduced {
                if f.field_type == field::IN_BYTES {
                    f.length = 4; // `records` keeps byte counts below 2^32
                }
            }
            let reduced = Template::new(300, reduced).unwrap();
            assert_eq!(reduced.record_len(), 47);
            both_formats(&records, &reduced);
        }
    });
}

/// Cut a standard-template message anywhere, or inflate its data set's
/// length by the one byte appended after it: the decoder answers with an
/// error or with a prefix of the records — never a panic, never a record
/// that was not sent.
#[test]
fn mangled_standard_data_sets_decode_to_an_error_or_a_prefix() {
    cases(64, |rng, _| {
        let records = records(rng, 100, 8);
        if records.is_empty() {
            return; // no data set to mangle
        }
        let [v9_pkt, ipfix_msg] = both_formats(&records, &Template::standard_ipfix(256));
        let data_set = |msg: &[u8]| msg.len() - (4 + records.len() * 51).next_multiple_of(4);
        let is_prefix = |out: Vec<FlowRecord>| assert_eq!(out, records[..out.len()]);
        for cut in 0..ipfix_msg.len() {
            // IPFIX states its own length: a cut message says so itself.
            let mut msg = ipfix_msg[..cut].to_vec();
            if cut >= 4 {
                msg[2..4].copy_from_slice(&(cut as u16).to_be_bytes());
            }
            if let Ok((_, out)) = ipfix::decode(&msg, &mut TemplateCache::new()) {
                is_prefix(out);
            }
            // And with the data set's length cut to match, whole records
            // survive.
            let at = data_set(&ipfix_msg);
            if cut >= at + 4 {
                msg[at + 2..at + 4].copy_from_slice(&((cut - at) as u16).to_be_bytes());
                let (_, out) = ipfix::decode(&msg, &mut TemplateCache::new()).unwrap();
                assert_eq!(out, records[..(cut - at - 4) / 51]);
            }
        }
        for cut in 0..v9_pkt.len() {
            if let Ok((_, out)) = v9::decode(&v9_pkt[..cut], &mut TemplateCache::new()) {
                is_prefix(out);
            }
        }
        for (msg, stated_len) in [(&v9_pkt, false), (&ipfix_msg, true)] {
            let mut msg = msg.to_vec();
            let at = data_set(&msg);
            let set_len = u16::from_be_bytes([msg[at + 2], msg[at + 3]]) + 1;
            msg[at + 2..at + 4].copy_from_slice(&set_len.to_be_bytes());
            // Without the byte the inflated set runs past the message.
            let mut cache = TemplateCache::new();
            if stated_len {
                assert!(ipfix::decode(&msg, &mut cache).is_err());
                let len = (msg.len() + 1) as u16;
                msg[2..4].copy_from_slice(&len.to_be_bytes());
                msg.push(rng.next_u64() as u8);
                let (_, out) = ipfix::decode(&msg, &mut cache).unwrap();
                assert_eq!(out, records);
            } else {
                assert!(v9::decode(&msg, &mut cache).is_err());
                msg.push(rng.next_u64() as u8);
                let (_, out) = v9::decode(&msg, &mut cache).unwrap();
                assert_eq!(out, records);
            }
        }
    });
}

/// Drift: the fixed layout's offsets are the running sum of the standard
/// templates' field lengths. One field at a time is made non-zero in its
/// first and last byte; the encoded record must be non-zero at exactly
/// the running-sum offsets of that field, and zero everywhere else.
#[test]
fn fixed_offsets_are_the_running_sum_of_the_standard_field_lengths() {
    use field::*;
    let boot = Timestamp::from_unix(EXPORT_UNIX - 86_400);
    let export = Timestamp::from_unix(EXPORT_UNIX);
    // 67_109 s of uptime = 0x0400_0088 ms: first and last byte set.
    let up = boot.add_secs(67_109);
    type Set = fn(&mut FlowRecord, Timestamp);
    let ends: [(u16, Set); 17] = [
        (IPV4_SRC_ADDR, |r, _| {
            r.key.src_addr = Ipv4Addr::new(1, 0, 0, 1)
        }),
        (IPV4_DST_ADDR, |r, _| {
            r.key.dst_addr = Ipv4Addr::new(1, 0, 0, 1)
        }),
        (L4_SRC_PORT, |r, _| r.key.src_port = 0x0101),
        (L4_DST_PORT, |r, _| r.key.dst_port = 0x0101),
        (PROTOCOL, |r, _| r.key.protocol = IpProtocol::Tcp),
        (TCP_FLAGS, |r, _| r.tcp_flags = TcpFlags(1)),
        (INPUT_SNMP, |r, _| r.input_if = 0x0101),
        (OUTPUT_SNMP, |r, _| r.output_if = 0x0101),
        (IN_BYTES, |r, _| r.bytes = 0x0100_0000_0000_0001),
        (IN_PKTS, |r, _| r.packets = 0x0100_0000_0000_0001),
        (FIRST_SWITCHED, |r, up| r.start = up),
        (LAST_SWITCHED, |r, up| r.end = up),
        (FLOW_START_SECONDS, |r, _| {
            r.start = Timestamp::from_unix(0x0100_0001)
        }),
        (FLOW_END_SECONDS, |r, _| {
            r.end = Timestamp::from_unix(0x0100_0001)
        }),
        (SRC_AS, |r, _| r.src_as = 0x0100_0001),
        (DST_AS, |r, _| r.dst_as = 0x0100_0001),
        (DIRECTION, |r, _| r.direction = Direction::Egress),
    ];
    for (standard, zero_time) in [
        (Template::standard_v9(256), boot),
        (Template::standard_ipfix(256), Timestamp::from_unix(0)),
    ] {
        let key = FlowKey {
            src_addr: Ipv4Addr::UNSPECIFIED,
            dst_addr: Ipv4Addr::UNSPECIFIED,
            src_port: 0,
            dst_port: 0,
            protocol: IpProtocol::from_number(0),
        };
        let zero = FlowRecord::builder(key, zero_time)
            .direction(Direction::Ingress)
            .build();
        let mut offset = 0;
        for spec in &standard.fields {
            let (_, set) = ends.iter().find(|(t, _)| *t == spec.field_type).unwrap();
            let mut r = zero;
            set(&mut r, up);
            let msg = if standard.fields[10].field_type == FIRST_SWITCHED {
                v9::encode(&[r], None, &standard, export, boot, 0, 0)
            } else {
                ipfix::encode(&[r], None, &standard, export, 0, 0)
            };
            let record = &msg[msg.len() - 52..msg.len() - 1]; // one pad byte
            let (first, last) = (offset, offset + spec.length as usize - 1);
            for (at, &byte) in record.iter().enumerate() {
                let end = at == first || at == last;
                assert_eq!(byte != 0, end, "element {} byte {at}", spec.field_type);
            }
            offset = last + 1;
        }
        assert_eq!(offset, 51);
    }
}

/// Fuzz: the decoders must return an error, never panic, on junk.
#[test]
fn decoders_never_panic() {
    cases(256, |rng, size| {
        let bytes = junk(rng, size, 0, 511);
        let _ = v5::decode(&bytes);
        let mut cache = TemplateCache::new();
        let _ = v9::decode(&bytes, &mut cache);
        let mut cache = TemplateCache::new();
        let _ = ipfix::decode(&bytes, &mut cache);
    });
}

/// Fuzz with a valid-looking v5 header prefix to reach deeper paths.
#[test]
fn v5_header_fuzz() {
    cases(256, |rng, size| {
        let mut bytes = junk(rng, size, 24, 1_475);
        bytes[0] = 0;
        bytes[1] = 5;
        let _ = v5::decode(&bytes);
    });
}

/// Fuzz with valid IPFIX version+length to exercise set walking.
#[test]
fn ipfix_set_fuzz() {
    cases(256, |rng, size| {
        let mut bytes = junk(rng, size, 16, 1_483);
        bytes[0] = 0;
        bytes[1] = 10;
        let len = (bytes.len() as u16).to_be_bytes();
        bytes[2] = len[0];
        bytes[3] = len[1];
        let mut cache = TemplateCache::new();
        let _ = ipfix::decode(&bytes, &mut cache);
    });
}

/// Anonymization is prefix-preserving for arbitrary address pairs.
#[test]
fn anonymizer_prefix_preserving() {
    cases(256, |rng, _| {
        let anon = Anonymizer::new(rng.next_u64());
        let a = rng.next_u64() as u32;
        // `b` differs from `a` below a random bit: every shared length occurs.
        let b = a ^ (rng.next_u64() as u32 >> rng.below(32));
        let (a, b) = (Ipv4Addr::from(a), Ipv4Addr::from(b));
        let shared = Anonymizer::common_prefix_len(a, b);
        let out = Anonymizer::common_prefix_len(anon.anonymize(a), anon.anonymize(b));
        assert_eq!(shared, out);
    });
}

/// Exporter/collector composition loses no records for any batch size.
#[test]
fn export_collect_identity() {
    cases(256, |rng, size| {
        let records = records(rng, size, 199);
        let boot = Timestamp::from_unix(EXPORT_UNIX - 86_400);
        let mut cfg = ExporterConfig::new(ExportFormat::Ipfix, boot);
        cfg.batch_size = rng.range(1..64) as usize;
        cfg.template_refresh = rng.range(1..8) as u32;
        let mut exporter = Exporter::new(cfg);
        let pkts = exporter.export_all(&records, Timestamp::from_unix(EXPORT_UNIX));
        let mut collector = Collector::new();
        let n = collector.ingest_all(pkts.iter().map(|p| p.as_slice()));
        assert_eq!(n, records.len());
        assert_eq!(collector.records(), &records[..]);
    });
}

/// Arbitrary datagram sequences round-trip through the container.
#[test]
fn tracefile_roundtrip() {
    cases(256, |rng, size| {
        let n = rng.below(1 + 29 * size as u64 / 100);
        let payloads: Vec<_> = (0..n).map(|_| junk(rng, 100, 0, 1_999)).collect();
        let t0 = rng.range(1_500_000_000..1_700_000_000);
        let mut w = TraceWriter::new();
        for (i, p) in payloads.iter().enumerate() {
            w.push(Timestamp::from_unix(t0 + i as u64), p).unwrap();
        }
        let bytes = w.finish();
        let reader = TraceReader::open(&bytes).unwrap();
        let back: Vec<Vec<u8>> = reader.map(|r| r.unwrap().payload.to_vec()).collect();
        assert_eq!(back, payloads);
    });
}

/// The reader never panics on arbitrary bytes.
#[test]
fn tracefile_reader_never_panics() {
    cases(256, |rng, size| {
        let bytes = junk(rng, size, 0, 4_095);
        if let Ok(reader) = TraceReader::open(&bytes) {
            for record in reader {
                if record.is_err() {
                    break;
                }
            }
        }
    });
}

/// Truncating a valid trace anywhere yields an error or a clean
/// prefix — never junk records beyond the cut.
#[test]
fn tracefile_truncation_is_safe() {
    cases(256, |rng, size| {
        let n = 1 + rng.below(1 + 8 * size as u64 / 100);
        let payloads: Vec<_> = (0..n).map(|_| junk(rng, 100, 1, 98)).collect();
        let mut w = TraceWriter::new();
        for (i, p) in payloads.iter().enumerate() {
            w.push(Timestamp::from_unix(1_600_000_000 + i as u64), p)
                .unwrap();
        }
        let bytes = w.finish();
        let cut = rng.below(bytes.len() as u64) as usize;
        if let Ok(reader) = TraceReader::open(&bytes[..cut]) {
            let mut recovered = 0usize;
            for record in reader {
                match record {
                    Ok(r) => {
                        // Every recovered payload is a true prefix record.
                        assert_eq!(r.payload, payloads[recovered].as_slice());
                        recovered += 1;
                    }
                    Err(_) => break,
                }
            }
            assert!(recovered <= payloads.len());
        }
    });
}
