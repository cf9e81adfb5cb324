//! Property-based tests for the wire codecs: arbitrary flow records must
//! survive an encode/decode round trip in every format, and the decoders
//! must never panic on arbitrary bytes.

use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::ipfix;
use lockdown_flow::netflow::v9::TemplateCache;
use lockdown_flow::netflow::{v5, v9, Template};
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
