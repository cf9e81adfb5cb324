//! End-to-end integration: synthetic generation → wire export → collection
//! → analysis, across crates. The wire pipeline must be transparent: every
//! analysis result computed from collected records must equal the result
//! computed from the generator's records directly.

use lockdown::analysis::prelude::*;
use lockdown::core::{Context, Fidelity};
use lockdown::flow::prelude::*;
use lockdown::topology::vantage::VantagePoint;
use lockdown_flow::time::Date;

fn ctx() -> Context {
    Context::new(Fidelity::Test)
}

#[test]
fn wire_pipeline_is_transparent_for_analysis() {
    let ctx = ctx();
    let generator = ctx.generator();
    let date = Date::new(2020, 3, 25);
    let flows = generator.generate_day(VantagePoint::IspCe, date);

    // Ship through IPFIX.
    let boot = date.midnight();
    let mut exporter = Exporter::new(ExporterConfig::new(ExportFormat::Ipfix, boot));
    let datagrams = exporter.export_all(&flows, date.at_hour(23).add_secs(3_599));
    let mut collector = Collector::new();
    collector.ingest_all(datagrams.iter().map(|d| d.as_slice()));
    assert_eq!(collector.stats().records as usize, flows.len());

    // Identical hourly volumes either way.
    let mut direct = HourlyVolume::new();
    direct.observe_all(&flows);
    let mut collected = HourlyVolume::new();
    collected.observe_all(collector.records());
    for hour in 0..24 {
        assert_eq!(
            direct.get(date, hour),
            collected.get(date, hour),
            "hour {hour} volume must survive the wire"
        );
    }

    // Identical port profile.
    let region = VantagePoint::IspCe.region();
    let mut p_direct = PortConsumer::new(region);
    p_direct.observe_all(&flows);
    let p_direct = p_direct.profile;
    let mut p_wire = PortConsumer::new(region);
    p_wire.observe_all(collector.records());
    let p_wire = p_wire.profile;
    for key in p_direct.top_services(10, &[]) {
        assert_eq!(p_direct.total(key), p_wire.total(key), "{key}");
    }
}

#[test]
fn netflow_v5_saturates_counters_and_keeps_the_rest() {
    // v5 counters are 32-bit: oversized byte/packet counts saturate at
    // u32::MAX (never wrap); keys, timestamps and 16-bit-safe ASNs
    // survive exactly.
    let ctx = ctx();
    let generator = ctx.generator();
    let date = Date::new(2020, 2, 20);
    let flows = generator.generate_hour(VantagePoint::Edu, date, 12);
    assert!(!flows.is_empty());

    let boot = date.midnight();
    let mut exporter = Exporter::new(ExporterConfig::new(ExportFormat::NetflowV5, boot));
    let datagrams = exporter.export_all(&flows, date.at_hour(13));
    let mut collector = Collector::new();
    collector.ingest_all(datagrams.iter().map(|d| d.as_slice()));
    assert_eq!(collector.records().len(), flows.len());
    for (a, b) in flows.iter().zip(collector.records()) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.bytes.min(u32::MAX as u64), b.bytes, "saturating bytes");
        assert_eq!(a.packets.min(u32::MAX as u64), b.packets);
        assert_eq!(a.start, b.start);
        assert_eq!((a.src_as, a.dst_as), (b.src_as, b.dst_as));
    }
}

#[test]
fn all_generated_addresses_attributable() {
    // Every flow endpoint the generator emits (EDU chaff aside) must
    // LPM-resolve to the AS stamped on the record — the invariant the
    // whole AS-level analysis rests on.
    let ctx = ctx();
    let generator = ctx.generator();
    for vp in [
        VantagePoint::IspCe,
        VantagePoint::IxpSe,
        VantagePoint::MobileCe,
    ] {
        for f in generator.generate_hour(vp, Date::new(2020, 4, 1), 20) {
            assert_eq!(
                ctx.registry.lookup(f.key.src_addr).map(|a| a.0),
                Some(f.src_as),
                "{vp}: src mismatch"
            );
            assert_eq!(
                ctx.registry.lookup(f.key.dst_addr).map(|a| a.0),
                Some(f.dst_as),
                "{vp}: dst mismatch"
            );
        }
    }
}

#[test]
fn anonymization_preserves_as_aggregation() {
    // §2.1: addresses are hashed. Prefix-preserving anonymization must
    // keep per-/16 flow grouping intact (the /16 is the registry's
    // allocation unit).
    let ctx = ctx();
    let generator = ctx.generator();
    let anon = Anonymizer::new(42);
    let flows = generator.generate_hour(VantagePoint::IxpCe, Date::new(2020, 3, 25), 11);
    use std::collections::HashMap;
    let mut plain: HashMap<u32, u64> = HashMap::new();
    let mut anonymized: HashMap<std::net::Ipv4Addr, u64> = HashMap::new();
    for f in &flows {
        *plain.entry(u32::from(f.key.src_addr) >> 16).or_insert(0) += f.bytes;
        let e = anon.anonymize(f.key.src_addr);
        *anonymized
            .entry(std::net::Ipv4Addr::from(u32::from(e) & 0xFFFF_0000))
            .or_insert(0) += f.bytes;
    }
    // Same multiset of per-/16 byte totals.
    let mut a: Vec<u64> = plain.values().copied().collect();
    let mut b: Vec<u64> = anonymized.values().copied().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}
