//! Flow collector: the receiving side of the export pipeline.
//!
//! Accepts raw datagrams in any of the three formats (the version is
//! sniffed from the first two bytes, as real collectors do), maintains
//! per-observation-domain template state for the templated formats, and
//! accumulates normalized [`FlowRecord`]s plus collection statistics.
//!
//! A collector that starts mid-stream will see v9/IPFIX data sets before
//! the next template refresh arrives; each such data set is counted in
//! [`CollectorStats::missing_template`] and skipped, while records from the
//! datagram's other, decodable sets are still accepted — matching deployed
//! collector behaviour.

use crate::ipfix;
use crate::netflow::v5;
use crate::netflow::v9;
use crate::record::FlowRecord;
use crate::wire::{Cursor, WireError};
use std::collections::HashMap;

/// Counters describing what a collector has seen.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CollectorStats {
    /// Structurally valid datagrams accepted (possibly with some data sets
    /// skipped for lack of a template).
    pub packets_ok: u64,
    /// Flow records extracted.
    pub records: u64,
    /// Data sets skipped because they referenced an unseen template, counted
    /// once per skipped set; the datagram's other sets still decode.
    pub missing_template: u64,
    /// Datagrams dropped as malformed.
    pub malformed: u64,
    /// Records whose counters were actually adjusted by an announced
    /// sampling interval (saturated no-op scalings are not counted).
    pub renormalized: u64,
    /// Records whose counters clipped at `u64::MAX` while renormalizing:
    /// downstream byte/packet totals are a lower bound for these.
    pub renorm_clipped: u64,
}

/// Per-datagram outcome of `Collector::ingest_detailed`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Whether the datagram was structurally valid and counted as accepted.
    pub ok: bool,
    /// Records contributed by this datagram.
    pub records: usize,
    /// Data sets skipped because their template was unknown.
    pub missed_sets: u32,
    /// Header sequence number (all three formats carry one).
    pub sequence: Option<u32>,
    /// Observation domain / source id from the header (v9 and IPFIX only).
    pub domain: Option<u32>,
    /// Exporter boot epoch in Unix milliseconds, derived from the header's
    /// uptime base (v5 and v9 only); shifts indicate an exporter restart.
    pub boot_epoch_ms: Option<u64>,
}

/// Scale sampled counters by the exporter's announced interval, exactly in
/// u128 arithmetic clamped at `u64::MAX`. Returns `(adjusted, clipped)`:
/// how many records actually changed, and how many clipped at the clamp
/// (including already-saturated records whose scaling was a no-op) — the
/// clip count is what tells conservation audits the totals stopped being
/// exact, which a saturating multiply would hide.
fn renormalize(
    records: &mut [FlowRecord],
    sampling: Option<crate::netflow::options::SamplingInfo>,
) -> (u64, u64) {
    let Some(info) = sampling else { return (0, 0) };
    if info.interval <= 1 {
        return (0, 0);
    }
    let mut adjusted = 0;
    let mut clipped = 0;
    for r in records.iter_mut() {
        let before = (r.bytes, r.packets);
        clipped += u64::from(crate::sampling::scale_counters(r, info.interval));
        if (r.bytes, r.packets) != before {
            adjusted += 1;
        }
    }
    (adjusted, clipped)
}

/// A multi-format flow collector.
#[derive(Debug, Default)]
pub struct Collector {
    /// v9 template state per source id.
    v9_templates: HashMap<u32, v9::TemplateCache>,
    /// IPFIX template state per observation domain.
    ipfix_templates: HashMap<u32, v9::TemplateCache>,
    records: Vec<FlowRecord>,
    stats: CollectorStats,
}

impl Collector {
    /// An empty collector with no template state.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Ingest one datagram. Returns how many records it contributed.
    pub fn ingest(&mut self, datagram: &[u8]) -> usize {
        self.ingest_detailed(datagram).records
    }

    /// Ingest one datagram, reporting per-datagram detail (header sequence,
    /// observation domain, skipped sets) for sequence-tracking collectors.
    pub(crate) fn ingest_detailed(&mut self, datagram: &[u8]) -> IngestReport {
        let mut records = std::mem::take(&mut self.records);
        let report = self.ingest_into(datagram, &mut records);
        self.records = records;
        report
    }

    /// `Collector::ingest_detailed` for a caller that keeps the records
    /// itself: the datagram's records are decoded straight onto the end of
    /// `out` (the last `report.records` entries), and a rejected datagram
    /// leaves `out` as it was.
    pub fn ingest_into(&mut self, datagram: &[u8], out: &mut Vec<FlowRecord>) -> IngestReport {
        let mut report = IngestReport::default();
        let mark = out.len();
        let mut c = Cursor::new(datagram);
        let version = match c.read_u16("version sniff") {
            Ok(v) => v,
            Err(_) => {
                self.stats.malformed += 1;
                return report;
            }
        };
        let boot_epoch_ms = |unix_secs: u32, sys_uptime_ms: u32| {
            Some((u64::from(unix_secs) * 1000).saturating_sub(u64::from(sys_uptime_ms)))
        };
        // What the templated formats' exporter announced, if anything.
        let mut sampling = None;
        let result = match version {
            v5::VERSION => v5::decode(datagram).map(|(hdr, recs)| {
                report.sequence = Some(hdr.flow_sequence);
                report.boot_epoch_ms = boot_epoch_ms(hdr.unix_secs, hdr.sys_uptime_ms);
                out.extend(recs);
            }),
            v9::VERSION => v9::check(datagram).and_then(|hdr| {
                let cache = self.v9_templates.entry(hdr.source_id).or_default();
                let (hdr, skipped) = v9::decode_tolerant_into(datagram, cache, out)?;
                report.sequence = Some(hdr.sequence);
                report.domain = Some(hdr.source_id);
                report.boot_epoch_ms = boot_epoch_ms(hdr.unix_secs, hdr.sys_uptime_ms);
                report.missed_sets = skipped.count;
                sampling = cache.sampling();
                Ok(())
            }),
            ipfix::VERSION => ipfix::check(datagram).and_then(|hdr| {
                let cache = self.ipfix_templates.entry(hdr.domain_id).or_default();
                let (hdr, skipped) = ipfix::decode_tolerant_into(datagram, cache, out)?;
                report.sequence = Some(hdr.sequence);
                report.domain = Some(hdr.domain_id);
                report.missed_sets = skipped.count;
                sampling = cache.sampling();
                Ok(())
            }),
            found => Err(WireError::BadVersion { expected: 0, found }),
        };
        match result {
            Ok(()) => {
                let (adjusted, clipped) = renormalize(&mut out[mark..], sampling);
                self.stats.renormalized += adjusted;
                self.stats.renorm_clipped += clipped;
                report.ok = true;
                report.records = out.len() - mark;
                self.stats.packets_ok += 1;
                self.stats.records += report.records as u64;
                self.stats.missing_template += u64::from(report.missed_sets);
            }
            Err(_) => {
                self.stats.malformed += 1;
            }
        }
        report
    }

    /// Forget all template and sampling state learned for one observation
    /// domain / source id, forcing a re-learn from the next template set.
    /// Sequence-tracking collectors call this when they detect an exporter
    /// restart (boot-epoch shift).
    pub fn forget_domain(&mut self, domain: u32) {
        self.v9_templates.remove(&domain);
        self.ipfix_templates.remove(&domain);
    }

    /// Ingest a batch of datagrams.
    pub fn ingest_all<'a>(&mut self, datagrams: impl IntoIterator<Item = &'a [u8]>) -> usize {
        datagrams.into_iter().map(|d| self.ingest(d)).sum()
    }

    /// Collected records so far.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Collection statistics so far.
    pub fn stats(&self) -> CollectorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exporter::{ExportFormat, Exporter, ExporterConfig};
    use crate::protocol::IpProtocol;
    use crate::record::{FlowKey, FlowRecord};
    use crate::time::{Date, Timestamp};
    use std::net::Ipv4Addr;

    fn records(n: u32, t: Timestamp) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| {
                FlowRecord::builder(
                    FlowKey {
                        src_addr: Ipv4Addr::from(0xC633_6400 | (i & 0xFF)),
                        dst_addr: Ipv4Addr::new(198, 51, 100, 1),
                        src_port: 10_000 + i as u16,
                        dst_port: 443,
                        protocol: IpProtocol::Udp,
                    },
                    t,
                )
                .end(t.add_secs(5))
                .bytes(500 + u64::from(i))
                .packets(3)
                .build()
            })
            .collect()
    }

    fn run_roundtrip(format: ExportFormat) {
        let boot = Date::new(2020, 3, 18).midnight();
        let now = boot.add_hours(6);
        let recs = records(57, now);
        let mut exporter = Exporter::new(ExporterConfig::new(format, boot));
        let pkts = exporter.export_all(&recs, now.add_secs(30));
        let mut collector = Collector::new();
        let n = collector.ingest_all(pkts.iter().map(|p| p.as_slice()));
        assert_eq!(n, 57);
        assert_eq!(collector.stats().records, 57);
        assert_eq!(collector.stats().malformed, 0);
        // Payload fields survive the trip for every format.
        for (a, b) in recs.iter().zip(collector.records()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.packets, b.packets);
        }
    }

    #[test]
    fn roundtrip_v5() {
        run_roundtrip(ExportFormat::NetflowV5);
    }

    #[test]
    fn roundtrip_v9() {
        run_roundtrip(ExportFormat::NetflowV9);
    }

    #[test]
    fn roundtrip_ipfix() {
        run_roundtrip(ExportFormat::Ipfix);
    }

    #[test]
    fn mid_stream_join_drops_until_template() {
        let boot = Date::new(2020, 3, 18).midnight();
        let now = boot.add_hours(6);
        let mut cfg = ExporterConfig::new(ExportFormat::Ipfix, boot);
        cfg.batch_size = 10;
        cfg.template_refresh = 3;
        let mut exporter = Exporter::new(cfg);
        let pkts = exporter.export_all(&records(60, now), now.add_secs(1));
        assert_eq!(pkts.len(), 6);

        // Join after the first (template-bearing) packet.
        let mut collector = Collector::new();
        let n = collector.ingest_all(pkts[1..].iter().map(|p| p.as_slice()));
        // Packets 1, 2 each skip their data set (no template); 3 carries a
        // refresh; 3..6 decode. All five packets are structurally valid.
        assert_eq!(collector.stats().missing_template, 2);
        assert_eq!(collector.stats().packets_ok, 5);
        assert_eq!(n, 30);
    }

    #[test]
    fn partial_datagram_keeps_decodable_sets() {
        let boot = Date::new(2020, 3, 18).midnight();
        let now = boot.add_hours(6);
        // Two exporters share a domain but use different template ids; each
        // emits a template-bearing first packet and a data-only second one.
        let mk = |template_id: u16| {
            let mut cfg = ExporterConfig::new(ExportFormat::Ipfix, boot);
            cfg.domain_id = 7;
            cfg.template_id = template_id;
            cfg.template_refresh = 0;
            Exporter::new(cfg)
        };
        let mut x = mk(256);
        let mut y = mk(300);
        let x1 = x.export_all(&records(3, now), now.add_secs(1));
        let x2 = x.export_all(&records(3, now), now.add_secs(2));
        let y2 = {
            let _ = y.export_all(&records(2, now), now.add_secs(1));
            y.export_all(&records(4, now), now.add_secs(2))
        };

        // Splice x2's and y2's sets into one message so one datagram carries
        // a decodable data set (template 256) and an unknown one (300).
        let mut spliced = x2[0].clone();
        spliced.extend_from_slice(&y2[0][super::ipfix::HEADER_LEN..]);
        let total = spliced.len() as u16;
        spliced[2..4].copy_from_slice(&total.to_be_bytes());

        let mut collector = Collector::new();
        collector.ingest_all(x1.iter().map(|p| p.as_slice()));
        let report = collector.ingest_detailed(&spliced);
        // The set with a known template still decodes; the unknown one is
        // counted once, and the datagram itself is accepted.
        assert!(report.ok);
        assert_eq!(report.records, 3);
        assert_eq!(report.missed_sets, 1);
        assert_eq!(collector.stats().missing_template, 1);
        assert_eq!(collector.stats().records, 6);
        assert_eq!(collector.stats().malformed, 0);
    }

    #[test]
    fn renormalize_counts_only_adjusted_records() {
        use crate::netflow::options::SamplingInfo;
        let t = Date::new(2020, 3, 18).midnight();
        let mut recs = records(1, t);
        // Saturated counters: scaling is a no-op, so the record must not be
        // reported as renormalized.
        let mut saturated = records(1, t).remove(0);
        saturated.bytes = u64::MAX;
        saturated.packets = u64::MAX;
        recs.push(saturated);
        // Zero counters scale to zero: also a no-op.
        let mut zero = records(1, t).remove(0);
        zero.bytes = 0;
        zero.packets = 0;
        recs.push(zero);

        let info = SamplingInfo {
            interval: 1000,
            algorithm: 1,
        };
        let (adjusted, clipped) = super::renormalize(&mut recs, Some(info));
        assert_eq!(adjusted, 1);
        // The saturated record's no-op scaling is no longer silent: it is
        // reported as clipped so conservation checks know totals drifted.
        assert_eq!(clipped, 1);
        assert_eq!(recs[0].bytes, 500_000);
        assert_eq!(recs[1].bytes, u64::MAX);
        assert_eq!(recs[2].bytes, 0);

        // interval <= 1 and absent sampling info adjust nothing.
        assert_eq!(super::renormalize(&mut recs, None), (0, 0));
        let unsampled = SamplingInfo {
            interval: 1,
            algorithm: 1,
        };
        assert_eq!(super::renormalize(&mut recs, Some(unsampled)), (0, 0));
    }

    #[test]
    fn renormalize_is_exact_in_wide_arithmetic() {
        use crate::netflow::options::SamplingInfo;
        let t = Date::new(2020, 3, 18).midnight();
        // bytes * interval overflows u64 but fits u128: the scaled value
        // must clamp (and be counted), not wrap or lose low bits.
        let mut recs = records(1, t);
        recs[0].bytes = u64::MAX / 2 + 1;
        recs[0].packets = 10;
        let info = SamplingInfo {
            interval: 4,
            algorithm: 1,
        };
        let (adjusted, clipped) = super::renormalize(&mut recs, Some(info));
        assert_eq!((adjusted, clipped), (1, 1));
        assert_eq!(recs[0].bytes, u64::MAX);
        assert_eq!(recs[0].packets, 40, "unclipped counter scales exactly");
    }

    #[test]
    fn malformed_and_unknown_versions_counted() {
        let mut collector = Collector::new();
        assert_eq!(collector.ingest(&[0x00]), 0);
        assert_eq!(collector.ingest(&[0x00, 0x07, 1, 2, 3]), 0);
        let stats = collector.stats();
        assert_eq!(stats.malformed, 2);
        assert_eq!(stats.packets_ok, 0);
    }

    #[test]
    fn per_domain_template_isolation() {
        let boot = Date::new(2020, 3, 18).midnight();
        let now = boot.add_hours(1);
        // Exporter A (domain 1) sends template+data; exporter B (domain 2)
        // sends data only. B's data must not decode against A's template.
        let mut cfg_a = ExporterConfig::new(ExportFormat::Ipfix, boot);
        cfg_a.domain_id = 1;
        let mut a = Exporter::new(cfg_a);
        let mut cfg_b = ExporterConfig::new(ExportFormat::Ipfix, boot);
        cfg_b.domain_id = 2;
        cfg_b.template_refresh = 0; // template only in the very first packet
        let mut b = Exporter::new(cfg_b);

        let pkts_a = a.export_all(&records(5, now), now.add_secs(1));
        let pkts_b = b.export_all(&records(5, now), now.add_secs(1));

        let mut collector = Collector::new();
        collector.ingest_all(pkts_a.iter().map(|p| p.as_slice()));
        // Drop B's first packet (which held its template): the rest has none.
        // With batch 100, B emits a single packet, so craft the scenario by
        // re-exporting data-only from B.
        let data_only = b.export_all(&records(5, now), now.add_secs(2));
        let before = collector.stats().missing_template;
        // b's second batch: template_refresh=0 means only packet 0 had it.
        collector.ingest_all(data_only.iter().map(|p| p.as_slice()));
        // Domain 2 never delivered its template to this collector.
        assert!(collector.stats().missing_template > before);
        // B's first batch (template + data) arrives late: decodes fine, but
        // the dropped data-only batch is gone for good.
        collector.ingest_all(pkts_b.iter().map(|p| p.as_slice()));
        assert_eq!(collector.stats().records, 10);
    }

    #[test]
    fn templates_outlive_the_datagram_that_announced_them() {
        let boot = Date::new(2020, 3, 18).midnight();
        let now = boot.add_hours(1);
        let mut cfg = ExporterConfig::new(ExportFormat::Ipfix, boot);
        cfg.template_refresh = 0;
        let mut exporter = Exporter::new(cfg);
        let p1 = exporter.export_all(&records(3, now), now.add_secs(1));
        let p2 = exporter.export_all(&records(3, now), now.add_secs(2));

        let mut collector = Collector::new();
        collector.ingest_all(p1.iter().map(|p| p.as_slice()));
        assert_eq!(collector.records().len(), 3);
        // The template cache outlives p1; p2 (data-only) still decodes.
        collector.ingest_all(p2.iter().map(|p| p.as_slice()));
        assert_eq!(collector.records().len(), 6);
        assert_eq!(collector.stats().missing_template, 0);
    }
}
