//! Flow exporter: turns streams of [`FlowRecord`]s into wire datagrams.
//!
//! Models what a router/IXP fabric exporter does: batch records into
//! packets, maintain sequence numbers, and (for templated formats) re-send
//! the template periodically so that a collector joining mid-stream can
//! synchronize — the behaviour the collector tests in this crate and the
//! integration tests exercise.

use crate::ipfix;
use crate::netflow::options::{OptionsTemplate, SamplingInfo};
use crate::netflow::v5;
use crate::netflow::v9;
use crate::netflow::Template;
use crate::record::FlowRecord;
use crate::sampling::FlowSampler;
use crate::time::Timestamp;
use crate::wire::MAX_UDP_PAYLOAD;

/// Wire format an [`Exporter`] speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    /// NetFlow v5 (fixed format; 16-bit ASNs).
    NetflowV5,
    /// NetFlow v9 (templated; uptime-relative timestamps).
    NetflowV9,
    /// IPFIX / RFC 7011 (templated; absolute timestamps).
    Ipfix,
}

/// Exporter configuration.
#[derive(Debug, Clone)]
pub struct ExporterConfig {
    /// Wire format to emit.
    pub format: ExportFormat,
    /// Records per emitted packet, clamped to what one packet holds: 30
    /// for v5, a UDP payload's worth for the templated formats.
    pub batch_size: usize,
    /// For templated formats: a template is included every
    /// `template_refresh` packets (and always in the first packet).
    pub template_refresh: u32,
    /// Router boot time; used by v5/v9 uptime-relative encoding.
    pub boot_time: Timestamp,
    /// Observation domain / source id stamped on packets.
    pub domain_id: u32,
    /// Template id for templated formats.
    pub template_id: u16,
    /// Router-style packet sampling: when set to N > 1, only 1-in-N flows
    /// are exported with *raw* counters and the sampling configuration is
    /// announced in-band via an options template (v9/IPFIX only; the
    /// collector renormalizes). `None`/1 exports everything.
    pub sampling: Option<u32>,
    /// Header sequence counter value of the first datagram. Long-lived
    /// exporters carry arbitrary counter positions — including ones about
    /// to wrap the u32 field — so collectors must never assume sessions
    /// start at zero.
    pub initial_sequence: u32,
}

impl ExporterConfig {
    /// A sensible default for the given format.
    pub fn new(format: ExportFormat, boot_time: Timestamp) -> ExporterConfig {
        ExporterConfig {
            format,
            batch_size: match format {
                ExportFormat::NetflowV5 => v5::MAX_RECORDS,
                _ => 100,
            },
            template_refresh: 20,
            boot_time,
            domain_id: 0,
            template_id: 256,
            sampling: None,
            initial_sequence: 0,
        }
    }
}

/// Stateful exporter. Feed it records; it yields datagrams.
#[derive(Debug)]
pub struct Exporter {
    config: ExporterConfig,
    template: Template,
    options_template: OptionsTemplate,
    sampler: Option<FlowSampler>,
    /// v5: flows exported; v9: packets emitted; IPFIX: data records emitted.
    /// Wraps at u32 like the wire field it feeds.
    sequence: u32,
    /// Unwrapped total of sequence units emitted since construction — the
    /// ground truth collectors are validated against (the wire counter
    /// above is this value mod 2^32, offset by `initial_sequence`).
    units_sent: u64,
    /// Flows offered but not selected by the sampler.
    sampled_out: u64,
    packets_emitted: u32,
    pending: Vec<FlowRecord>,
}

impl Exporter {
    /// Build an exporter from a configuration.
    pub fn new(config: ExporterConfig) -> Exporter {
        let template = match config.format {
            ExportFormat::NetflowV9 => Template::standard_v9(config.template_id),
            _ => Template::standard_ipfix(config.template_id),
        };
        let options_template = OptionsTemplate::sampling(config.template_id + 1);
        let mut config = config;
        config.batch_size =
            config
                .batch_size
                .min(max_records(config.format, &template, &options_template));
        assert!(config.batch_size > 0, "batch size must be positive");
        let sampler = match config.sampling {
            Some(rate) if rate > 1 => {
                assert!(
                    config.format != ExportFormat::NetflowV5,
                    "v5 has no in-band sampling announcement; sample upstream instead"
                );
                Some(FlowSampler::new(rate, u64::from(config.domain_id) ^ 0x5A17))
            }
            _ => None,
        };
        let sequence = config.initial_sequence;
        Exporter {
            config,
            template,
            options_template,
            sampler,
            sequence,
            units_sent: 0,
            sampled_out: 0,
            packets_emitted: 0,
            pending: Vec::new(),
        }
    }

    /// The sampling announcement this exporter sends, if sampling.
    pub fn sampling_info(&self) -> Option<SamplingInfo> {
        self.config
            .sampling
            .filter(|&r| r > 1)
            .map(|rate| SamplingInfo {
                interval: rate,
                algorithm: 1, // deterministic hash-based selection
            })
    }

    /// The exporter's configuration.
    pub fn config(&self) -> &ExporterConfig {
        &self.config
    }

    /// The sequence value the *first* datagram carried (from the config).
    pub fn initial_sequence(&self) -> u32 {
        self.config.initial_sequence
    }

    /// Unwrapped total sequence units emitted so far (flows for v5,
    /// packets for v9, records for IPFIX). Unlike the wire sequence
    /// counter, this never wraps and does not include `initial_sequence`.
    pub fn units_sent(&self) -> u64 {
        self.units_sent
    }

    /// Flows offered via `Exporter::push` that the in-band sampler
    /// rejected (and which therefore never reached the wire).
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Simulate an exporter restart at `boot_time`: the uptime base resets
    /// and the next datagram re-announces the template (as a freshly booted
    /// device would). The sequence counter is preserved — restart-induced
    /// sequence resets are out of scope; collectors detect the restart from
    /// the boot-epoch shift instead. Buffered records survive the restart.
    pub fn restart(&mut self, boot_time: Timestamp) {
        self.config.boot_time = boot_time;
        self.packets_emitted = 0;
    }

    /// Whether `record` is exported: always, unless the in-band sampler
    /// passes it over (counted in [`Exporter::sampled_out`]). Selected
    /// flows keep their counters *unscaled* — renormalization is the
    /// collector's job, guided by the in-band announcement.
    pub fn admit(&mut self, record: &FlowRecord) -> bool {
        let selected = self.sampler.as_ref().is_none_or(|s| s.selects(record));
        self.sampled_out += u64::from(!selected);
        selected
    }

    /// Queue a record; returns a datagram when a full batch is ready.
    pub(crate) fn push(&mut self, record: FlowRecord, now: Timestamp) -> Option<Vec<u8>> {
        if !self.admit(&record) {
            return None;
        }
        self.pending.push(record);
        if self.pending.len() >= self.config.batch_size {
            self.flush(now)
        } else {
            None
        }
    }

    /// Flush any buffered records into a final (possibly short) datagram.
    pub(crate) fn flush(&mut self, now: Timestamp) -> Option<Vec<u8>> {
        if self.pending.is_empty() {
            return None;
        }
        let mut batch = std::mem::take(&mut self.pending);
        let pkt = self.export_batch(&batch, now);
        batch.clear();
        self.pending = batch;
        Some(pkt)
    }

    /// Export an entire batch of records as a sequence of datagrams.
    pub fn export_all(&mut self, records: &[FlowRecord], now: Timestamp) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for r in records {
            if let Some(pkt) = self.push(*r, now) {
                out.push(pkt);
            }
        }
        if let Some(pkt) = self.flush(now) {
            out.push(pkt);
        }
        out
    }

    fn template_due(&self) -> bool {
        self.packets_emitted == 0
            || (self.config.template_refresh > 0
                && self
                    .packets_emitted
                    .is_multiple_of(self.config.template_refresh))
    }

    /// Encode `batch` — records [`Exporter::admit`] let through, at most
    /// `batch_size` of them — as the next datagram, straight from the
    /// caller's slice. Whoever has the records in hand calls this per
    /// chunk; `Exporter::push` and `Exporter::flush` stage one record
    /// at a time for callers that do not, and what they have buffered is
    /// not part of `batch`.
    pub fn export_batch(&mut self, batch: &[FlowRecord], now: Timestamp) -> Vec<u8> {
        assert!(
            batch.len() <= self.config.batch_size,
            "a datagram holds at most batch_size records"
        );
        let pkt = match self.config.format {
            ExportFormat::NetflowV5 => {
                // v5 carries the observation domain in the engine bytes
                // (16 bits) — the only place the format has for it. Wider
                // domain ids would alias; exporter fleets keep ids small.
                let pkt = v5::encode_with_engine(
                    batch,
                    now,
                    self.config.boot_time,
                    self.sequence,
                    self.config.domain_id as u16,
                );
                self.sequence = self.sequence.wrapping_add(batch.len() as u32);
                self.units_sent += batch.len() as u64;
                pkt
            }
            ExportFormat::NetflowV9 => {
                let due = self.template_due();
                let tmpl = due.then_some(&self.template);
                let sampling = if due {
                    self.sampling_info().map(|i| (&self.options_template, i))
                } else {
                    None
                };
                let pkt = v9::encode_full(
                    batch,
                    tmpl,
                    sampling,
                    &self.template,
                    now,
                    self.config.boot_time,
                    self.sequence,
                    self.config.domain_id,
                );
                self.sequence = self.sequence.wrapping_add(1); // v9: per packet
                self.units_sent += 1;
                pkt
            }
            ExportFormat::Ipfix => {
                let due = self.template_due();
                let tmpl = due.then_some(&self.template);
                let sampling = if due {
                    self.sampling_info().map(|i| (&self.options_template, i))
                } else {
                    None
                };
                let pkt = ipfix::encode_full(
                    batch,
                    tmpl,
                    sampling,
                    &self.template,
                    now,
                    self.sequence,
                    self.config.domain_id,
                );
                self.sequence = self.sequence.wrapping_add(batch.len() as u32);
                self.units_sent += batch.len() as u64;
                pkt
            }
        };
        self.packets_emitted = self.packets_emitted.wrapping_add(1);
        pkt
    }
}

/// Most records one datagram of `format` carries: v5's fixed packet
/// maximum; for the templated formats, what fits one UDP payload with the
/// template and options sets due. A longer message would not fit its own
/// 16-bit length fields.
fn max_records(format: ExportFormat, template: &Template, options: &OptionsTemplate) -> usize {
    let refresh = match format {
        ExportFormat::NetflowV5 => return v5::MAX_RECORDS,
        ExportFormat::NetflowV9 => v9::packet_len(0, Some(template), Some(options), template),
        ExportFormat::Ipfix => ipfix::message_len(0, Some(template), Some(options), template),
    };
    // The data set's own header, and up to three bytes of alignment.
    (MAX_UDP_PAYLOAD - refresh - 4 - 3) / template.record_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::IpProtocol;
    use crate::record::FlowKey;
    use crate::time::Date;
    use std::net::Ipv4Addr;

    fn record(i: u32, t: Timestamp) -> FlowRecord {
        FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::from(0x0A00_0000 | i),
                dst_addr: Ipv4Addr::new(192, 0, 2, 1),
                src_port: 1_024 + (i % 60_000) as u16,
                dst_port: 443,
                protocol: IpProtocol::Tcp,
            },
            t,
        )
        .end(t.add_secs(1))
        .bytes(1_000)
        .packets(2)
        .build()
    }

    fn mk(format: ExportFormat, batch: usize, refresh: u32) -> (Exporter, Timestamp) {
        let boot = Date::new(2020, 2, 1).midnight();
        let mut cfg = ExporterConfig::new(format, boot);
        cfg.batch_size = batch;
        cfg.template_refresh = refresh;
        (Exporter::new(cfg), boot.add_hours(24))
    }

    #[test]
    fn batches_and_flushes() {
        let (mut e, now) = mk(ExportFormat::Ipfix, 10, 20);
        let recs: Vec<_> = (0..25).map(|i| record(i, now)).collect();
        let pkts = e.export_all(&recs, now.add_secs(60));
        assert_eq!(pkts.len(), 3); // 10 + 10 + 5
    }

    #[test]
    fn v5_clamps_batch() {
        let boot = Date::new(2020, 2, 1).midnight();
        let mut cfg = ExporterConfig::new(ExportFormat::NetflowV5, boot);
        cfg.batch_size = 100;
        let e = Exporter::new(cfg);
        assert_eq!(e.config.batch_size, v5::MAX_RECORDS);
    }

    /// 1,400 records in one message would need 71,488 bytes; its 16-bit
    /// length fields used to wrap and the decoder returned 114 of them.
    #[test]
    fn oversize_batch_is_clamped_to_one_udp_payload() {
        for format in [ExportFormat::NetflowV9, ExportFormat::Ipfix] {
            let (mut e, now) = mk(format, 2_000, 20);
            assert!(e.config.batch_size < 1_400, "{format:?}");
            let recs: Vec<_> = (0..1_400).map(|i| record(i, now)).collect();
            let pkts = e.export_all(&recs, now.add_secs(60));
            assert!(pkts.len() >= 2, "{format:?}");
            assert!(pkts.iter().all(|p| p.len() <= MAX_UDP_PAYLOAD));
            let mut collector = crate::collector::Collector::new();
            collector.ingest_all(pkts.iter().map(|p| p.as_slice()));
            assert_eq!(collector.records(), &recs[..], "{format:?}");
        }
        // A sampling exporter's refresh carries the options sets too: the
        // first, fullest message must still fit.
        let boot = Date::new(2020, 2, 1).midnight();
        let mut cfg = ExporterConfig::new(ExportFormat::Ipfix, boot);
        cfg.batch_size = usize::MAX;
        cfg.sampling = Some(2);
        let mut e = Exporter::new(cfg);
        let batch: Vec<_> = (0..e.config.batch_size as u32)
            .map(|i| record(i, boot))
            .collect();
        let pkt = e.export_batch(&batch, boot.add_hours(1));
        assert!(pkt.len() > MAX_UDP_PAYLOAD - 51 && pkt.len() <= MAX_UDP_PAYLOAD);
    }

    #[test]
    fn v5_sequence_counts_flows() {
        let (mut e, now) = mk(ExportFormat::NetflowV5, 5, 0);
        let recs: Vec<_> = (0..12).map(|i| record(i, now)).collect();
        let pkts = e.export_all(&recs, now.add_secs(1));
        assert_eq!(pkts.len(), 3);
        let (h0, _) = v5::decode(&pkts[0]).unwrap();
        let (h1, _) = v5::decode(&pkts[1]).unwrap();
        let (h2, _) = v5::decode(&pkts[2]).unwrap();
        assert_eq!(
            (h0.flow_sequence, h1.flow_sequence, h2.flow_sequence),
            (0, 5, 10)
        );
    }

    #[test]
    fn template_refresh_cycle() {
        let (mut e, now) = mk(ExportFormat::NetflowV9, 1, 3);
        let recs: Vec<_> = (0..7).map(|i| record(i, now)).collect();
        let pkts = e.export_all(&recs, now.add_secs(1));
        assert_eq!(pkts.len(), 7);
        // Packets 0, 3, 6 carry the template: decodable from scratch.
        for (i, pkt) in pkts.iter().enumerate() {
            let mut fresh = v9::TemplateCache::new();
            let has_template = v9::decode(pkt, &mut fresh).is_ok();
            assert_eq!(has_template, i % 3 == 0, "packet {i}");
        }
    }

    #[test]
    fn ipfix_sequence_counts_records() {
        let (mut e, now) = mk(ExportFormat::Ipfix, 4, 1);
        let recs: Vec<_> = (0..8).map(|i| record(i, now)).collect();
        let pkts = e.export_all(&recs, now.add_secs(1));
        let mut cache = v9::TemplateCache::new();
        let (h0, _) = ipfix::decode(&pkts[0], &mut cache).unwrap();
        let (h1, _) = ipfix::decode(&pkts[1], &mut cache).unwrap();
        assert_eq!((h0.sequence, h1.sequence), (0, 4));
    }

    #[test]
    fn flush_on_empty_is_none() {
        let (mut e, now) = mk(ExportFormat::Ipfix, 4, 1);
        assert!(e.flush(now).is_none());
    }

    #[test]
    fn initial_sequence_carries_and_wraps() {
        let boot = Date::new(2020, 2, 1).midnight();
        let mut cfg = ExporterConfig::new(ExportFormat::Ipfix, boot);
        cfg.batch_size = 4;
        cfg.template_refresh = 1;
        cfg.initial_sequence = u32::MAX - 2;
        let mut e = Exporter::new(cfg);
        let now = boot.add_hours(24);
        let recs: Vec<_> = (0..8).map(|i| record(i, now)).collect();
        let pkts = e.export_all(&recs, now.add_secs(1));
        let mut cache = v9::TemplateCache::new();
        let (h0, _) = ipfix::decode(&pkts[0], &mut cache).unwrap();
        let (h1, _) = ipfix::decode(&pkts[1], &mut cache).unwrap();
        // The wire counter wraps at u32; the unwrapped tally does not.
        assert_eq!((h0.sequence, h1.sequence), (u32::MAX - 2, 1));
        assert_eq!(e.units_sent(), 8);
        assert_eq!(e.sequence, 5);
    }
}
