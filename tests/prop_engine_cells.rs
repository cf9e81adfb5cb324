//! Property tests closing the loop between the single-pass trace engine
//! and the wire layer: flows the engine fans out to its consumers must
//! survive NetFlow v9 and IPFIX encode/decode, and the full
//! exporter → trace-file container → collector pipeline, bit-identically —
//! for arbitrary seeds, vantage points, and study dates.
//!
//! This is the cross-crate complement of `crates/flow/tests/prop_codecs.rs`:
//! that file round-trips *arbitrary* records; this one round-trips the
//! records the reproduction actually emits (notably `Direction::Unknown`,
//! which the codecs encode as 0xFF and must decode back unchanged).

use lockdown::core::engine::{self, EnginePlan};
use lockdown::core::{Context, Fidelity};
use lockdown::flow::prelude::*;
use lockdown::store::segment::{decode_segment, encode_segment};
use lockdown::topology::vantage::VantagePoint;
use lockdown_analysis::codec::{CodecError, ConsumerTag, StateReader};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::ipfix;
use lockdown_flow::netflow::v9::{self, TemplateCache};
use lockdown_flow::netflow::Template;
use lockdown_flow::record::HourRun;
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_traffic::plan::Stream;
use std::sync::OnceLock;

/// Seeds exercised by the properties; contexts are cached because registry
/// and corpus synthesis dominate a `Fidelity::Test` context's cost.
const SEEDS: [u64; 3] = [0x10CD_2020, 23, 2_020];

fn ctx(seed_idx: usize) -> &'static Context {
    static CTXS: OnceLock<Vec<Context>> = OnceLock::new();
    &CTXS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&s| Context::with_seed(Fidelity::Test, s))
            .collect()
    })[seed_idx]
}

/// Engine consumer that keeps the raw flows, in fan-out order. Its state
/// is its flows as one store segment.
struct CollectFlows {
    flows: Vec<FlowRecord>,
}

impl FlowConsumer for CollectFlows {
    fn observe_run(&mut self, run: &HourRun<'_>) {
        self.flows.extend_from_slice(run.records);
    }

    fn state_tag(&self) -> ConsumerTag {
        ConsumerTag {
            id: 202,
            name: "CollectFlows",
        }
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let segment = encode_segment(&self.flows);
        out.put_u64_be(segment.len() as u64);
        out.extend_from_slice(&segment);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let len = r.u64("segment length")? as usize;
        let segment = r.bytes(len, "segment")?;
        let (mut flows, _) =
            decode_segment("CollectFlows state", segment).map_err(|e| CodecError {
                consumer: "CollectFlows",
                detail: e.to_string(),
            })?;
        self.flows.append(&mut flows);
        Ok(())
    }
}

/// One single-worker engine pass over a one-day `(vantage, date)` window,
/// so flow order is the canonical generation order.
fn engine_day(ctx: &Context, vp: VantagePoint, date: Date) -> Vec<FlowRecord> {
    let mut plan = EnginePlan::new();
    let d = plan.subscribe(Stream::Vantage(vp), date, date, || CollectFlows {
        flows: Vec::new(),
    });
    engine::run_with_workers(ctx, plan, 1)
        .expect("pass succeeds")
        .take(d)
        .flows
}

/// Export timestamp strictly after every flow in the day (EDU-style flows
/// may cross midnight), so uptime-relative v9 encoding stays exact.
fn export_time(flows: &[FlowRecord], date: Date) -> Timestamp {
    flows
        .iter()
        .map(|f| f.end)
        .max()
        .unwrap_or_else(|| date.at_hour(23))
        .add_secs(1)
}

/// One engine day of a cached context: any seed, core vantage point and
/// February-to-April date.
fn any_day(rng: &mut SplitMix) -> (Vec<FlowRecord>, Date) {
    let ctx = ctx(rng.below(SEEDS.len() as u64) as usize);
    let vp = rng.pick(&VantagePoint::CORE_FOUR);
    let date = Date::new(2020, rng.range(2..5) as u8, rng.range(1..29) as u8);
    (engine_day(ctx, vp, date), date)
}

/// Every engine-generated flow survives NetFlow v9 encode/decode.
#[test]
fn engine_cells_roundtrip_v9() {
    cases(12, |rng, _| {
        let (flows, date) = any_day(rng);
        let chunk = rng.range(16..64) as usize;
        let export = export_time(&flows, date);
        let boot = date.midnight();
        let template = Template::standard_v9(310);
        let mut cache = TemplateCache::new();
        for batch in flows.chunks(chunk) {
            let pkt = v9::encode(batch, Some(&template), &template, export, boot, 1, 9);
            let (_, out) = v9::decode(&pkt, &mut cache).unwrap();
            assert_eq!(out, batch);
        }
    });
}

/// Every engine-generated flow survives IPFIX encode/decode.
#[test]
fn engine_cells_roundtrip_ipfix() {
    cases(12, |rng, _| {
        let (flows, date) = any_day(rng);
        let chunk = rng.range(16..64) as usize;
        let export = export_time(&flows, date);
        let template = Template::standard_ipfix(260);
        let mut cache = TemplateCache::new();
        for batch in flows.chunks(chunk) {
            let msg = ipfix::encode(batch, Some(&template), &template, export, 1, 9);
            let (hdr, out) = ipfix::decode(&msg, &mut cache).unwrap();
            assert_eq!(hdr.length as usize, msg.len());
            assert_eq!(out, batch);
        }
    });
}

/// The whole capture pipeline — exporter, trace-file container,
/// collector — is the identity on an engine-generated day, for any
/// batch size and both templated wire formats.
#[test]
fn engine_cells_through_exporter_and_tracefile() {
    cases(12, |rng, _| {
        let (flows, date) = any_day(rng);
        let export = export_time(&flows, date);

        let format = rng.pick(&[ExportFormat::Ipfix, ExportFormat::NetflowV9]);
        let mut cfg = ExporterConfig::new(format, date.midnight());
        cfg.batch_size = rng.range(8..64) as usize;
        cfg.template_refresh = rng.range(1..8) as u32;
        let mut exporter = Exporter::new(cfg);
        let mut writer = TraceWriter::new();
        for pkt in exporter.export_all(&flows, export) {
            writer.push(export, &pkt).unwrap();
        }
        let bytes = writer.finish();

        let reader = TraceReader::open(&bytes).unwrap();
        let mut collector = Collector::new();
        for record in reader {
            collector.ingest(record.unwrap().payload);
        }
        assert_eq!(collector.records(), &flows[..]);
    });
}
