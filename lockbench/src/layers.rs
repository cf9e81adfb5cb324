//! Per-layer timings taken from outside: each one calls a single public
//! entry point of one crate over the same seeded cell sample (every
//! [`SAMPLE_EVERY`]-th cell of the suite's plan) and divides the wall time
//! by the work done. They are the same for every workload of one seed,
//! except the `query.*` timings, which need a whole archive and are taken
//! only where the workload has one.

use crate::client::{request_sequence, Conn};
use crate::stats;
use lockdown::analysis::appclass::{Classifier, PaperClass};
use lockdown::analysis::codec::{encode_frame, merge_frame};
use lockdown::analysis::consumer::{
    AsTotalsConsumer, ClassUsageConsumer, FlowConsumer, HeatmapConsumer, HypergiantConsumer,
    PortConsumer,
};
use lockdown::analysis::edu::EduAnalysis;
use lockdown::analysis::timeseries::HourlyVolume;
use lockdown::collect::{
    CollectionPlane, ExporterFleet, FaultProfile, FleetConfig, ShardSet, Transport, WireConfig,
};
use lockdown::core::experiments::suite::Suite;
use lockdown::core::serve::{figure_cells, figure_names, suite_plan_hash};
use lockdown::core::{Context, Fidelity};
use lockdown::flow::ipfix;
use lockdown::flow::netflow::v9::TemplateCache;
use lockdown::flow::netflow::{v5, v9, Template};
use lockdown::flow::record::FlowRecord;
use lockdown::flow::time::Timestamp;
use lockdown::query::http::{Handler, Response, Server};
use lockdown::query::{QueryEngine, QueryMetrics, QueryPlan};
use lockdown::scenario::apps::AppClass;
use lockdown::scenario::demand::DemandModel;
use lockdown::store::segment::{decode_segment, encode_segment};
use lockdown::store::{ArchiveReader, ArchiveWriter, StoreKey, StoreMetrics};
use lockdown::topology::asn::Region;
use lockdown::topology::registry::ISP_CE_ASN;
use lockdown::traffic::plan::{Cell, Stream, TraceEmitter};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One cell in this many is in the sample.
pub const SAMPLE_EVERY: usize = 64;

/// Plans timed for `query.execute_*` and `query.parse_ns`.
pub const QUERY_PLANS: usize = 24;

/// Round trips timed for `query.http_floor_us`.
pub const FLOOR_ROUND_TRIPS: usize = 15;

/// Every distinct cell the figure suite demands, in `(stream, date, hour)`
/// order — the union of the 22 figures' plans.
pub fn suite_cells(ctx: &Context) -> Vec<Cell> {
    let mut cells = BTreeSet::new();
    for name in figure_names() {
        cells.extend(figure_cells(ctx, &name).expect("catalog names are servable"));
    }
    cells.into_iter().collect()
}

/// The archive key a suite pass over `ctx` writes.
pub fn store_key(ctx: &Context) -> StoreKey {
    StoreKey {
        seed: ctx.config.seed,
        scenario_hash: ctx.scenario_hash(),
        plan_hash: suite_plan_hash(ctx),
    }
}

fn ns_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// Median of `reps` timings of `f`, nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            ns_since(started)
        })
        .collect();
    stats::median(&walls)
}

/// `(name, value)` pairs, appended to by each layer.
pub type Metrics = Vec<(&'static str, f64)>;

/// The sampled cells with the flows generation gives them.
pub struct Sample {
    /// `(cell, flows)` for every sampled cell.
    pub cells: Vec<(Cell, Vec<FlowRecord>)>,
    /// Flows in the sample.
    pub flows: usize,
}

/// Generate the sample, timing `traffic.generate_ns_per_flow` on the way.
pub fn sample(ctx: &Context, all_cells: &[Cell], out: &mut Metrics) -> Sample {
    let emitter =
        TraceEmitter::with_scenario(&ctx.registry, &ctx.corpus, ctx.config, &ctx.scenario);
    let mut cells = Vec::new();
    let mut busy_ns = 0.0;
    for &cell in all_cells.iter().step_by(SAMPLE_EVERY) {
        let mut flows = Vec::new();
        let started = Instant::now();
        emitter.generate_cell(cell, &mut flows);
        busy_ns += ns_since(started);
        cells.push((cell, flows));
    }
    let flows = cells.iter().map(|(_, f)| f.len()).sum::<usize>().max(1);
    out.push(("traffic.generate_ns_per_flow", busy_ns / flows as f64));
    Sample { cells, flows }
}

/// `core.*` and `scenario.*`.
pub fn core_and_scenario(ctx: &Context, reference: &Suite, sample: &Sample, out: &mut Metrics) {
    let seed = ctx.config.seed;
    out.push((
        "core.context_ms",
        median_ns(5, || {
            black_box(Context::with_seed(Fidelity::Test, black_box(seed)));
        }) / 1e6,
    ));
    out.push((
        "core.renders_ms",
        median_ns(5, || {
            black_box(reference.renders());
        }) / 1e6,
    ));

    let model = DemandModel::from_spec(&ctx.scenario);
    let mut calls = 0u64;
    let started = Instant::now();
    for (cell, _) in &sample.cells {
        if let Stream::Vantage(vp) = cell.stream {
            for app in AppClass::ALL {
                black_box(model.volume_gbps(vp, app, cell.date, cell.hour));
                calls += 1;
            }
        }
    }
    out.push((
        "scenario.volume_ns",
        ns_since(started) / calls.max(1) as f64,
    ));
}

/// Encode the sample `batch_size` records to a packet, then decode every
/// packet: `(encode, decode)` nanoseconds per flow. `encode` gets the
/// cell's hour start (the exporter's boot time), its export time, the batch
/// and its sequence number within the cell, and whether this is the very
/// first packet (the one that carries the template).
fn codec_ns_per_flow(
    sample: &Sample,
    batch_size: usize,
    mut encode: impl FnMut(Timestamp, Timestamp, &[FlowRecord], u32, bool) -> Vec<u8>,
    mut decode: impl FnMut(&[u8]),
) -> (f64, f64) {
    let flows = sample.flows as f64;
    let mut packets = Vec::new();
    let started = Instant::now();
    for (cell, records) in &sample.cells {
        let (boot, now) = (cell.date.at_hour(cell.hour), export_time(cell, records));
        for (seq, batch) in records.chunks(batch_size).enumerate() {
            let first = packets.is_empty();
            packets.push(encode(boot, now, batch, seq as u32, first));
        }
    }
    let encode_ns = ns_since(started) / flows;
    let started = Instant::now();
    for p in &packets {
        decode(p);
    }
    (encode_ns, ns_since(started) / flows)
}

/// `flow.*`: the three wire codecs. NetFlow v5 carries at most 30 records a
/// packet; the templated formats run at the wire plane's batch size with the
/// template in the first packet only.
pub fn flow_codecs(sample: &Sample, out: &mut Metrics) {
    let (enc, dec) = codec_ns_per_flow(
        sample,
        v5::MAX_RECORDS,
        |boot, now, batch, seq, _| v5::encode(batch, now, boot, seq),
        |p| {
            black_box(v5::decode(p).expect("v5 round trip"));
        },
    );
    out.push(("flow.v5_encode_ns_per_flow", enc));
    out.push(("flow.v5_decode_ns_per_flow", dec));

    let batch_size = WireConfig::new().batch_size;
    let template = Template::standard_v9(256);
    let mut cache = TemplateCache::new();
    let (enc, dec) = codec_ns_per_flow(
        sample,
        batch_size,
        |boot, now, batch, seq, first| {
            v9::encode(
                batch,
                first.then_some(&template),
                &template,
                now,
                boot,
                seq,
                1,
            )
        },
        |p| {
            black_box(v9::decode(p, &mut cache).expect("v9 round trip"));
        },
    );
    out.push(("flow.v9_encode_ns_per_flow", enc));
    out.push(("flow.v9_decode_ns_per_flow", dec));

    let template = Template::standard_ipfix(256);
    let mut cache = TemplateCache::new();
    let (enc, dec) = codec_ns_per_flow(
        sample,
        batch_size,
        |_, now, batch, seq, first| {
            ipfix::encode(batch, first.then_some(&template), &template, now, seq, 1)
        },
        |p| {
            black_box(ipfix::decode(p, &mut cache).expect("ipfix round trip"));
        },
    );
    out.push(("flow.ipfix_encode_ns_per_flow", enc));
    out.push(("flow.ipfix_decode_ns_per_flow", dec));
}

/// Export strictly after the last flow ends, as the wire plane does.
fn export_time(cell: &Cell, records: &[FlowRecord]) -> Timestamp {
    records
        .iter()
        .map(|f| f.end)
        .max()
        .unwrap_or_else(|| cell.date.at_hour(cell.hour).add_hours(1))
        .add_secs(1)
}

/// `collect.*`: the wire plane whole (`process_cell`) and stage by stage.
pub fn collect(sample: &Sample, out: &mut Metrics) {
    let cfg = WireConfig::new();
    let flows = sample.flows as f64;

    let plane = CollectionPlane::new(cfg);
    let started = Instant::now();
    for (cell, records) in &sample.cells {
        black_box(plane.process_cell(*cell, records));
    }
    out.push((
        "collect.process_cell_ns_per_flow",
        ns_since(started) / flows,
    ));

    let (mut export_ns, mut transport_ns, mut ingest_ns) = (0.0, 0.0, 0.0);
    let (mut datagrams, mut wire_bytes) = (0u64, 0u64);
    for (cell, records) in &sample.cells {
        let hour_start = cell.date.at_hour(cell.hour);
        let started = Instant::now();
        let mut fleet = ExporterFleet::new(
            FleetConfig {
                format: cfg.format,
                exporters: cfg.exporters,
                batch_size: cfg.batch_size,
                template_refresh: cfg.template_refresh,
                restart_every: cfg.faults.restart_every,
                initial_sequence: cfg.initial_sequence,
                boot_age_secs: cfg.boot_age_secs,
                sampling: cfg.sampling,
            },
            cell.stream.wire_id(),
            hour_start,
        );
        let (sent, truth) = fleet.export_cell(records, export_time(cell, records));
        export_ns += ns_since(started);
        datagrams += sent.len() as u64;
        wire_bytes += sent.iter().map(|d| d.bytes.len() as u64).sum::<u64>();

        let started = Instant::now();
        let (delivered, _report) = Transport::new(FaultProfile::zero(), 0).deliver(sent);
        transport_ns += ns_since(started);

        let started = Instant::now();
        let mut shards = ShardSet::new(cfg.shards, cfg.format);
        for dg in &delivered {
            shards.ingest(dg);
        }
        black_box(shards.close(&truth.sessions, cfg.renormalize));
        ingest_ns += ns_since(started);
    }
    out.push(("collect.export_ns_per_flow", export_ns / flows));
    out.push((
        "collect.transport_ns_per_datagram",
        transport_ns / datagrams.max(1) as f64,
    ));
    out.push(("collect.ingest_ns_per_flow", ingest_ns / flows));
    out.push(("collect.datagrams", datagrams as f64));
    out.push(("collect.wire_bytes_per_flow", wire_bytes as f64 / flows));
}

/// `topology.*` and `analysis.*`.
pub fn topology_and_analysis(ctx: &Context, sample: &Sample, out: &mut Metrics) {
    let flows = sample.flows as f64;
    let started = Instant::now();
    for (_, records) in &sample.cells {
        for r in records {
            black_box(ctx.registry.lookup(r.key.src_addr));
            black_box(ctx.registry.lookup(r.key.dst_addr));
        }
    }
    out.push((
        "topology.lpm_ns_per_lookup",
        ns_since(started) / (2.0 * flows),
    ));

    let classifier = Arc::new(Classifier::from_registry(&ctx.registry));
    let started = Instant::now();
    for (_, records) in &sample.cells {
        for r in records {
            black_box(classifier.classify(r));
        }
    }
    out.push(("analysis.classify_ns_per_flow", ns_since(started) / flows));

    // One of each consumer type the figures use, under the name its
    // `observe_all` is reported as.
    let region = Region::CentralEurope;
    let week = sample.cells[0].0.date;
    let build = || -> [(&'static str, Box<dyn FlowConsumer>); 7] {
        [
            (
                "analysis.observe_ns_per_flow.hourly_volume",
                Box::new(HourlyVolume::new()),
            ),
            (
                "analysis.observe_ns_per_flow.port",
                Box::new(PortConsumer::new(region)),
            ),
            (
                "analysis.observe_ns_per_flow.hypergiant",
                Box::new(HypergiantConsumer::new(region, ISP_CE_ASN)),
            ),
            (
                "analysis.observe_ns_per_flow.as_totals",
                Box::new(AsTotalsConsumer::all(region)),
            ),
            (
                "analysis.observe_ns_per_flow.heatmap",
                Box::new(HeatmapConsumer::new(Arc::clone(&classifier), week)),
            ),
            (
                "analysis.observe_ns_per_flow.class_usage",
                Box::new(ClassUsageConsumer::new(
                    Arc::clone(&classifier),
                    PaperClass::WebConf,
                )),
            ),
            (
                "analysis.observe_ns_per_flow.edu",
                Box::new(EduAnalysis::new()),
            ),
        ]
    };
    let mut loaded = build();
    for (name, consumer) in &mut loaded {
        let started = Instant::now();
        for (_, records) in &sample.cells {
            consumer.observe_all(records);
        }
        out.push((*name, ns_since(started) / flows));
    }

    // The shard state codec over the seven loaded consumers: encode all,
    // then merge every frame into a factory-fresh twin.
    let started = Instant::now();
    let frames: Vec<Vec<u8>> = loaded
        .iter()
        .map(|(_, consumer)| encode_frame(consumer.as_ref()))
        .collect();
    out.push(("analysis.state_encode_us", ns_since(started) / 1e3));
    let mut fresh = build();
    let started = Instant::now();
    for ((_, consumer), frame) in fresh.iter_mut().zip(&frames) {
        merge_frame(consumer.as_mut(), frame).expect("a consumer merges its own state");
    }
    out.push(("analysis.state_merge_us", ns_since(started) / 1e3));
}

/// `store.*` per flow and per cell, over an archive of the sample cells
/// built under `dir`.
pub fn store(ctx: &Context, sample: &Sample, dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let flows = sample.flows as f64;
    let cells = sample.cells.len() as f64;

    let mut segments = Vec::with_capacity(sample.cells.len());
    let started = Instant::now();
    for (_, records) in &sample.cells {
        segments.push(encode_segment(records));
    }
    out.push(("store.encode_ns_per_flow", ns_since(started) / flows));
    let started = Instant::now();
    for bytes in &segments {
        black_box(decode_segment("sample", bytes).map_err(|e| e.to_string())?);
    }
    out.push(("store.decode_ns_per_flow", ns_since(started) / flows));
    let encoded: usize = segments.iter().map(Vec::len).sum();
    out.push(("store.bytes_per_flow", encoded as f64 / flows));
    drop(segments);

    let metrics = StoreMetrics::new();
    let writer = ArchiveWriter::create(dir, store_key(ctx), Arc::clone(&metrics))
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    for (cell, records) in &sample.cells {
        writer.spill(*cell, records).map_err(|e| e.to_string())?;
    }
    out.push(("store.spill_us_per_cell", ns_since(started) / 1e3 / cells));
    writer.finish().map_err(|e| e.to_string())?;

    let reader = ArchiveReader::open(dir, metrics)
        .map_err(|e| e.to_string())?
        .ok_or("sample archive has no manifest")?;
    let started = Instant::now();
    for (cell, _) in &sample.cells {
        black_box(reader.read_cell(*cell).map_err(|e| e.to_string())?);
    }
    out.push(("store.read_us_per_cell", ns_since(started) / 1e3 / cells));
    let started = Instant::now();
    for (cell, _) in &sample.cells {
        black_box(reader.read_footer(*cell).map_err(|e| e.to_string())?);
    }
    out.push(("store.footer_us_per_cell", ns_since(started) / 1e3 / cells));
    Ok(())
}

/// `query.parse_ns`, `query.execute_hit_us` and `query.execute_miss_us` over
/// the first [`QUERY_PLANS`] plans of client 0's sequence, against a whole
/// archive: warm through a cache that holds everything, then through a cache
/// of budget zero.
pub fn query(archive: &Path, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let plans: Vec<QueryPlan> = request_sequence(seed, 0, 1, QUERY_PLANS * 4, &figure_names())
        .into_iter()
        .filter_map(|p| p.plan)
        .take(QUERY_PLANS)
        .collect();
    let strings: Vec<String> = plans.iter().map(QueryPlan::to_query_string).collect();
    let pairs: Vec<Vec<(&str, &str)>> = strings
        .iter()
        .map(|s| s.split('&').filter_map(|kv| kv.split_once('=')).collect())
        .collect();
    let parse_ns = median_ns(50, || {
        for p in &pairs {
            black_box(QueryPlan::parse(p.iter().copied()).expect("own plan parses"));
        }
    });
    out.push(("query.parse_ns", parse_ns / plans.len() as f64));

    let open = |budget: u64| -> Result<QueryEngine, String> {
        QueryEngine::open(archive, budget)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "archive has no manifest".to_string())
    };
    let execute_all = |engine: &QueryEngine| -> Result<f64, String> {
        let started = Instant::now();
        for plan in &plans {
            black_box(engine.execute(plan).map_err(|e| e.to_string())?);
        }
        Ok(ns_since(started) / 1e3 / plans.len() as f64)
    };
    let warm = open(1 << 30)?;
    execute_all(&warm)?;
    out.push(("query.execute_hit_us", execute_all(&warm)?));
    drop(warm);
    out.push(("query.execute_miss_us", execute_all(&open(0)?)?));
    Ok(())
}

/// `query.http_floor_us`: a keep-alive `GET /` round trip through the
/// program's HTTP server with a handler that does nothing — what every
/// request pays before any query work.
pub fn http_floor(out: &mut Metrics) -> Result<(), String> {
    let handler: Handler = Arc::new(|_req| Response::json(200, "{}".to_string()));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let server =
        Server::start(listener, 4, QueryMetrics::new(), handler).map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    conn.get("/").map_err(|e| e.to_string())?;
    let mut walls = Vec::with_capacity(FLOOR_ROUND_TRIPS);
    for _ in 0..FLOOR_ROUND_TRIPS {
        let started = Instant::now();
        let (status, _) = conn.get("/").map_err(|e| e.to_string())?;
        walls.push(ns_since(started) / 1e3);
        if status != 200 {
            return Err(format!("floor handler answered {status}"));
        }
    }
    drop(conn);
    server.shutdown(Duration::from_secs(2));
    out.push(("query.http_floor_us", stats::median(&walls)));
    Ok(())
}
