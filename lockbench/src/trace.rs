//! The traced run: one pass of a workload driven from here, single-threaded,
//! with a span around every call into the program, plus the per-layer
//! timings of [`crate::layers`].
//!
//! The pass goes through `core::serve::render_figure` for the 22 figures
//! with this module's own `fetch` closure making the stage calls the
//! workload implies — `traffic.generate_cell`, then `collect.process_cell`
//! on the wire workload; `store.read_cell` on replay; `query.read_cell` on
//! the serve workloads — so spans nest workload → figure → cell → stage and
//! `render_figure`'s self time is the consumer fan-out, finish and render.
//! Cells are memoised so each is produced once, as in the engine; on the
//! serve workloads the engine's own segment cache is the memo, as it is
//! behind the real handler. The archive workloads' set-up is traced too
//! (`traffic.generate_cell` → `store.spill` per cell, then `store.finish`),
//! which is where the store's write path shows.
//!
//! End-to-end metrics never come from here: spans cost time, and the pass is
//! shaped differently from the engine's. `trace.coverage` says how much of
//! the untraced pass the spans account for.

use crate::layers::{self, Metrics};
use crate::names::PER_LAYER;
use crate::span::{self_times, Recorder};
use crate::stats;
use crate::workloads::{
    client_count, first_render, load_phase, peak_rss_mb, reset_peak_rss, suite_options, Checks,
    Kind, Outcome, Served, Sizes,
};
use lockdown::collect::{CollectionPlane, WireConfig};
use lockdown::core::experiments::suite;
use lockdown::core::serve::{figure_names, render_figure};
use lockdown::core::{Context, Fidelity};
use lockdown::flow::record::FlowRecord;
use lockdown::query::QueryEngine;
use lockdown::store::{ArchiveReader, ArchiveWriter, StoreError, StoreMetrics};
use lockdown::traffic::plan::{Cell, TraceEmitter};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Span names.
const SPAN_PASS: &str = "pass";
const SPAN_SETUP: &str = "setup";
const SPAN_FIGURE: &str = "core.render_figure";
const SPAN_CELL: &str = "cell";
const SPAN_GENERATE: &str = "traffic.generate_cell";
const SPAN_WIRE: &str = "collect.process_cell";
const SPAN_SPILL: &str = "store.spill";
const SPAN_FINISH: &str = "store.finish";
const SPAN_READ: &str = "store.read_cell";
const SPAN_QUERY_READ: &str = "query.read_cell";

/// The stages of a pass: span name, then the names its self time is
/// reported under, per flow and as a share of the pass.
const STAGES: [(&str, &str, &str); 5] = [
    (
        SPAN_GENERATE,
        "trace.generate_ns_per_flow",
        "trace.generate_share",
    ),
    (SPAN_WIRE, "trace.wire_ns_per_flow", "trace.wire_share"),
    (SPAN_READ, "trace.read_ns_per_flow", "trace.read_share"),
    (
        SPAN_QUERY_READ,
        "trace.query_read_ns_per_flow",
        "trace.query_read_share",
    ),
    (
        SPAN_FIGURE,
        "trace.render_self_ns_per_flow",
        "trace.render_self_share",
    ),
];

/// Where the traced pass gets a cell's flows.
enum Source {
    Generate,
    Wire(CollectionPlane),
    Reader(ArchiveReader),
    Engine(QueryEngine),
}

/// Build the covering archive cell by cell under spans: the set-up of the
/// archive workloads, and the only place the store's write path runs.
fn traced_build(
    ctx: &Context,
    cells: &[Cell],
    dir: &Path,
    rec: &mut Recorder,
) -> Result<u64, String> {
    let emitter =
        TraceEmitter::with_scenario(&ctx.registry, &ctx.corpus, ctx.config, &ctx.scenario);
    let metrics = StoreMetrics::new();
    let writer = ArchiveWriter::create(dir, layers::store_key(ctx), Arc::clone(&metrics))
        .map_err(|e| e.to_string())?;
    rec.enter(SPAN_SETUP);
    let mut flows = Vec::new();
    for &cell in cells {
        rec.enter(SPAN_CELL);
        rec.enter(SPAN_GENERATE);
        emitter.generate_cell(cell, &mut flows);
        rec.exit();
        rec.enter(SPAN_SPILL);
        let spilled = writer.spill(cell, &flows);
        rec.exit();
        rec.exit();
        spilled.map_err(|e| e.to_string())?;
    }
    rec.enter(SPAN_FINISH);
    let finished = writer.finish();
    rec.exit();
    rec.exit();
    finished.map_err(|e| e.to_string())?;
    Ok(metrics.bytes_written.get())
}

/// Drive the 22 figures through `render_figure` under spans; returns the
/// sections and the flows fetched.
fn traced_pass(
    ctx: &Context,
    source: &Source,
    rec: &mut Recorder,
) -> Result<(Vec<String>, u64), String> {
    let emitter =
        TraceEmitter::with_scenario(&ctx.registry, &ctx.corpus, ctx.config, &ctx.scenario);
    let mut memo: HashMap<Cell, Arc<Vec<FlowRecord>>> = HashMap::new();
    let mut fetched = 0u64;
    let mut sections = Vec::new();
    rec.enter(SPAN_PASS);
    for name in figure_names() {
        rec.enter(SPAN_FIGURE);
        let mut fetch = |cell: Cell| -> Result<Arc<Vec<FlowRecord>>, StoreError> {
            if let Some(hit) = memo.get(&cell) {
                return Ok(Arc::clone(hit));
            }
            rec.enter(SPAN_CELL);
            let records = match source {
                Source::Generate | Source::Wire(_) => {
                    let mut flows = Vec::new();
                    rec.enter(SPAN_GENERATE);
                    emitter.generate_cell(cell, &mut flows);
                    rec.exit();
                    if let Source::Wire(plane) = source {
                        rec.enter(SPAN_WIRE);
                        flows = plane.process_cell(cell, &flows);
                        rec.exit();
                    }
                    Ok(Arc::new(flows))
                }
                Source::Reader(reader) => {
                    rec.enter(SPAN_READ);
                    let read = reader.read_cell(cell).map(Arc::new);
                    rec.exit();
                    read
                }
                Source::Engine(engine) => {
                    rec.enter(SPAN_QUERY_READ);
                    let read = engine.read_cell(cell);
                    rec.exit();
                    read
                }
            };
            rec.exit();
            let records = records?;
            fetched += records.len() as u64;
            if !matches!(source, Source::Engine(_)) {
                memo.insert(cell, Arc::clone(&records));
            }
            Ok(records)
        };
        let rendered = render_figure(ctx, &name, &mut fetch);
        rec.exit();
        sections.push(rendered.map_err(|e| format!("{name}: {e}"))?);
    }
    rec.exit();
    Ok((sections, fetched))
}

/// Cost of one enter/exit pair, nanoseconds, measured on a scratch
/// recorder.
fn span_cost_ns() -> f64 {
    const PAIRS: usize = 200_000;
    let mut scratch = Recorder::new();
    let started = Instant::now();
    for _ in 0..PAIRS {
        scratch.enter(SPAN_CELL);
        scratch.exit();
    }
    started.elapsed().as_nanos() as f64 / PAIRS as f64
}

/// The untraced pass `trace.coverage` is measured against, on a batch
/// workload: one engine pass. Wall time in seconds and the threads busy in
/// it.
fn untraced_batch_pass(
    kind: Kind,
    ctx: &Context,
    archive: Option<&Path>,
    reference: &[String],
    checks: &mut Checks,
) -> Result<(f64, usize), String> {
    let dir = archive.map(Path::to_path_buf).unwrap_or_default();
    let started = Instant::now();
    let pass = suite::run_all_opts(ctx, suite_options(kind, &dir)).map_err(|e| e.to_string())?;
    let sections = pass.renders();
    let wall = started.elapsed().as_secs_f64();
    let mut ok = sections == reference;
    if kind == Kind::ArchiveReplay {
        ok &= pass.stats.cells_generated == 0;
    }
    checks.check(ok);
    Ok((wall, pass.stats.workers))
}

/// The untraced phases of a serve workload: one cold start and first render
/// over HTTP (the pass `trace.coverage` is measured against; one connection,
/// so one busy thread), then the load phase — `load` is its seed and its
/// requests per client — on the same server, for the counters only the
/// program's own metrics carry.
fn untraced_serve_phases(
    kind: Kind,
    load: (u64, usize),
    ctx: &Arc<Context>,
    archive: &Path,
    reference: &[String],
    out: &mut Outcome,
    m: &mut Metrics,
) -> Result<(f64, usize), String> {
    let (seed, requests_per_client) = load;
    let served = Served::start(archive, kind.cache_bytes(), ctx)?;
    let first_render_s = first_render(served.addr(), reference, &mut out.checks)?;

    let qm = Arc::clone(served.engine.metrics());
    let counters = || {
        [
            qm.cache_hits.get(),
            qm.cache_misses.get(),
            qm.segments_pruned.get(),
            qm.segments_scanned.get(),
            qm.segments_decoded.get(),
        ]
    };
    let before = counters();
    let load = load_phase(&served, archive, seed, requests_per_client, &mut out.checks)?;
    let [hits, misses, pruned, scanned, decoded] =
        std::array::from_fn(|i| (counters()[i] - before[i]) as f64);
    m.push(("query.cache_hit_ratio", hits / (hits + misses).max(1.0)));
    m.push(("query.pruned_share", pruned / (pruned + scanned).max(1.0)));
    m.push((
        "query.decoded_per_request",
        decoded / load.requests.max(1) as f64,
    ));
    m.push(("serve.requests_per_s", load.requests as f64 / load.wall_s));
    if !load.latencies_ms.is_empty() {
        m.push(("serve.p50_ms", stats::median(&load.latencies_ms)));
        m.push(("serve.tail_ms", stats::tail(&load.latencies_ms).1));
    }
    m.push(("serve.checksum_flows", load.checksum_flows as f64));
    m.push(("serve.checksum_bytes", load.checksum_bytes as f64));
    out.detail.push(format!(
        "load: {} requests from {} clients in {:.3} s; serve.checksum flows={} bytes={}",
        load.requests,
        client_count(),
        load.wall_s,
        load.checksum_flows,
        load.checksum_bytes
    ));
    Ok((first_render_s, 1))
}

/// Where the span file of a workload goes: beside the work directory, so it
/// outlives the run.
fn trace_file(work: &Path, kind: Kind) -> PathBuf {
    work.parent()
        .unwrap_or(work)
        .join(format!("trace-{}.jsonl", kind.name()))
}

/// Run one workload traced and report every per-layer metric.
pub fn run(kind: Kind, seed: u64, sizes: Sizes, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut m: Metrics = Vec::new();

    let ctx = Arc::new(Context::with_seed(Fidelity::Test, seed));
    let reference_suite = suite::run_all(&ctx);
    let reference = reference_suite.renders();
    let flows = reference_suite.stats.flows_emitted;
    out.workers = reference_suite.stats.workers;
    let cells = layers::suite_cells(&ctx);
    m.push(("traffic.cells", cells.len() as f64));
    m.push(("traffic.flows", flows as f64));

    let mut rec = Recorder::new();
    let archive_dir = work.join("archive");
    let mut archive_bytes = 0;
    if kind.needs_archive() {
        archive_bytes = traced_build(&ctx, &cells, &archive_dir, &mut rec)?;
    }
    let archive = kind.needs_archive().then_some(archive_dir.as_path());

    // Peak RSS is taken over the untraced phases only: the traced pass
    // memoises every cell, which the program never does.
    reset_peak_rss();
    let (pass_s, busy_threads) = match archive.filter(|_| kind.is_serve()) {
        Some(archive) => untraced_serve_phases(
            kind,
            (seed, sizes.requests_per_client),
            &ctx,
            archive,
            &reference,
            &mut out,
            &mut m,
        )?,
        None => untraced_batch_pass(kind, &ctx, archive, &reference, &mut out.checks)?,
    };
    m.push(("proc.peak_rss_mb", peak_rss_mb()));
    m.push(("trace.pass_ms", pass_s * 1e3));

    let open_reader = || -> Result<ArchiveReader, String> {
        ArchiveReader::open(&archive_dir, StoreMetrics::new())
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "archive has no manifest".to_string())
    };
    let source = match kind {
        Kind::SuiteMem => Source::Generate,
        Kind::SuiteWire => Source::Wire(CollectionPlane::new(WireConfig::new())),
        Kind::ArchiveReplay => Source::Reader(open_reader()?),
        Kind::ServeFit | Kind::ServeScan => Source::Engine(
            QueryEngine::open(&archive_dir, kind.cache_bytes())
                .map_err(|e| e.to_string())?
                .ok_or("archive has no manifest")?,
        ),
    };
    let (sections, fetched) = traced_pass(&ctx, &source, &mut rec)?;
    drop(source);
    out.checks.check(sections == reference);

    // The layer table: self time per span name inside the pass.
    let spans = rec.spans();
    let pass_root = spans
        .iter()
        .rposition(|s| s.name == SPAN_PASS)
        .expect("the pass was traced");
    let pass_total_ns = (spans[pass_root].end_ns - spans[pass_root].start_ns) as f64;
    let selfs = self_times(spans);
    // Self time of every span named `name` from the pass root on (the pass)
    // or before it (the traced set-up).
    let self_ns = |in_pass: bool, name: &str| -> f64 {
        let range = if in_pass {
            pass_root..spans.len()
        } else {
            0..pass_root
        };
        range
            .filter(|&i| spans[i].name == name)
            .map(|i| selfs[i])
            .sum::<u64>() as f64
    };
    let stage = |name: &str| self_ns(true, name);
    let per_flow = flows.max(1) as f64;
    out.detail.push(format!(
        "layer table ({}: traced pass {:.1} ms on one thread, untraced {:.1} ms on {busy_threads}; {fetched} flows fetched):",
        kind.name(),
        pass_total_ns / 1e6,
        pass_s * 1e3
    ));
    for (span, ns_name, share_name) in STAGES {
        let ns = stage(span);
        m.push((ns_name, ns / per_flow));
        m.push((share_name, ns / pass_total_ns));
        out.detail.push(format!(
            "  {span:<24} {:>9.1} ns/flow {:>6.1}% of the pass",
            ns / per_flow,
            100.0 * ns / pass_total_ns
        ));
    }
    m.push(("core.render_self_ms", stage(SPAN_FIGURE) / 1e6));
    m.push((
        "trace.coverage",
        pass_total_ns / 1e9 / (pass_s * busy_threads as f64),
    ));
    m.push((
        "trace.overhead_share",
        span_cost_ns() * (spans.len() - pass_root) as f64 / pass_total_ns,
    ));

    // The traced set-up of the archive workloads.
    if archive.is_some() {
        let spill_ns = self_ns(false, SPAN_SPILL);
        m.push(("trace.spill_ns_per_flow", spill_ns / per_flow));
        m.push(("store.finish_ms", self_ns(false, SPAN_FINISH) / 1e6));
        out.detail.push(format!(
            "  {SPAN_SPILL:<24} {:>9.1} ns/flow (set-up: the archive build)",
            spill_ns / per_flow
        ));
        let mut opens = Vec::new();
        let mut segments = 0;
        for _ in 0..3 {
            let started = Instant::now();
            segments = open_reader()?.segment_count();
            opens.push(started.elapsed().as_secs_f64() * 1e3);
        }
        m.push(("store.open_ms", stats::median(&opens)));
        m.push(("store.segments", segments as f64));
        m.push(("store.replay_mb_per_s", archive_bytes as f64 / 1e6 / pass_s));
    }
    rec.write_jsonl(&trace_file(work, kind))
        .map_err(|e| format!("writing spans: {e}"))?;
    out.detail.push(format!(
        "spans: {} written to {}",
        spans.len(),
        trace_file(work, kind).display()
    ));
    drop(rec);

    // Per-layer timings over the cell sample. The smoke run skips them: it
    // checks plumbing, and they are the same code on every workload.
    if sizes.layer_timings {
        let sample = layers::sample(&ctx, &cells, &mut m);
        layers::core_and_scenario(&ctx, &reference_suite, &sample, &mut m);
        layers::flow_codecs(&sample, &mut m);
        layers::collect(&sample, &mut m);
        layers::topology_and_analysis(&ctx, &sample, &mut m);
        layers::store(&ctx, &sample, &work.join("sample-archive"), &mut m)?;
        if let Some(archive) = archive {
            layers::query(archive, seed, &mut m)?;
        }
        layers::http_floor(&mut m)?;
        out.detail.push(format!(
            "layer timings over {} of {} cells, {} flows",
            sample.cells.len(),
            cells.len(),
            sample.flows
        ));
    }

    // Every registered name, in registry order; a layer the workload does
    // not run reads zero.
    out.metrics = PER_LAYER
        .iter()
        .map(|l| {
            let value = m
                .iter()
                .find(|(n, _)| *n == l.name)
                .map_or(0.0, |(_, v)| *v);
            (l.name, value)
        })
        .collect();
    debug_assert!(m
        .iter()
        .all(|(n, _)| PER_LAYER.iter().any(|l| l.name == *n)));
    Ok(out)
}
