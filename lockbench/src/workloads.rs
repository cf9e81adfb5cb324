//! The six workloads, run untraced: set-up, the measured phase, and the
//! correctness checks that ride on every run.
//!
//! How much a run does is a function of `--seconds` alone (so many passes,
//! so many requests per client, per second asked for), never of how fast
//! the program is: every run of one seed does identical work on either side
//! of a comparison. The constants are sized on the 2-core reference box so
//! that the measured phase lasts about `--seconds`.

use crate::client::{request_sequence, Conn, Planned};
use crate::stats;
use lockdown::app::build_handler;
use lockdown::collect::WireConfig;
use lockdown::core::experiments::suite::{self, SuiteOptions};
use lockdown::core::serve::figure_names;
use lockdown::core::{Context, Fidelity};
use lockdown::query::http::Server;
use lockdown::query::{json as qjson, QueryEngine};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A workload of [`crate::names::WORKLOADS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-memory suite pass.
    SuiteMem,
    /// Suite pass through the wire plane.
    SuiteWire,
    /// Warm suite pass over a covering archive.
    ArchiveReplay,
    /// HTTP serve, cache holds the working set.
    ServeFit,
    /// HTTP serve, cache an eighth of the working set.
    ServeScan,
}

impl Kind {
    /// Every workload, in registry order.
    pub const ALL: [Kind; 5] = [
        Kind::SuiteMem,
        Kind::SuiteWire,
        Kind::ArchiveReplay,
        Kind::ServeFit,
        Kind::ServeScan,
    ];

    /// The registry name ([`Kind::ALL`] is in registry order).
    pub fn name(self) -> &'static str {
        crate::names::WORKLOADS[self as usize].name
    }

    /// Look a workload up by registry name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the measured phase is HTTP serving.
    pub fn is_serve(self) -> bool {
        matches!(self, Kind::ServeFit | Kind::ServeScan)
    }

    /// Whether set-up builds a covering archive.
    pub fn needs_archive(self) -> bool {
        matches!(self, Kind::ArchiveReplay | Kind::ServeFit | Kind::ServeScan)
    }

    /// Decoded-segment cache budget of a serve workload, bytes. The decoded
    /// working set is about 3.54 M flows × 72 B ≈ 255 MB.
    pub fn cache_bytes(self) -> u64 {
        match self {
            Kind::ServeScan => 32 << 20,
            _ => 512 << 20,
        }
    }

    /// Timed passes per second of `--seconds` (batch workloads), from the
    /// pass times on the reference box: 1.3 s, 1.9 s and 0.9 s.
    fn passes_per_second(self) -> f64 {
        match self {
            Kind::SuiteMem => 0.9,
            Kind::SuiteWire => 0.6,
            _ => 1.2,
        }
    }
}

/// Fewest timed passes of a batch workload, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;

/// Requests each client sends per second of `--seconds`: a keep-alive
/// exchange with the program's server takes about 44 ms on the reference
/// box (README.md, "the 40 ms floor").
pub const REQUESTS_PER_CLIENT_PER_SECOND: usize = 22;

/// Every n-th `/query` answer is checked against a direct execution.
pub const QUERY_CHECK_EVERY: usize = 8;

impl Kind {
    /// Set-up repetitions whose median is `setup_s`: three where set-up is
    /// one in-memory pass; one where it also builds the 20 592-file archive,
    /// which takes 7–9 s on the reference box.
    pub fn setup_reps(self) -> usize {
        if self.needs_archive() {
            1
        } else {
            3
        }
    }
}

/// Closed-loop keep-alive clients: two, and never more than the cores
/// present, so the generator does not queue behind itself.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// How much one run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// Timed passes (batch workloads).
    pub passes: usize,
    /// Requests each client sends (serve workloads).
    pub requests_per_client: usize,
    /// Whether the traced run takes the per-layer timings over the cell
    /// sample.
    pub layer_timings: bool,
}

impl Sizes {
    /// Sizes for `seconds` of measuring; `smoke` is the plumbing check (one
    /// of everything, 40 requests, no per-layer timings).
    pub fn new(kind: Kind, seconds: u64, smoke: bool) -> Sizes {
        if smoke {
            return Sizes {
                setup_reps: 1,
                passes: 1,
                requests_per_client: 40 / client_count(),
                layer_timings: false,
            };
        }
        Sizes {
            setup_reps: kind.setup_reps(),
            passes: ((seconds as f64 * kind.passes_per_second()).round() as usize).max(MIN_PASSES),
            requests_per_client: REQUESTS_PER_CLIENT_PER_SECOND * seconds.max(1) as usize,
            layer_timings: true,
        }
    }
}

/// Checks made and failed; the result line's `attempted` and `failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Of those, how many were wrong or did not complete.
    pub failed: u64,
}

impl Checks {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness tally.
    pub checks: Checks,
    /// `(name, value)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed above the result line.
    pub detail: Vec<String>,
    /// Engine worker threads the program used.
    pub workers: usize,
}

/// The state set-up leaves for the measured phase.
pub struct Prepared {
    /// The experiment context built from the seed.
    pub ctx: Arc<Context>,
    /// The 22 reference sections: `suite::run_all(ctx).renders()`.
    pub reference: Vec<String>,
    /// Flows one pass emits.
    pub flows: u64,
    /// Engine worker threads the reference pass used.
    pub workers: usize,
    /// The covering archive, when the workload needs one.
    pub archive: Option<PathBuf>,
    /// Bytes the archive build wrote.
    pub archive_bytes: u64,
}

/// Scratch directory under the build directory, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// `<dir of this executable>/lockbench-work/<pid>`: inside the checkout's
    /// build directory, which version control ignores.
    pub fn create() -> Result<WorkDir, String> {
        let path = WorkDir::base()?.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    /// The directory every run's own scratch directory is made in.
    pub fn base() -> Result<PathBuf, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.parent().ok_or("executable has no directory")?;
        Ok(dir.join("lockbench-work"))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn remove_tree(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` so the peak is the measured phase's, not set-up's. Where
/// the kernel refuses, the peak covers set-up too — on both sides of any
/// comparison alike.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One set-up: context from the seed, the in-memory reference rendering,
/// and the covering archive for the workloads that read one.
pub fn prepare(
    kind: Kind,
    seed: u64,
    work: &Path,
    checks: &mut Checks,
) -> Result<Prepared, String> {
    let ctx = Arc::new(Context::with_seed(Fidelity::Test, seed));
    let reference_suite = suite::run_all(&ctx);
    let reference = reference_suite.renders();
    let mut prepared = Prepared {
        ctx,
        reference,
        flows: reference_suite.stats.flows_emitted,
        workers: reference_suite.stats.workers,
        archive: None,
        archive_bytes: 0,
    };
    if kind.needs_archive() {
        let dir = work.join("archive");
        remove_tree(&dir)?;
        let built = suite::run_all_archived(&prepared.ctx, None, &dir)
            .map_err(|e| format!("archive build: {e}"))?;
        checks.check(built.renders() == prepared.reference);
        prepared.archive_bytes = built
            .store_metrics
            .as_ref()
            .map_or(0, |m| m.bytes_written.get());
        prepared.archive = Some(dir);
    }
    Ok(prepared)
}

/// Set up [`Sizes::setup_reps`] times, keep the last state, and return it
/// with the wall time of each repetition. Tearing a repetition down (the
/// archive's 20 592 files) is not timed.
pub fn prepare_repeated(
    kind: Kind,
    seed: u64,
    work: &Path,
    reps: usize,
    checks: &mut Checks,
) -> Result<(Prepared, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        remove_tree(&work.join("archive"))?;
        let started = Instant::now();
        let prepared = prepare(kind, seed, work, checks)?;
        walls.push(started.elapsed().as_secs_f64());
        last = Some(prepared);
    }
    Ok((last.expect("at least one repetition"), walls))
}

fn timing_detail(what: &str, unit: &str, values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    if values.len() >= 2 {
        let [q1, q2, q3] = stats::quartiles(values);
        let raw: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        format!(
            "{what}: n={} median={q2:.4} q1={q1:.4} q3={q3:.4} min={min:.4} {unit} [{}]",
            values.len(),
            raw.join(" ")
        )
    } else {
        format!("{what}: n=1 value={min:.4} {unit}")
    }
}

/// Run one workload untraced and report every end-to-end metric.
pub fn run(kind: Kind, seed: u64, sizes: Sizes, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (prepared, setup_walls) =
        prepare_repeated(kind, seed, work, sizes.setup_reps, &mut out.checks)?;
    out.workers = prepared.workers;
    out.detail.push(timing_detail("set-up", "s", &setup_walls));
    reset_peak_rss();

    let measured = if kind.is_serve() {
        serve_phase(kind, seed, sizes, &prepared, &mut out)?
    } else {
        batch_phase(kind, sizes, &prepared, &mut out)?
    };
    out.detail.push(format!(
        "peak RSS of the measured phase: {:.1} MiB",
        peak_rss_mb()
    ));
    out.metrics = vec![
        ("flows_per_s", measured.flows_per_s),
        ("latency_ms", measured.latency_ms),
        ("tail_ms", measured.tail_ms),
        ("setup_s", stats::median(&setup_walls)),
    ];
    Ok(out)
}

/// The three timing metrics of a measured phase.
pub struct Measured {
    /// Flows rendered into figures per second.
    pub flows_per_s: f64,
    /// Median latency of one operation, ms.
    pub latency_ms: f64,
    /// Latency at the highest percentile the sample supports, ms.
    pub tail_ms: f64,
}

/// Suite options of a batch workload.
pub fn suite_options(kind: Kind, archive: &Path) -> SuiteOptions {
    SuiteOptions {
        wire: (kind == Kind::SuiteWire).then(WireConfig::new),
        archive: (kind == Kind::ArchiveReplay).then(|| archive.to_path_buf()),
        chaos: None,
    }
}

fn batch_phase(
    kind: Kind,
    sizes: Sizes,
    prepared: &Prepared,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let dir = prepared.archive.clone().unwrap_or_default();
    let mut walls_ms = Vec::with_capacity(sizes.passes);
    for _ in 0..sizes.passes {
        let started = Instant::now();
        let pass = suite::run_all_opts(&prepared.ctx, suite_options(kind, &dir))
            .map_err(|e| format!("{} pass: {e}", kind.name()))?;
        let sections = pass.renders();
        walls_ms.push(started.elapsed().as_secs_f64() * 1e3);

        let mut ok = sections == prepared.reference && pass.stats.flows_emitted == prepared.flows;
        if kind == Kind::ArchiveReplay {
            ok &= pass.stats.cells_generated == 0;
        }
        out.checks.check(ok);
    }
    out.detail.push(timing_detail("pass", "ms", &walls_ms));
    out.detail.push(format!(
        "flows per pass: {} on {} engine workers",
        prepared.flows, prepared.workers
    ));
    if prepared.archive.is_some() {
        out.detail.push(format!(
            "bytes per flow on disk: {}",
            prepared.archive_bytes as f64 / prepared.flows as f64
        ));
    }
    walls_ms.sort_by(f64::total_cmp);
    let median_ms = stats::median(&walls_ms);
    let (tail_pct, tail_ms) = stats::tail(&walls_ms);
    out.detail.push(format!(
        "tail_ms is p{tail_pct} of {} passes",
        walls_ms.len()
    ));
    Ok(Measured {
        flows_per_s: prepared.flows as f64 / (median_ms / 1e3),
        latency_ms: median_ms,
        tail_ms,
    })
}

/// A server under test: the program's own engine, handler and HTTP server,
/// in this process, on an ephemeral loopback port.
pub struct Served {
    /// The engine behind the handler.
    pub engine: Arc<QueryEngine>,
    server: Option<Server>,
}

impl Served {
    /// Open the archive and start serving it.
    pub fn start(archive: &Path, cache_bytes: u64, ctx: &Arc<Context>) -> Result<Served, String> {
        let engine = QueryEngine::open(archive, cache_bytes)
            .map_err(|e| format!("opening archive: {e}"))?
            .ok_or("archive has no manifest")?;
        let engine = Arc::new(engine);
        let handler = build_handler(Arc::clone(&engine), Arc::clone(ctx));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let server = Server::start(listener, 16, Arc::clone(engine.metrics()), handler)
            .map_err(|e| format!("server start: {e}"))?;
        Ok(Served {
            engine,
            server: Some(server),
        })
    }

    /// Address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown(Duration::from_secs(5));
        }
    }
}

/// Fetch the catalog and every figure over one connection, as a user's
/// first visit after a restart does, and check each against the reference
/// byte for byte. Returns the wall time of the fetches.
pub fn first_render(
    addr: SocketAddr,
    reference: &[String],
    checks: &mut Checks,
) -> Result<f64, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let started = Instant::now();
    let (status, body) = conn
        .get("/figures")
        .map_err(|e| format!("GET /figures: {e}"))?;
    let catalog = qjson::string_array(&String::from_utf8_lossy(&body), "figures");
    let mut bodies = Vec::with_capacity(reference.len());
    let names = figure_names();
    for name in &names {
        bodies.push(
            conn.get(&format!("/figures/{name}"))
                .map_err(|e| format!("GET /figures/{name}: {e}"))?,
        );
    }
    let wall = started.elapsed().as_secs_f64();

    checks.check(
        status == 200 && catalog.as_deref() == Some(&names[..]) && names.len() == reference.len(),
    );
    for ((status, body), expected) in bodies.iter().zip(reference) {
        let render = qjson::string_field(&String::from_utf8_lossy(body), "render");
        checks.check(*status == 200 && render.as_deref() == Some(expected.as_str()));
    }
    Ok(wall)
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Latency of every 2xx exchange, ms.
    pub latencies_ms: Vec<f64>,
    /// Exchanges that ended non-2xx or in a transport error.
    pub failed: u64,
    /// `(flows, bytes)` of every `/query` answer, in sequence order; `None`
    /// where the exchange failed.
    pub answers: Vec<Option<(u64, u64)>>,
}

/// Drive one client's fixed sequence, closed loop.
pub fn drive_client(addr: SocketAddr, sequence: &[Planned]) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = None;
    for planned in sequence {
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Conn::connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    log.failed += 1;
                    continue;
                }
            },
        };
        let started = Instant::now();
        let exchange = c.get(&planned.path);
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        match exchange {
            Ok((status, body)) if (200..300).contains(&status) => {
                log.latencies_ms.push(latency_ms);
                if planned.plan.is_some() {
                    let doc = String::from_utf8_lossy(&body);
                    log.answers
                        .push(qjson::u64_field(&doc, "flows").zip(qjson::u64_field(&doc, "bytes")));
                }
            }
            failed => {
                log.failed += 1;
                if failed.is_err() {
                    conn = None;
                }
                if planned.plan.is_some() {
                    log.answers.push(None);
                }
            }
        }
    }
    log
}

/// The load phase's numbers.
pub struct Load {
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Ascending 2xx latencies of all clients, ms.
    pub latencies_ms: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Flows in the archive under the (stream, window) of every `/query`
    /// sent: what the answers had to range over.
    pub offered_flows: u64,
    /// Sum of `flows` over all `/query` answers.
    pub checksum_flows: u64,
    /// Sum of `bytes` over all `/query` answers, modulo 2^53 so that it is
    /// exact as a JSON number.
    pub checksum_bytes: u64,
}

/// Run every client's fixed sequence against `served`, closed loop, then
/// check a sample of `/query` answers against direct executions on an
/// engine of their own.
pub fn load_phase(
    served: &Served,
    archive: &Path,
    seed: u64,
    requests_per_client: usize,
    checks: &mut Checks,
) -> Result<Load, String> {
    let addr = served.addr();
    let names = figure_names();
    let sequences: Vec<Vec<Planned>> = (0..client_count())
        .map(|c| request_sequence(seed, c, client_count(), requests_per_client, &names))
        .collect();
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .map(|seq| scope.spawn(move || drive_client(addr, seq)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let verifier = QueryEngine::open(archive, lockdown::query::engine::DEFAULT_CACHE_BYTES)
        .map_err(|e| format!("opening archive: {e}"))?
        .ok_or("archive has no manifest")?;
    let mut load = Load {
        wall_s,
        latencies_ms: Vec::new(),
        requests: 0,
        offered_flows: 0,
        checksum_flows: 0,
        checksum_bytes: 0,
    };
    for (seq, log) in sequences.iter().zip(&logs) {
        load.requests += seq.len() as u64;
        checks.attempted += seq.len() as u64;
        checks.failed += log.failed;
        load.latencies_ms.extend(&log.latencies_ms);
        let plans = seq.iter().filter_map(|p| p.plan);
        for (i, (plan, answer)) in plans.zip(&log.answers).enumerate() {
            let window = plan.time_range();
            load.offered_flows += verifier
                .reader()
                .segments()
                .filter(|m| plan.stream == Some(m.cell.stream) && window.admits_meta(m))
                .map(|m| m.records)
                .sum::<u64>();
            // A 2xx answer without the two fields is a wrong answer.
            let Some((flows, bytes)) = *answer else {
                checks.check(false);
                continue;
            };
            load.checksum_flows += flows;
            load.checksum_bytes = load.checksum_bytes.wrapping_add(bytes) % (1 << 53);
            if i % QUERY_CHECK_EVERY == 0 {
                let direct = verifier
                    .execute(&plan)
                    .map_err(|e| format!("direct execution: {e}"))?;
                checks.check((direct.flows, direct.bytes) == (flows, bytes));
            }
        }
    }
    load.latencies_ms.sort_by(f64::total_cmp);
    Ok(load)
}

fn serve_phase(
    kind: Kind,
    seed: u64,
    sizes: Sizes,
    prepared: &Prepared,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let archive = prepared.archive.as_deref().expect("serve needs an archive");
    // One cold start: every figure is fetched once and byte-checked, as a
    // user's first visit after a restart does. Its time is reported but not
    // gated: it is one sample, and on the reference box a second or more of
    // it is page faults on 220 MB of fresh heap, which vary by a quarter
    // from run to run (README.md, "first render").
    let served = Served::start(archive, kind.cache_bytes(), &prepared.ctx)?;
    let first_render_s = first_render(served.addr(), &prepared.reference, &mut out.checks)?;
    let load = load_phase(
        &served,
        archive,
        seed,
        sizes.requests_per_client,
        &mut out.checks,
    )?;
    if load.latencies_ms.is_empty() {
        return Err("no request succeeded".into());
    }
    let (tail_pct, tail_ms) = stats::tail(&load.latencies_ms);
    out.detail.push(format!(
        "first render of 22 figures over HTTP, cold: {first_render_s:.4} s"
    ));
    out.detail.push(format!(
        "load: {} requests from {} closed-loop clients in {:.3} s = {:.1} req/s; {} 2xx samples; tail_ms is p{tail_pct}",
        load.requests,
        client_count(),
        load.wall_s,
        load.requests as f64 / load.wall_s,
        load.latencies_ms.len()
    ));
    out.detail.push(format!(
        "queries ranged over {} archived flows; serve.checksum: flows={} bytes={} (equal on serve_fit and serve_scan for one seed)",
        load.offered_flows, load.checksum_flows, load.checksum_bytes
    ));
    out.detail.push(format!(
        "archive: {} flows, {} bytes, cache budget {} MiB",
        prepared.flows,
        prepared.archive_bytes,
        kind.cache_bytes() >> 20
    ));
    Ok(Measured {
        flows_per_s: load.offered_flows as f64 / load.wall_s,
        latency_ms: stats::median(&load.latencies_ms),
        tail_ms,
    })
}
