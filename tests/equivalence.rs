//! The byte-identity invariant, asserted once.
//!
//! Every figure is byte-identical however its flows reached the
//! consumers: in process, over the wire plane, out of an archive, across
//! shard workers (through a hostile wire included), from the serving
//! path, from the CLI. [`reference`] is the in-process suite, computed
//! once; [`PATHS`] lists every other way the 22 sections are produced.
//! Each row runs once, here: its sections are compared to the reference
//! one by one, and what only that path can show (stats, audit, adoption,
//! reconnect counts) is asserted inside the row. The other test files
//! compare a path to itself (cold vs warm, run vs re-run) or check
//! degraded outcomes; none of them computes the reference again.

mod common;

use common::{assert_named_degraded, coordinate, ctx};
use lockdown::base::fault::{
    FaultProfile as ChaosConfig, FaultProfile as WireChaosConfig, Schedule as ChaosInjector,
};
use lockdown::collect::WireConfig;
use lockdown::core::engine::EngineStats;
use lockdown::core::experiments::figures;
use lockdown::core::experiments::suite::{
    self, suite_shard_cell_count, ShardSuiteOptions, Suite, SuiteOptions,
};
use lockdown::core::serve::{figure_names, render_figure};
use lockdown::core::{run_matrix, Context, Fidelity, MatrixOptions, MatrixScenario};
use lockdown::query::QueryEngine;
use lockdown::scenario::measures::ScenarioSpec;
use lockdown::shard::coord::{chunk_ranges, CoordOptions, Coordinated, CHUNKS_PER_WORKER};
use lockdown::shard::worker::WorkerExit;
use lockdown::store::{
    ArchiveReader, SegmentMeta, StoreMetrics, JOURNAL_NAME, MANIFEST_NAME, PACKS_DIR,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// What a pass rendered and what it did.
struct Pass {
    renders: Vec<String>,
    stats: EngineStats,
}

impl Pass {
    fn of(suite: &Suite) -> Pass {
        Pass {
            renders: suite.renders(),
            stats: suite.stats,
        }
    }
}

/// The scenario a row runs under, hence which reference it is held to.
#[derive(Clone, Copy)]
enum Calibration {
    /// The default calibration, the shipped `scenarios/covid-spring-2020.toml`.
    Builtin,
    /// The shipped counterfactual, `scenarios/hypergiant-outage.toml`.
    Outage,
}

fn shipped(name: &str) -> ScenarioSpec {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    ScenarioSpec::parse_toml(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The context `lockdown figures --scenario scenarios/<file>` builds.
fn under_file(file: &str) -> Context {
    Context::with_scenario(Fidelity::Test, 0x10CD_2020, shipped(file))
}

/// The reference: the in-process, in-memory suite, computed once per
/// calibration. Its supervisor, like every pass's, ran with zero chaos.
fn reference(calibration: Calibration) -> &'static Pass {
    static REFERENCES: [OnceLock<Pass>; 2] = [OnceLock::new(), OnceLock::new()];
    REFERENCES[calibration as usize].get_or_init(|| {
        let suite = suite::run_all(&match calibration {
            Calibration::Builtin => ctx(),
            Calibration::Outage => under_file("hypergiant-outage.toml"),
        });
        assert_unfaulted(&suite);
        Pass::of(&suite)
    })
}

/// Supervision is free when chaos is off: nothing retried, nothing lost.
fn assert_unfaulted(supervised: &Suite) {
    assert_eq!(supervised.stats.cells_quarantined, 0);
    assert_eq!(supervised.stats.retries, 0);
    assert!(supervised.degraded.is_none());
}

/// One way of producing the sections, given a scratch directory the rows
/// share. `None`: the path ended in the named degraded outcome its
/// contract allows instead (only the random-truncation row may).
type Produce = fn(&Path) -> Option<Vec<String>>;

/// Every path, in running order: rows that read the shared archive come
/// after the row that writes it.
#[rustfmt::skip] // a table: one row per line
const PATHS: &[(&str, Calibration, Produce)] = &[
    ("figures::select of every name", Calibration::Builtin, select_every_name),
    ("wire, zero faults", Calibration::Builtin, wire_zero_faults),
    ("archive, cold", Calibration::Builtin, archive_cold),
    ("archive, warm", Calibration::Builtin, archive_warm),
    ("serve::render_figure over a QueryEngine", Calibration::Builtin, served_from_the_archive),
    ("archive, resumed from the journal", Calibration::Builtin, resumed_from_journal),
    ("matrix lane 0", Calibration::Builtin, matrix_lane_0),
    ("matrix lane 1", Calibration::Outage, matrix_lane_1),
    ("coordinate, 3 workers, cold archive", Calibration::Builtin, coordinate_cold),
    ("coordinate, 2 workers, warm over the adopted archive", Calibration::Builtin, coordinate_warm),
    ("single process, warm over the adopted archive", Calibration::Builtin, adopted_archive_replays),
    ("coordinate, seeded worker kill", Calibration::Builtin, coordinate_worker_kill),
    ("coordinate through a zero-chaos proxy", Calibration::Builtin, proxy_passthrough),
    ("coordinate through a proxy splitting every write", Calibration::Builtin, proxy_split_writes),
    ("coordinate through a proxy adding latency", Calibration::Builtin, proxy_added_latency),
    ("coordinate through a proxy cutting a frame", Calibration::Builtin, proxy_mid_frame_cut),
    ("coordinate through a proxy truncating at random", Calibration::Builtin, proxy_random_truncation),
    ("`lockdown figures` stdout", Calibration::Builtin, figures_process_stdout),
];

#[test]
fn every_path_reproduces_the_reference() {
    let scratch = std::env::temp_dir().join(format!("lockdown-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let names = figure_names();
    for (path, calibration, produce) in PATHS {
        eprintln!("path: {path}");
        let Some(sections) = produce(&scratch) else {
            continue;
        };
        let expected = &reference(*calibration).renders;
        assert_eq!(names.len(), expected.len(), "catalog covers every section");
        assert_eq!(sections.len(), expected.len(), "{path}: section count");
        for ((name, got), want) in names.iter().zip(&sections).zip(expected) {
            assert_eq!(got, want, "{path}: section {name} differs");
        }
    }
    std::fs::remove_dir_all(&scratch).expect("cleanup");
}

// --- one process, one pass ---------------------------------------------------

fn run(opts: SuiteOptions) -> Suite {
    suite::run_all_opts(&ctx(), opts).expect("suite pass")
}

fn select_every_name(_: &Path) -> Option<Vec<String>> {
    // Given in reverse on purpose: sections render in table order.
    let mut names = figures::selectable_names();
    names.reverse();
    let selected = figures::select(&names).expect("table names select");
    let suite = suite::run_figures(&ctx(), selected, SuiteOptions::default()).expect("pass");
    Some(suite.renders())
}

fn wire_zero_faults(_: &Path) -> Option<Vec<String>> {
    let wired = run(SuiteOptions {
        wire: Some(WireConfig::new()),
        ..Default::default()
    });
    assert_eq!(wired.stats, reference(Calibration::Builtin).stats);
    assert_unfaulted(&wired);
    assert_audit_clean(&wired);
    Some(wired.renders())
}

/// The audit closed every identity over a pass that dropped nothing.
fn assert_audit_clean(wired: &Suite) {
    let audit = wired.audit.as_ref().expect("every wire pass audits");
    assert!(
        audit.is_clean(),
        "zero-fault suite violated conservation:\n{}",
        audit.render()
    );
    assert!(audit.cells > 0, "audit must have covered the pass");
    let m = wired.wire_metrics.as_ref().expect("wire metrics present");
    assert_eq!(m.audit_violations.get(), 0);
    assert!(m.audit_cells.get() > 0);
    assert_eq!(m.transport_datagrams_dropped.get(), 0);
    assert_eq!(m.collector_records_lost_est.get(), 0);
    assert_eq!(
        m.engine_flows_wired.get(),
        m.engine_flows_delivered.get(),
        "zero faults deliver every flow"
    );
}

// --- the archive ---------------------------------------------------------------

fn archive(scratch: &Path) -> PathBuf {
    scratch.join("archive")
}

/// The manifest entries of the shared archive.
fn manifest(dir: &Path) -> Vec<SegmentMeta> {
    let reader = ArchiveReader::open(dir, StoreMetrics::new())
        .expect("manifest decodes")
        .expect("manifest present");
    reader.segments().copied().collect()
}

fn archive_cold(scratch: &Path) -> Option<Vec<String>> {
    let dir = archive(scratch);
    let cold = suite::run_all_archived(&ctx(), None, &dir).expect("cold suite");
    assert!(cold.stats.cells_generated > 0);
    assert_eq!(cold.stats.cells_replayed, 0);
    // One pack per (stream, day) the manifest names, and no other file.
    let metas = manifest(&dir);
    assert_eq!(metas.len() as u64, cold.stats.cells_generated);
    let days: std::collections::BTreeSet<_> =
        metas.iter().map(|m| (m.cell.stream, m.cell.date)).collect();
    let named: std::collections::BTreeSet<_> = metas.iter().map(SegmentMeta::pack_name).collect();
    assert_eq!(named.len(), days.len());
    let on_disk: std::collections::BTreeSet<_> = std::fs::read_dir(dir.join(PACKS_DIR))
        .expect("packs dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf8")
        })
        .collect();
    assert_eq!(on_disk, named);
    Some(cold.renders())
}

/// A pass over a covering archive generated nothing and replayed every
/// cell the reference generated.
fn assert_warm(stats: &EngineStats) {
    assert_eq!(stats.cells_generated, 0, "warm suite generates nothing");
    assert_eq!(
        stats.cells_replayed,
        reference(Calibration::Builtin).stats.cells_generated
    );
}

fn archive_warm(scratch: &Path) -> Option<Vec<String>> {
    let warm = suite::run_all_archived(&ctx(), None, &archive(scratch)).expect("warm suite");
    assert_warm(&warm.stats);
    Some(warm.renders())
}

fn served_from_the_archive(scratch: &Path) -> Option<Vec<String>> {
    let engine = QueryEngine::open(&archive(scratch), 256 * 1024 * 1024)
        .expect("archive opens")
        .expect("archive has a manifest");
    let ctx = ctx();
    let mut fetch = |cell| engine.read_cell(cell);
    let served = figure_names().into_iter().map(|name| {
        render_figure(&ctx, &name, &mut fetch).unwrap_or_else(|e| panic!("serving {name}: {e}"))
    });
    Some(served.collect())
}

fn resumed_from_journal(scratch: &Path) -> Option<Vec<String>> {
    // A kill between the last checkpoint and manifest publication: the
    // journal holds what the manifest held (the encodings are the same,
    // so a rename builds the state exactly) and the tail of one day pack
    // never hit the disk — which costs exactly the cells whose ranges
    // end past the cut.
    let dir = archive(scratch);
    let metas = manifest(&dir);
    std::fs::rename(dir.join(MANIFEST_NAME), dir.join(JOURNAL_NAME)).expect("fake the kill");
    let pack = metas[metas.len() / 2].pack_name();
    let in_pack: Vec<&SegmentMeta> = metas.iter().filter(|m| m.pack_name() == pack).collect();
    let cut = in_pack.iter().map(|m| m.len).sum::<u64>() / 2;
    let killed = in_pack.iter().filter(|m| m.offset + m.len > cut).count();
    assert!(killed > 0 && killed < in_pack.len());
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(PACKS_DIR).join(&pack))
        .expect("open the pack")
        .set_len(cut)
        .expect("cut the pack");
    let resumed = run(SuiteOptions {
        archive: Some(dir),
        ..Default::default()
    });
    let total = reference(Calibration::Builtin).stats.cells_generated;
    assert_eq!(resumed.stats.cells_generated, killed as u64);
    assert_eq!(resumed.stats.cells_resumed, total - killed as u64);
    Some(resumed.renders())
}

// --- the scenario matrix -------------------------------------------------------

/// One two-lane sweep, shared by both lane rows.
fn matrix_lanes() -> &'static [Pass; 2] {
    static LANES: OnceLock<[Pass; 2]> = OnceLock::new();
    LANES.get_or_init(|| {
        let lane = |label: &str, file: &str| MatrixScenario {
            label: label.into(),
            spec: shipped(file),
        };
        let run = run_matrix(
            &ctx(),
            vec![
                lane("covid", "covid-spring-2020.toml"),
                lane("outage", "hypergiant-outage.toml"),
            ],
            MatrixOptions::default(),
        )
        .expect("archive-free matrix cannot fail");
        let lanes = [Pass::of(&run.runs[0].suite), Pass::of(&run.runs[1].suite)];
        // The counterfactual lane diverges, and the totals are the sum.
        assert_ne!(lanes[0].renders, lanes[1].renders);
        assert_eq!(run.stats.scenarios, 2);
        assert_eq!(
            run.stats.cells_generated,
            lanes[0].stats.cells_generated + lanes[1].stats.cells_generated
        );
        assert_eq!(run.stats.cells_replayed, 0);
        assert_eq!(
            run.stats.flows_emitted,
            lanes[0].stats.flows_emitted + lanes[1].stats.flows_emitted
        );
        let report = run.diff_report();
        assert!(report.contains("sections differ"), "{report}");
        lanes
    })
}

/// A lane is a plain pass of its scenario: same sections, same stats.
fn matrix_lane(lane: usize, calibration: Calibration) -> Option<Vec<String>> {
    let pass = &matrix_lanes()[lane];
    assert_eq!(pass.stats, reference(calibration).stats);
    Some(pass.renders.clone())
}

fn matrix_lane_0(_: &Path) -> Option<Vec<String>> {
    matrix_lane(0, Calibration::Builtin)
}

fn matrix_lane_1(_: &Path) -> Option<Vec<String>> {
    matrix_lane(1, Calibration::Outage)
}

// --- shard workers ---------------------------------------------------------------

fn adopted(scratch: &Path) -> CoordOptions {
    CoordOptions {
        suite: ShardSuiteOptions {
            archive: Some(scratch.join("adopted")),
            ..ShardSuiteOptions::default()
        },
        ..CoordOptions::default()
    }
}

fn coordinate_cold(scratch: &Path) -> Option<Vec<String>> {
    // Three workers generate disjoint ranges and spill segments; the
    // coordinator adopts them all into one manifest.
    let (cold, exits) = coordinate("shard/cold", adopted(scratch), 3, |_| None);
    assert!(
        exits.iter().all(|e| *e == WorkerExit::Shutdown),
        "{exits:?}"
    );
    assert_eq!(cold.stats.workers, 3);
    assert!(cold.suite.degraded.is_none());
    assert_eq!(cold.stats.reassignments, 0);
    assert!(cold.suite.stats.cells_generated > 0);
    assert_eq!(cold.suite.stats.cells_replayed, 0);
    Some(cold.suite.renders())
}

fn coordinate_warm(scratch: &Path) -> Option<Vec<String>> {
    // The adopted manifest covers the whole plan, so a re-run — with a
    // different worker count, even — regenerates zero cells.
    let (warm, _) = coordinate("shard/warm", adopted(scratch), 2, |_| None);
    assert_warm(&warm.suite.stats);
    Some(warm.suite.renders())
}

fn adopted_archive_replays(scratch: &Path) -> Option<Vec<String>> {
    let dir = adopted(scratch).suite.archive.expect("archived");
    let warm = suite::run_all_archived(&ctx(), None, &dir).expect("warm suite");
    assert_warm(&warm.stats);
    Some(warm.renders())
}

/// A chaos seed where, on this plan's ranges, at least one first attempt
/// is killed, no second attempt fails, and at most `workers - 1` workers
/// die — so the pass must reassign and still complete cleanly.
fn seed_with_survivable_kills(cells: usize, workers: usize, cpw: usize) -> ChaosConfig {
    let ranges = chunk_ranges(cells, workers, cpw);
    for seed in 0..10_000 {
        let mut cfg = ChaosConfig::zero();
        cfg.seed = seed;
        cfg.wkill = 0.2;
        let injector = ChaosInjector::new(cfg);
        let mut first_kills = 0;
        let mut retry_trouble = false;
        for &(s, e) in &ranges {
            let a0 = injector.decide_worker(s, e, 0);
            assert!(!a0.stall, "wstall is zero");
            if a0.kill {
                first_kills += 1;
                let a1 = injector.decide_worker(s, e, 1);
                retry_trouble |= a1.kill || a1.stall;
            }
        }
        if first_kills >= 1 && first_kills < workers && !retry_trouble {
            return cfg;
        }
    }
    panic!("no survivable-kill seed in range");
}

fn coordinate_worker_kill(_: &Path) -> Option<Vec<String>> {
    let workers = 3;
    let mut opts = CoordOptions::default();
    let cells = suite_shard_cell_count(&ctx(), &opts.suite);
    opts.suite.chaos = seed_with_survivable_kills(cells, workers, CHUNKS_PER_WORKER);
    let (out, exits) = coordinate("shard/kill", opts, workers, |_| None);
    assert!(
        exits.contains(&WorkerExit::ChaosKilled),
        "a worker must actually die: {exits:?}"
    );
    assert!(out.stats.workers_lost >= 1, "{}", out.stats.summary());
    assert!(out.stats.reassignments >= 1, "{}", out.stats.summary());
    assert_eq!(out.stats.quarantined_ranges, 0, "{}", out.stats.summary());
    assert!(out.suite.degraded.is_none());
    Some(out.suite.renders())
}

// --- shard workers behind the seeded chaos proxy ---------------------------------

/// Two workers, each behind a proxy configured by `cfg`; the pass must
/// not degrade.
fn through_proxies(
    label: &str,
    cfg: impl Fn(usize) -> WireChaosConfig + Send + 'static,
) -> Coordinated {
    let (out, _) = coordinate(label, CoordOptions::default(), 2, move |i| Some(cfg(i)));
    assert!(out.suite.degraded.is_none(), "{}", out.stats.summary());
    out
}

fn proxy_passthrough(_: &Path) -> Option<Vec<String>> {
    let out = through_proxies("shard/passthrough", |_| WireChaosConfig::zero());
    assert_eq!(out.stats.reconnects, 0, "{}", out.stats.summary());
    Some(out.suite.renders())
}

fn proxy_split_writes(_: &Path) -> Option<Vec<String>> {
    // Every chunk relayed one byte per write: the deadline reader must
    // reassemble frames across thousands of tiny reads without ever
    // resetting its whole-frame clock.
    let out = through_proxies("shard/split", |_| {
        let mut c = WireChaosConfig::zero();
        c.seed = 11;
        c.split = 1.0;
        c
    });
    Some(out.suite.renders())
}

fn proxy_added_latency(_: &Path) -> Option<Vec<String>> {
    let out = through_proxies("shard/delay", |_| {
        let mut c = WireChaosConfig::zero();
        c.seed = 5;
        c.delay = 0.3;
        c.delay_ms = 120; // well inside the 2s heartbeat budget
        c
    });
    Some(out.suite.renders())
}

fn proxy_mid_frame_cut(_: &Path) -> Option<Vec<String>> {
    // Worker 0's proxy severs the first DONE frame halfway through — a
    // deterministic mid-frame connection reset. The coordinator must
    // redial, learn the retained range from HELLO_ACK, re-assign it and
    // adopt the cached outcome: at least one resumed range, zero
    // reassignments (the wire failed; the work never did).
    let out = through_proxies("shard/cut", |i| {
        let mut c = WireChaosConfig::zero();
        if i == 0 {
            c.cut_payload = 512; // larger than any control frame
        }
        c
    });
    assert!(out.stats.reconnects >= 1, "{}", out.stats.summary());
    assert!(out.stats.ranges_resumed >= 1, "{}", out.stats.summary());
    assert_eq!(out.stats.reassignments, 0, "{}", out.stats.summary());
    assert_eq!(
        out.stats.assignments,
        out.stats.chunks,
        "every range computed exactly once: {}",
        out.stats.summary()
    );
    Some(out.suite.renders())
}

fn proxy_random_truncation(_: &Path) -> Option<Vec<String>> {
    // Probabilistic truncate-and-sever on bulk chunks: whether a given
    // run recovers through reconnect-resume or exhausts the redial budget
    // and quarantines, it must end in one of the two named terminal
    // states, inside the watchdog.
    let (out, _) = coordinate("shard/trunc", CoordOptions::default(), 2, |_| {
        let mut c = WireChaosConfig::zero();
        c.seed = 17;
        c.trunc = 0.4;
        c.min_len = 512;
        Some(c)
    });
    if out.suite.degraded.is_none() {
        return Some(out.suite.renders());
    }
    assert_named_degraded("shard/trunc", &out);
    None
}

// --- the CLI -----------------------------------------------------------------------

fn figures_process_stdout(_: &Path) -> Option<Vec<String>> {
    let out = Command::new(env!("CARGO_BIN_EXE_lockdown"))
        .args(["figures", "--fidelity", "test"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Stdout is every section followed by a newline. Cut it where the
    // reference's sections end, so a divergence is reported against the
    // section it starts in.
    let mut rest = out.stdout.as_slice();
    let mut sections = Vec::new();
    for want in &reference(Calibration::Builtin).renders {
        let (section, tail) = rest.split_at(want.len().min(rest.len()));
        sections.push(String::from_utf8_lossy(section).into_owned());
        rest = tail.strip_prefix(b"\n").unwrap_or(tail);
    }
    assert!(rest.is_empty(), "stdout continues past the last section");
    Some(sections)
}
