//! `lockdown` — command-line front end to the reproduction.
//!
//! Every subcommand, its flags and the exit codes are documented in one
//! place, [`USAGE`] (`lockdown help` prints it); [`COMMANDS`] is the table
//! `main` dispatches through and checks flags against.
//!
//! Argument parsing is hand-rolled (the dependency set is deliberately
//! small); every subcommand prints human-oriented tables.

use lockdown::analysis::prelude::*;
use lockdown::base::fault::{FaultProfile, Plane};
use lockdown::collect::soak::{self, SoakConfig};
use lockdown::collect::{
    export, CollectMetrics, Collectd, CollectdConfig, ExportConfig, WireConfig,
};
use lockdown::core::experiments::{figures, suite};
use lockdown::core::serve::suite_plan_hash;
use lockdown::core::{run_matrix, Context, Fidelity, MatrixOptions, MatrixScenario};
use lockdown::flow::prelude::*;
use lockdown::query::{loadgen, LoadConfig, QueryEngine, QueryPlan, Server};
use lockdown::scenario::measures::ScenarioSpec;
use lockdown::shard::coord::{self, CoordOptions};
use lockdown::shard::worker::serve_worker;
use lockdown::store::{gc_dir, ArchiveReader, StoreMetrics};
use lockdown::topology::dns::vpn::identify_vpn_ips;
use lockdown::topology::vantage::VantagePoint;
use lockdown::wirechaos;
use lockdown_flow::time::Date;
use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Documented exit code for a serve or collectd startup that could not
/// bind a socket (already in use, bad host): distinguishable from
/// archive or flag errors so process managers can tell "port conflict"
/// apart.
const EXIT_BIND: u8 = 2;

/// Documented exit code for a degraded (quarantined-cells) suite pass:
/// the run completed and rendered every figure, but from partial data.
const EXIT_DEGRADED: u8 = 3;

/// Documented exit code for a load-generator verification failure: the
/// server answered, but at least one served figure was not byte-identical
/// to the expected engine output.
const EXIT_MISMATCH: u8 = 4;

type Handler = fn(&[String], &[&String]) -> Result<ExitCode, String>;

/// One row per subcommand [`USAGE`] documents: its name, the flags it
/// defines — those that consume the following argument, then those that
/// stand alone, each space-separated; any other `--flag` is rejected
/// before the handler runs — and its handler, which receives the raw
/// arguments and the positional ones.
#[rustfmt::skip] // a table: one row per line
const COMMANDS: &[(&str, &str, &str, Handler)] = &[
    ("figures",
        "--fidelity --scenario --archive --chaos",
        "--wire", cmd_figures),
    ("coordinate",
        "--workers --attach --fidelity --scenario --archive --chaos --chunks --timeout-ms",
        "", cmd_coordinate),
    ("worker", "--listen --fidelity --scenario --archive --chaos", "", cmd_worker),
    ("chaosproxy", "--listen --upstream --chaos", "--udp", cmd_chaosproxy),
    ("collectd",
        "--format --listen --sockets --shards --queue --cells --records --batch --rcvbuf",
        "--soak", cmd_collectd),
    ("export", "--target --format --cells --records --batch --exporters", "", cmd_export),
    ("scenarios", "--fidelity --archive --dir --out", "--matrix", cmd_scenarios),
    ("store", "--archive", "--dry-run", cmd_store),
    ("registry", "", "", cmd_registry),
    ("capture", "--vantage --date --out --format --sample", "", cmd_capture),
    ("analyze", "--trace", "", cmd_analyze),
    ("serve", "--archive --addr --connections --cache-mb --fidelity --scenario", "", cmd_serve),
    ("query",
        "--archive --cache-mb --from --to --vantage --class --as --port --direction",
        "", cmd_query),
    ("loadgen", "--target --clients --duration --seed --expect", "", cmd_loadgen),
    ("vpn-scan", "", "", cmd_vpn_scan),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        Ok(ExitCode::SUCCESS)
    } else {
        match COMMANDS.iter().find(|c| c.0 == name) {
            Some(&(_, value_flags, bool_flags, run)) => {
                check_flags(rest, value_flags, bool_flags).and_then(|pos| run(rest, &pos))
            }
            None => Err(format!("unknown command: {name}\n{USAGE}")),
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
lockdown — reproduce 'The Lockdown Effect' (IMC 2020) from synthetic flows

USAGE:
  lockdown figures [--fidelity test|standard] [NAME...]
                   [--scenario FILE] [--wire] [--archive DIR]
                   [--chaos SPEC]
      Render figures/tables (default: all) in one engine pass. Names:
      fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 edu sec3.4 sec9
      table1 table2, or a single section as 'lockdown serve' names them
      (fig2a, fig9:IXP-CE, ...); an unknown name is an error.
      --scenario FILE interprets the given scenario measure file (TOML)
      instead of the shipped scenarios/covid-spring-2020.toml, compiled
      in; see 'lockdown scenarios' and scenarios/*.toml.
      --wire routes the full suite through the export -> faulty transport
      -> collect plane (zero faults keep output byte-identical), keeping a
      conservation ledger over every stage; the metrics snapshot and the
      audit report go to stderr, and a violated identity exits 1.
      --archive DIR runs the full suite against a columnar cell archive:
      cold (generate + spill segments) when DIR has no covering manifest
      for this seed/scenario, warm (replay, zero generation) when it does.
      Figure output is byte-identical either way; the store metrics
      snapshot goes to stderr.
      Every pass is supervised: worker panics, failed segment writes and
      exporter stalls are caught and retried with seeded backoff; cells
      whose attempt budget runs out are quarantined and the suite
      completes degraded (exit code 3) with a report naming every missing
      cell; an archived segment that fails to read is regenerated, and
      with --archive a killed pass resumes from its journal. The
      supervisor_* metrics snapshot goes to stderr. --chaos SPEC
      schedules faults as comma-separated key=value pairs, all optional:
      seed=N panic=P torn=P enospc=P attempts=N backoff=MS cap=MS, and
      with --wire stall=P (exporter stall) restart=N (exporter reboot
      every N datagrams) reorder=P drop=P dup=P (the last three at most
      0.95). Probabilities are in [0,1]; a key of a plane the pass does
      not run is an error naming it.
  lockdown coordinate (--workers N | --attach ADDR,ADDR,...)
                      [--fidelity test|standard] [--scenario FILE]
                      [--archive DIR] [--chaos SPEC]
                      [--chunks N] [--timeout-ms MS]
      Run the full figure suite sharded across worker processes and
      merge their streamed consumer state: stdout is byte-identical to
      'lockdown figures' under the same seed/scenario, whatever the
      worker count. --workers N spawns N local 'lockdown worker'
      processes on ephemeral ports (passing --fidelity/--scenario/
      --archive/--chaos through); --attach connects to pre-started
      workers instead — they must have been started with the same
      flags (the identity handshake rejects a mismatch). With
      --archive DIR workers spill segments into the shared directory
      and the coordinator adopts them into ONE manifest, so a warm
      re-run (any worker count) regenerates zero cells. --chaos takes
      the supervisor keys of figures (seed=N panic=P torn=P enospc=P
      attempts=N backoff=MS cap=MS) and wkill=P wstall=P: seeded worker
      kills and heartbeat stalls, decided per (range, attempt) so the
      schedule survives reassignment. A dead worker's range is retried
      on a live worker; a range that outlives the attempt budget is
      quarantined and the suite completes degraded (exit 3). --chunks
      sets work-queue ranges per worker (default 4); --timeout-ms the
      heartbeat timeout (default 2000).
  lockdown worker [--listen HOST:PORT] [--fidelity test|standard]
                  [--scenario FILE] [--archive DIR] [--chaos SPEC]
      Run one shard worker: print 'listening on HOST:PORT' (first
      stdout line), serve one coordinator connection, run assigned
      cell ranges sequentially and stream serialized consumer state
      back. Exits 0 when the coordinator shuts it down or hangs up;
      exit 2 if the listen address cannot be bound. The wire is treated
      as hostile: every frame carries a CRC-32, reads run under a
      whole-frame deadline, and finished slices are retained across
      connection loss — a coordinator that redials resumes them
      byte-identically instead of recomputing. --chaos is the
      coordinator's: seed=N panic=P torn=P enospc=P attempts=N
      backoff=MS cap=MS wkill=P wstall=P.
  lockdown chaosproxy --upstream HOST:PORT [--listen HOST:PORT]
                      [--chaos SPEC] [--udp]
      Interpose a seeded hostile wire between two lockdown processes:
      accept on --listen (default 127.0.0.1:0; bound address is the
      first stdout line, exit 2 on bind failure), relay byte-for-byte
      to --upstream, and inject the faults named in --chaos on a
      deterministic splitmix64 schedule — same seed, same faults,
      every run. Runs until stdin reaches EOF, then prints the
      wirechaos_* metrics snapshot to stderr. SPEC keys (comma-
      separated key=value; probabilities in [0,1]): seed=N corrupt=P
      delay=P delay-ms=MS min-len=BYTES (spare chunks smaller than
      BYTES from corrupt/trunc — e.g. 512 mangles bulk payloads but not
      control frames); over TCP trunc=P split=P reset=P hold=P (stop
      relaying a direction, held open; the proxy's old 'stall', now
      only the wired figures pass's exporter stall) cut-payload=BYTES
      (one-shot: sever the first upstream->client chunk of at least
      BYTES halfway through — a deterministic mid-frame reset). --udp
      proxies datagrams instead: drop=P dup=P (at most 0.95) with
      corrupt and delay; replies relay to the last client unfaulted.
      Insert between coordinate and workers (the coordinator attaches
      to the proxy), between export and collectd (--udp), or between
      loadgen and serve.
  lockdown store inspect|verify|gc --archive DIR [--dry-run]
      An archive is one manifest (the cell index) over one pack file
      per (stream, day) holding that day's cell segments back to back.
      inspect: print the manifest key, segment and pack counts, and per
               cell its pack, offset, length and time range.
      verify:  re-read and CRC-check every segment; non-zero on failure.
      gc:      delete pack files neither the manifest nor the resume
               journal names; works on manifest-less (killed)
               archives. --dry-run lists orphans without deleting.
      An archive of an older format version fails inspect and verify
      (exit 1, naming the version); figures --archive rebuilds it.
  lockdown scenarios list [--dir DIR]
      List the scenario measure files under DIR (default: scenarios/)
      with name, regions, events and behavioural fingerprint.
  lockdown scenarios show FILE
      Parse and validate FILE, then print its normalized rendering
      (the exact form 'parse -> render' round-trips).
  lockdown scenarios --matrix FILE... [--fidelity test|standard]
                     [--archive DIR] [--out DIR]
      Sweep N scenario files through the full figure suite, one engine
      pass per scenario lane, each exactly a 'lockdown figures' run
      under that scenario file. Per-scenario output goes to
      OUT/NN-label.txt (--out) or stdout under '=== scenario:' headers;
      the matrix summary and a per-scenario diff report vs. the first
      file go to stderr. With --archive DIR each lane replays from /
      spills to its own subdirectory of DIR.

  lockdown collectd [--format ipfix|v9|v5] [--listen HOST:PORT]
                    [--sockets N] [--shards N] [--queue N]
                    [--rcvbuf BYTES]
      Run the real-socket collection daemon: bind N UDP sockets (exit 2
      if any bind fails), decode NetFlow v5/v9 and IPFIX datagrams and
      fan them out to collector shards through bounded queues. The bound
      addresses are the first stdout lines ('listening on HOST:PORT',
      one per socket). With --listen PORT != 0, socket i binds PORT+i.
      The daemon runs until stdin reaches EOF, then drains the queues,
      prints an ingest summary to stdout and the metrics snapshot to
      stderr, and exits 0. Backpressure is explicit: datagrams dropped
      at the kernel, at a full shard queue or by receive-buffer
      truncation are counted separately (never silently). --rcvbuf asks
      the kernel for BYTES of SO_RCVBUF per socket (clamped to
      net.core.rmem_max; the grant lands in the socket_rcvbuf_bytes
      gauge) — headroom against kernel drops under bursty senders.
  lockdown collectd --soak [--cells N] [--records N] [--batch N]
                    [--format ipfix|v9|v5] [--sockets N] [--shards N]
                    [--queue N] [--rcvbuf BYTES]
      Localhost soak: export N records per cell through the daemon's
      real UDP path with the conservation audit threaded through, and
      print the JSON outcome (flows/sec, drop decomposition,
      audit_clean). Non-clean audits exit 1. At a generous --rcvbuf the
      kernel_dropped counter settles at 0.
  lockdown export --target HOST:PORT[,HOST:PORT...]
                  [--format ipfix|v9|v5] [--cells N] [--records N]
                  [--batch N] [--exporters N]
      Feed a running collectd from this (separate) process: encode N
      synthetic flow records per cell through a real exporter fleet and
      send the datagrams over UDP, domain d to target d % targets (the
      daemon's 'listening on' lines, in order, so per-domain ordering
      holds). Prints a one-line summary ('export: R records in D
      datagrams ...') whose tallies reconcile against the daemon's
      drain summary — conservation across a process boundary.

  lockdown serve --archive DIR [--addr HOST:PORT] [--connections N]
                 [--cache-mb MB] [--fidelity F] [--scenario FILE]
      Serve the archive over HTTP/1.1: GET /figures (catalog),
      /figures/<name> (one figure, byte-identical to the suite's
      stdout section), /query?key=value&... (predicate-pushdown scan),
      /metrics (query_* + store_* Prometheus families). --addr defaults
      to 127.0.0.1:0; the bound address is the first stdout line
      ('serving on HOST:PORT'). The server runs until stdin reaches
      EOF, then drains in-flight requests and exits 0. --fidelity and
      --scenario must describe the context the archive was built under
      (checked against the manifest key at startup). --connections
      bounds concurrent connections (default 2048, excess answered
      503); --cache-mb budgets the decoded-segment cache (default 256).
  lockdown query --archive DIR [--from T] [--to T] [--vantage VP]
                 [--class C] [--as N] [--port P] [--direction D]
                 [--cache-mb MB]
      Run one predicate-pushdown query locally (no server) and print
      the JSON result. T is unix seconds or YYYY-MM-DD; VP is a
      vantage label, 'isp-transit' or 'edu-directional'; C is one of
      webconf vod gaming social messaging email educational collab
      cdn; D is ingress|egress|unknown.
  lockdown loadgen --target HOST:PORT [--clients N] [--duration S]
                   [--seed N] [--expect FILE]
      Drive concurrent keep-alive clients (default 1000) at a running
      serve instance with a seeded query mix for S seconds (default 5)
      and print a JSON report (rps, p50/p99/p999 latency). --expect
      FILE additionally fetches every served figure first and
      byte-compares the reassembled catalog against FILE (the suite
      stdout); any mismatch exits 4.

EXIT CODES:
  0  success      1  error (incl. unknown flag/command, a scenario
                            file that fails to parse or validate, or a
                            non-clean figures --wire or collectd --soak
                            audit)
                  2  serve/collectd could not bind a socket
                  3  degraded (quarantined cells; figures rendered from
                               partial data)
                  4  loadgen served-vs-expected figure mismatch
  lockdown registry
      Print the synthetic AS registry summary.
  lockdown capture --vantage <VP> --date YYYY-MM-DD --out FILE
                   [--format ipfix|v9|v5] [--sample N]
      Generate one day of traffic, export it on the wire, store a trace.
      Vantage points: ISP-CE IXP-CE IXP-SE IXP-US EDU MOBILE-CE IPX
  lockdown analyze --trace FILE
      Replay a stored trace through the collector and summarize it.
  lockdown vpn-scan
      Run the §6 *vpn* domain identification over the synthetic corpus.";

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .cloned()
}

/// Reject any `--flag` the subcommand does not define — a typo must fail
/// loudly (with the usage text) instead of silently doing the default —
/// and return the positional arguments: everything that is neither a
/// flag nor the value token following one of `value_flags`.
fn check_flags<'a>(
    rest: &'a [String],
    value_flags: &str,
    bool_flags: &str,
) -> Result<Vec<&'a String>, String> {
    let mut positionals = Vec::new();
    let mut skip_value = false;
    for a in rest {
        if skip_value {
            skip_value = false;
        } else if !a.starts_with("--") {
            positionals.push(a);
        } else if value_flags.split(' ').any(|f| f == a) {
            skip_value = true;
        } else if !bool_flags.split(' ').any(|f| f == a) {
            return Err(format!("unknown flag: {a}\n\n{USAGE}"));
        }
    }
    Ok(positionals)
}

/// Unwrap a bind result, or report the failure the way every daemon
/// does; the caller then exits with [`EXIT_BIND`].
fn bound<T>(what: impl std::fmt::Display, result: std::io::Result<T>) -> Option<T> {
    result
        .map_err(|e| eprintln!("error: binding {what}: {e}"))
        .ok()
}

/// Block until stdin reaches EOF — the portable shutdown signal for a
/// daemon whose lifetime a parent pipeline manages.
fn wait_for_stdin_eof() {
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}

fn parse_fidelity(rest: &[String]) -> Result<Fidelity, String> {
    match flag(rest, "--fidelity").as_deref() {
        None | Some("standard") => Ok(Fidelity::Standard),
        Some("test") => Ok(Fidelity::Test),
        Some(other) => Err(format!("unknown fidelity: {other}")),
    }
}

fn parse_vantage(s: &str) -> Result<VantagePoint, String> {
    VantagePoint::ALL
        .into_iter()
        .find(|v| v.label().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown vantage point: {s}"))
}

/// Load and validate one scenario measure file; errors carry the path
/// and (for spec errors) the offending line.
fn load_scenario(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    ScenarioSpec::parse_toml(&text).map_err(|e| format!("{path}: {e}"))
}

/// The context described by `--fidelity` and (optionally) `--scenario`;
/// without the latter, the shipped `scenarios/covid-spring-2020.toml`.
fn parse_context(rest: &[String]) -> Result<Context, String> {
    let fidelity = parse_fidelity(rest)?;
    Ok(match flag(rest, "--scenario") {
        None => Context::new(fidelity),
        Some(path) => Context::with_scenario(fidelity, 0x10CD_2020, load_scenario(&path)?),
    })
}

/// The fault planes `command` runs under the flags in `rest`, and how to
/// name it in a refusal.
fn chaos_planes(command: &str, rest: &[String]) -> (&'static str, &'static [Plane]) {
    let set = |f: &str| rest.iter().any(|a| a == f);
    match command {
        "figures" if set("--wire") => (
            "figures --wire",
            &[Plane::Supervisor, Plane::Wire, Plane::Datagram],
        ),
        "figures" => ("figures without --wire", &[Plane::Supervisor]),
        "coordinate" => ("coordinate", &[Plane::Supervisor, Plane::Shard]),
        "worker" => ("worker", &[Plane::Supervisor, Plane::Shard]),
        "chaosproxy" if set("--udp") => ("chaosproxy --udp", &[Plane::Proxy, Plane::Datagram]),
        "chaosproxy" => ("chaosproxy", &[Plane::Proxy, Plane::Tcp]),
        _ => ("", &[]),
    }
}

/// The fault profile `--chaos SPEC` describes for `command`.
fn parse_chaos(rest: &[String], command: &str) -> Result<Option<FaultProfile>, String> {
    let Some(spec) = flag(rest, "--chaos") else {
        return Ok(None);
    };
    let (label, planes) = chaos_planes(command, rest);
    FaultProfile::parse(&spec, label, planes)
        .map(Some)
        .map_err(|e| format!("bad --chaos spec: {e}"))
}

/// Print the supervisor metrics and any degraded pass's report (stderr)
/// and map the pass to the documented exit code; clean passes exit 0.
fn degraded_exit(suite: &suite::Suite) -> ExitCode {
    eprint!("{}", suite.supervisor_metrics.render());
    match &suite.degraded {
        Some(report) => {
            eprint!("{}", report.render());
            ExitCode::from(EXIT_DEGRADED)
        }
        None => ExitCode::SUCCESS,
    }
}

fn cmd_figures(rest: &[String], names: &[&String]) -> Result<ExitCode, String> {
    let chaos = parse_chaos(rest, "figures")?;
    let wire = rest.iter().any(|a| a == "--wire").then(|| WireConfig {
        faults: chaos.unwrap_or_default(),
        ..WireConfig::new()
    });
    let archive = flag(rest, "--archive");
    let all = names.is_empty();
    if wire.is_some() && !all {
        return Err("--wire applies to the full suite; drop the figure names".into());
    }
    if archive.is_some() && !all {
        return Err("--archive applies to the full suite; drop the figure names".into());
    }
    if chaos.is_some() && !all {
        return Err("--chaos applies to the full suite; drop the figure names".into());
    }
    let selected = figures::select(names).map_err(|unknown| {
        format!(
            "unknown figure '{unknown}'; valid names: {}",
            figures::selectable_names().join(" ")
        )
    })?;

    let ctx = parse_context(rest)?;
    // Whatever was selected goes through ONE engine pass: every
    // overlapping (stream, date, hour) cell is generated exactly once and
    // fanned out to all consumers. In wire mode every cell additionally
    // crosses the export -> transport -> collect plane first; stdout
    // stays byte-identical at zero faults, and the plane's metrics
    // snapshot and audit report go to stderr. With --archive the cells come from (or go
    // to) the columnar store — stdout is byte-identical cold vs. warm,
    // which is why the engine summary and every metrics snapshot go to
    // stderr. Quarantined cells degrade (not abort) the run, and the
    // degraded report plus supervisor metrics also go to stderr.
    let suite = suite::run_figures(
        &ctx,
        selected,
        suite::SuiteOptions {
            wire,
            archive: archive.map(Into::into),
            chaos,
        },
    )
    .map_err(|e| e.to_string())?;
    for section in suite.renders() {
        println!("{section}");
    }
    eprintln!("{}", suite.stats.summary());
    if let Some(metrics) = &suite.store_metrics {
        eprint!("{}", metrics.render());
    }
    if let Some(metrics) = &suite.wire_metrics {
        eprint!("{}", metrics.render());
    }
    check_audit(&suite)?;
    Ok(degraded_exit(&suite))
}

/// `coordinate`: the sharded full-suite pass. Stdout carries exactly
/// what `figures` would print; scheduling and engine summaries go to
/// stderr, and a degraded pass exits 3 like any other.
fn cmd_coordinate(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let ctx = parse_context(rest)?;
    let mut opts = CoordOptions::default();
    opts.suite = suite::ShardSuiteOptions {
        archive: flag(rest, "--archive").map(|d| Path::new(&d).to_path_buf()),
        chaos: parse_chaos(rest, "coordinate")?.unwrap_or_default(),
    };
    opts.chunks_per_worker = parse_count(rest, "--chunks", opts.chunks_per_worker)?;
    if let Some(ms) = flag(rest, "--timeout-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad --timeout-ms: {ms}"))
            .and_then(|n: u64| {
                if n > 0 {
                    Ok(n)
                } else {
                    Err("bad --timeout-ms: 0".to_string())
                }
            })?;
        opts.heartbeat_timeout = Duration::from_millis(ms);
    }
    let links = match (flag(rest, "--workers"), flag(rest, "--attach")) {
        (Some(_), Some(_)) => {
            return Err("--workers and --attach are mutually exclusive".into());
        }
        (None, None) => {
            return Err("coordinate needs --workers N or --attach ADDR,...".into());
        }
        (Some(_), None) => {
            let n = parse_count(rest, "--workers", 0)?;
            let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
            // Spawned workers must see the world exactly as the
            // coordinator does; pass the context flags through.
            let mut args = Vec::new();
            for name in ["--fidelity", "--scenario", "--archive", "--chaos"] {
                if let Some(v) = flag(rest, name) {
                    args.push(name.to_string());
                    args.push(v);
                }
            }
            coord::spawn_workers(&exe, &args, n).map_err(|e| e.to_string())?
        }
        (None, Some(list)) => {
            let addrs: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if addrs.is_empty() {
                return Err("--attach needs at least one HOST:PORT".into());
            }
            coord::attach_workers(&addrs).map_err(|e| e.to_string())?
        }
    };
    let out = coord::coordinate(&ctx, &opts, links).map_err(|e| e.to_string())?;
    for section in out.renders() {
        println!("{section}");
    }
    if let Some(suite) = &out.suite {
        eprintln!("{}", suite.stats.summary());
    }
    eprintln!("{}", out.stats.summary());
    let Some(suite) = &out.suite else {
        // Quarantine holes too large for the figures to assemble at
        // all: the deepest degraded outcome, same exit contract.
        eprintln!(
            "DEGRADED: suite assembly impossible after {} quarantined range(s)",
            out.stats.quarantined_ranges
        );
        return Ok(ExitCode::from(EXIT_DEGRADED));
    };
    if let Some(metrics) = &suite.store_metrics {
        eprint!("{}", metrics.render());
    }
    Ok(degraded_exit(suite))
}

/// `worker`: one shard worker process. Stdout carries only the
/// `listening on HOST:PORT` contract line; the coordinator owns the
/// figures.
fn cmd_worker(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let ctx = parse_context(rest)?;
    let opts = suite::ShardSuiteOptions {
        archive: flag(rest, "--archive").map(|d| Path::new(&d).to_path_buf()),
        chaos: parse_chaos(rest, "worker")?.unwrap_or_default(),
    };
    let addr = flag(rest, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    // Bind before anything else: a port conflict must be diagnosable
    // (exit 2, as for serve and collectd).
    let Some(listener) = bound(&addr, std::net::TcpListener::bind(&addr)) else {
        return Ok(ExitCode::from(EXIT_BIND));
    };
    println!(
        "listening on {}",
        listener.local_addr().map_err(|e| e.to_string())?
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let exit = serve_worker(&ctx, &opts, listener).map_err(|e| e.to_string())?;
    eprintln!("worker: {exit:?}");
    Ok(ExitCode::SUCCESS)
}

/// `chaosproxy`: a seeded hostile wire between any two lockdown
/// processes. Sits on --listen, relays to --upstream, and injects the
/// faults named in --chaos on a deterministic splitmix64 schedule —
/// same seed, same faults, every run.
fn cmd_chaosproxy(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let upstream = flag(rest, "--upstream").ok_or("chaosproxy needs --upstream HOST:PORT")?;
    let upstream: std::net::SocketAddr = upstream
        .parse()
        .map_err(|_| format!("bad --upstream (want HOST:PORT): {upstream}"))?;
    let listen = flag(rest, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let cfg = parse_chaos(rest, "chaosproxy")?.unwrap_or_default();
    let udp = rest.iter().any(|a| a == "--udp");

    // Bind before anything else: exit 2 on a port conflict, as for
    // serve, collectd and worker.
    let (addr, metrics, proxies) = if udp {
        let start = wirechaos::UdpProxy::start(listen.as_str(), upstream, cfg);
        let Some(p) = bound(&listen, start) else {
            return Ok(ExitCode::from(EXIT_BIND));
        };
        (p.addr(), p.metrics(), (None, Some(p)))
    } else {
        let start = wirechaos::TcpProxy::start(listen.as_str(), upstream, cfg);
        let Some(p) = bound(&listen, start) else {
            return Ok(ExitCode::from(EXIT_BIND));
        };
        (p.addr(), p.metrics(), (Some(p), None))
    };
    // The bound address is the first stdout line so a parent pipeline
    // can scrape the ephemeral port.
    println!("listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    wait_for_stdin_eof();
    // A dropped proxy stops and joins its pumps.
    drop(proxies);
    eprint!("{}", metrics.render());
    Ok(ExitCode::SUCCESS)
}

/// Parse an optional positive-integer flag with a default.
fn parse_count(rest: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag(rest, name) {
        None => Ok(default),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("bad {name} (want a positive integer): {s}")),
        },
    }
}

fn parse_format(rest: &[String]) -> Result<ExportFormat, String> {
    match flag(rest, "--format").as_deref() {
        None | Some("ipfix") => Ok(ExportFormat::Ipfix),
        Some("v9") => Ok(ExportFormat::NetflowV9),
        Some("v5") => Ok(ExportFormat::NetflowV5),
        Some(other) => Err(format!("unknown format: {other}")),
    }
}

fn cmd_collectd(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let format = parse_format(rest)?;
    let sockets = parse_count(rest, "--sockets", 2)?;
    let shards = parse_count(rest, "--shards", 4)?;
    let queue_capacity = parse_count(rest, "--queue", 1_024)?;
    let rcvbuf = match flag(rest, "--rcvbuf") {
        None => None,
        Some(_) => Some(parse_count(rest, "--rcvbuf", 0)?),
    };

    if rest.iter().any(|a| a == "--soak") {
        if flag(rest, "--listen").is_some() {
            return Err("--listen does not apply to --soak (always localhost)".into());
        }
        let mut cfg = SoakConfig::new();
        cfg.format = format;
        cfg.sockets = sockets;
        cfg.shards = shards;
        cfg.queue_capacity = queue_capacity;
        cfg.cells = parse_count(rest, "--cells", cfg.cells)?;
        cfg.records_per_cell = parse_count(rest, "--records", cfg.records_per_cell)?;
        cfg.batch_size = parse_count(rest, "--batch", cfg.batch_size)?;
        cfg.rcvbuf = rcvbuf;
        let Some(out) = bound("soak sockets", soak::run(&cfg)) else {
            return Ok(ExitCode::from(EXIT_BIND));
        };
        println!("{}", out.render_json());
        if !out.audit_clean {
            return Err("soak conservation audit did not close".into());
        }
        return Ok(ExitCode::SUCCESS);
    }

    for soak_only in ["--cells", "--records", "--batch"] {
        if flag(rest, soak_only).is_some() {
            return Err(format!("{soak_only} only applies to --soak"));
        }
    }
    let mut dcfg = CollectdConfig::new(format);
    dcfg.sockets = sockets;
    dcfg.shards = shards;
    dcfg.queue_capacity = queue_capacity;
    dcfg.rcvbuf = rcvbuf;
    if let Some(addr) = flag(rest, "--listen") {
        dcfg.listen = addr
            .parse()
            .map_err(|_| format!("bad --listen (want HOST:PORT): {addr}"))?;
    }
    let metrics = CollectMetrics::new();
    // Bind before anything else: a port conflict must be diagnosable
    // (exit 2, as for serve) independently of everything downstream.
    let bind = Collectd::bind(&dcfg, Arc::clone(&metrics));
    let Some(mut daemon) = bound(dcfg.listen, bind) else {
        return Ok(ExitCode::from(EXIT_BIND));
    };
    // The bound addresses are the first stdout lines so a parent
    // pipeline can scrape the ephemeral ports.
    for addr in daemon.addrs() {
        println!("listening on {addr}");
    }
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    wait_for_stdin_eof();

    // Graceful drain: the cycle barrier flushes every queued datagram
    // through its shard before the workers hand their state back.
    let cycle = daemon.close_cycle();
    daemon.shutdown();
    let t = cycle.shards.totals();
    println!(
        "collectd: {} datagrams received ({} truncated), {} decoded, \
         {} records accepted, {} malformed, {} queue-dropped",
        cycle.socket_received,
        cycle.truncated_datagrams,
        t.datagrams,
        t.records_accepted,
        t.malformed,
        cycle.queue_dropped,
    );
    eprint!("{}", metrics.render());
    Ok(ExitCode::SUCCESS)
}

/// `export`: the exporter half of a two-process wire run. Encodes
/// synthetic flows and pushes them at a running collectd; the printed
/// tallies are the sender's side of the cross-process conservation diff.
fn cmd_export(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let targets = flag(rest, "--target")
        .ok_or("export needs --target HOST:PORT[,HOST:PORT...]")?
        .split(',')
        .map(|a| {
            a.trim()
                .parse()
                .map_err(|_| format!("bad --target address: {a}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut cfg = ExportConfig::new(parse_format(rest)?, targets);
    cfg.cells = parse_count(rest, "--cells", cfg.cells)?;
    cfg.records_per_cell = parse_count(rest, "--records", cfg.records_per_cell)?;
    cfg.batch_size = parse_count(rest, "--batch", cfg.batch_size)?;
    cfg.exporters = parse_count(rest, "--exporters", cfg.exporters)?;
    let out = export::run(&cfg).map_err(|e| e.to_string())?;
    println!("{}", out.render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_scenarios(rest: &[String], pos: &[&String]) -> Result<ExitCode, String> {
    if rest.iter().any(|a| a == "--matrix") {
        return cmd_scenarios_matrix(rest, pos);
    }
    match pos.split_first().map(|(a, files)| (a.as_str(), files)) {
        Some(("list", [])) => {
            let dir = flag(rest, "--dir").unwrap_or_else(|| "scenarios".to_string());
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .map_err(|e| format!("reading {dir}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            files.sort();
            if files.is_empty() {
                println!("no scenario files (*.toml) in {dir}");
                return Ok(ExitCode::SUCCESS);
            }
            for path in files {
                let shown = path.display().to_string();
                match load_scenario(&shown) {
                    Ok(spec) => println!(
                        "{shown}\n  {} ({:#018x}): {} regions, {} events — {}",
                        spec.name,
                        spec.fingerprint(),
                        spec.regions.len(),
                        spec.events.len(),
                        spec.description,
                    ),
                    Err(e) => println!("{shown}\n  INVALID: {e}"),
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(("show", [file])) => {
            let spec = load_scenario(file)?;
            print!("{}", spec.to_toml());
            eprintln!(
                "scenario {}: fingerprint {:#018x}, {} regions, {} events",
                spec.name,
                spec.fingerprint(),
                spec.regions.len(),
                spec.events.len(),
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!(
            "scenarios needs an action: list | show FILE | --matrix FILE...\n\n{USAGE}"
        )),
    }
}

/// `scenarios --matrix`: run the suite once per scenario file and emit
/// per-scenario figure suites plus a diff report.
fn cmd_scenarios_matrix(rest: &[String], files: &[&String]) -> Result<ExitCode, String> {
    if files.is_empty() {
        return Err("scenarios --matrix needs at least one scenario file".into());
    }
    let mut scenarios = Vec::with_capacity(files.len());
    for file in files {
        let spec = load_scenario(file)?;
        let label = Path::new(file.as_str())
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| spec.name.clone());
        scenarios.push(MatrixScenario { label, spec });
    }
    let ctx = Context::new(parse_fidelity(rest)?);
    let opts = MatrixOptions {
        archive: flag(rest, "--archive").map(|d| Path::new(&d).to_path_buf()),
    };
    let run = run_matrix(&ctx, scenarios, opts).map_err(|e| e.to_string())?;

    // Per-scenario output: files under --out (each byte-identical to a
    // plain single-scenario `figures` run of that spec), or stdout under
    // scenario headers. Summaries and the diff report go to stderr.
    match flag(rest, "--out") {
        Some(out_dir) => {
            std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
            for (i, sr) in run.runs.iter().enumerate() {
                let path = Path::new(&out_dir).join(format!("{i:02}-{}.txt", sr.label));
                let mut text = String::new();
                for section in sr.suite.renders() {
                    text.push_str(&section);
                    text.push('\n');
                }
                std::fs::write(&path, text)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                eprintln!("wrote {} ({})", path.display(), sr.suite.stats.summary());
            }
        }
        None => {
            for sr in &run.runs {
                println!("=== scenario: {} ({:#018x}) ===", sr.label, sr.fingerprint);
                for section in sr.suite.renders() {
                    println!("{section}");
                }
                eprintln!("{}: {}", sr.label, sr.suite.stats.summary());
            }
        }
    }
    eprintln!("{}", run.stats.summary());
    if run.runs.len() > 1 {
        eprint!("{}", run.diff_report());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_store(rest: &[String], actions: &[&String]) -> Result<ExitCode, String> {
    let action = match actions {
        [one] => one.as_str(),
        _ => return Err("store needs exactly one action: inspect | verify | gc".into()),
    };
    let dir = flag(rest, "--archive").ok_or("--archive DIR required")?;
    if action == "gc" {
        // gc must work on a manifest-less archive (a killed pass leaves
        // only a journal, or neither index), so it does not open a reader.
        let dry_run = rest.iter().any(|a| a == "--dry-run");
        let report = gc_dir(Path::new(&dir), dry_run).map_err(|e| e.to_string())?;
        let verb = if report.dry_run {
            "would remove"
        } else {
            "removed"
        };
        println!(
            "gc {}: {verb} {} orphan files, kept {} live packs",
            dir,
            report.removed.len(),
            report.kept
        );
        for name in &report.removed {
            println!("  {name}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if rest.iter().any(|a| a == "--dry-run") {
        return Err("--dry-run only applies to gc".into());
    }
    let metrics = StoreMetrics::new();
    let reader = ArchiveReader::open(Path::new(&dir), metrics)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no archive manifest in {dir}"))?;
    let key = reader.key();
    match action {
        "inspect" => {
            let packs: BTreeSet<String> = reader.segments().map(|m| m.pack_name()).collect();
            println!(
                "archive {dir}: seed {:#x}, scenario {:#018x}, plan {:#018x}, {} segments in {} packs",
                key.seed,
                key.scenario_hash,
                key.plan_hash,
                reader.segment_count(),
                packs.len()
            );
            for meta in reader.segments() {
                let cell = meta.cell;
                println!(
                    "  {:<10} {} {:02}h  {:<32} @{:>9} {:>8} bytes {:>9} records  [{} .. {}]",
                    cell.stream.label(),
                    cell.date.iso(),
                    cell.hour,
                    meta.pack_name(),
                    meta.offset,
                    meta.len,
                    meta.records,
                    meta.min_start,
                    meta.max_end,
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let report = reader.verify();
            println!(
                "verified {}: {} segments, {} records, {} bytes, {} failures",
                dir,
                report.segments,
                report.records,
                report.bytes,
                report.failures.len()
            );
            for f in &report.failures {
                println!("  FAIL {f}");
            }
            if report.ok() {
                Ok(ExitCode::SUCCESS)
            } else {
                Err(format!("{} corrupt segments", report.failures.len()))
            }
        }
        other => Err(format!("unknown store action: {other}\n\n{USAGE}")),
    }
}

/// Print the conservation-audit report (stderr) and fail the command if
/// any identity was violated. No-op for a pass without the wire plane.
fn check_audit(suite: &suite::Suite) -> Result<(), String> {
    let Some(report) = &suite.audit else {
        return Ok(());
    };
    eprint!("{}", report.render());
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "conservation audit failed: {} violations",
            report.violations.len()
        ))
    }
}

fn cmd_registry(_: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let registry = lockdown::topology::registry::Registry::synthesize();
    let mut by_cat: HashMap<String, usize> = HashMap::new();
    for a in registry.ases() {
        *by_cat.entry(a.category.to_string()).or_insert(0) += 1;
    }
    let mut cats: Vec<_> = by_cat.into_iter().collect();
    cats.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!(
        "synthetic registry: {} ASes, {} prefixes",
        registry.ases().len(),
        registry.prefix_count()
    );
    for (cat, n) in cats {
        println!("  {n:>4}  {cat}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_capture(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let vantage = parse_vantage(&flag(rest, "--vantage").ok_or("--vantage required")?)?;
    let date = Date::parse_iso(&flag(rest, "--date").ok_or("--date required")?)?;
    if date.day_number() < 0 {
        return Err(format!("--date {} is before 1970-01-01", date.iso()));
    }
    let out = flag(rest, "--out").ok_or("--out required")?;
    let format = parse_format(rest)?;
    let sample_rate = u32::try_from(parse_count(rest, "--sample", 1)?)
        .map_err(|_| "bad --sample: above 2^32 - 1".to_string())?;

    let ctx = Context::new(Fidelity::Standard);
    let flows = if vantage == VantagePoint::Edu {
        let generator = ctx.edu_generator();
        (0..24)
            .flat_map(|h| generator.generate_hour(date, h))
            .collect()
    } else {
        ctx.generator().generate_day(vantage, date)
    };
    let sampler = FlowSampler::new(sample_rate, ctx.config.seed);
    let flows = sampler.sample_all(&flows);

    let boot = date.midnight();
    let mut exporter = Exporter::new(ExporterConfig::new(format, boot));
    let mut writer = TraceWriter::new();
    // Export after the last flow ends (EDU flows may cross midnight).
    let export_time = flows
        .iter()
        .map(|f| f.end)
        .max()
        .unwrap_or(date.at_hour(23))
        .add_secs(1);
    for pkt in exporter.export_all(&flows, export_time) {
        writer.push(export_time, &pkt).map_err(|e| e.to_string())?;
    }
    let datagrams = writer.datagrams();
    let bytes = writer.finish();
    std::fs::write(&out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "captured {} at {} ({:?}, sample 1:{sample_rate}): {} flows, {datagrams} datagrams, {} bytes -> {out}",
        vantage,
        date.iso(),
        format,
        flows.len(),
        bytes.len(),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let path = flag(rest, "--trace").ok_or("--trace required")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let reader = TraceReader::open(&bytes).map_err(|e| e.to_string())?;
    let mut collector = Collector::new();
    for record in reader {
        let record = record.map_err(|e| e.to_string())?;
        collector.ingest(record.payload);
    }
    let stats = collector.stats();
    println!(
        "trace {path}: {} datagrams ok, {} records, {} missing-template drops, {} malformed",
        stats.packets_ok, stats.records, stats.missing_template, stats.malformed
    );
    if collector.records().is_empty() {
        return Ok(ExitCode::SUCCESS);
    }

    // Volume + top ports + VPN summary over the replayed records.
    let records = collector.records();
    let total: u64 = records.iter().map(|r| r.bytes).sum();
    let first = records.iter().map(|r| r.start).min().expect("non-empty");
    println!(
        "total volume: {total} bytes, first flow {}",
        first.date().iso()
    );

    let mut profile = PortProfile::new();
    // Region only affects weekday labels in the profile; Central Europe is
    // the default lens for a stored trace.
    profile.add_all(records, lockdown::topology::asn::Region::CentralEurope);
    println!("top services:");
    for key in profile.top_services(8, &[]) {
        println!("  {:<12} {:>16} bytes", key.label(), profile.total(key));
    }

    let ctx = Context::new(Fidelity::Standard);
    let vpn = VpnClassifier::new(ctx.vpn_candidate_ips());
    let port_vpn: u64 = records
        .iter()
        .filter(|r| is_port_vpn(r))
        .map(|r| r.bytes)
        .sum();
    let dom_vpn: u64 = records
        .iter()
        .filter(|r| vpn.is_domain_vpn(r))
        .map(|r| r.bytes)
        .sum();
    println!("VPN bytes: port-identified {port_vpn}, domain-identified {dom_vpn}");
    Ok(ExitCode::SUCCESS)
}

/// Open the query engine over `--archive DIR` with the `--cache-mb`
/// decoded-segment budget (default 256 MiB).
fn open_query_engine(rest: &[String]) -> Result<QueryEngine, String> {
    let dir = flag(rest, "--archive").ok_or("--archive DIR required")?;
    let cache_bytes = match flag(rest, "--cache-mb") {
        None => lockdown::query::engine::DEFAULT_CACHE_BYTES,
        Some(s) => {
            let mb: u64 = s.parse().map_err(|_| format!("bad --cache-mb: {s}"))?;
            mb.saturating_mul(1024 * 1024)
        }
    };
    QueryEngine::open(Path::new(&dir), cache_bytes)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no archive manifest in {dir}"))
}

fn cmd_serve(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let addr = flag(rest, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let connections: usize = match flag(rest, "--connections") {
        None => 2048,
        Some(s) => s.parse().map_err(|_| format!("bad --connections: {s}"))?,
    };
    // Bind before touching the archive: a port conflict must be
    // diagnosable (exit 2) independently of archive health.
    let Some(listener) = bound(&addr, std::net::TcpListener::bind(&addr)) else {
        return Ok(ExitCode::from(EXIT_BIND));
    };
    let ctx = parse_context(rest)?;
    let engine = open_query_engine(rest)?;
    let key = engine.reader().key();
    if key.seed != ctx.config.seed
        || key.scenario_hash != ctx.scenario_hash()
        || key.plan_hash != suite_plan_hash(&ctx)
    {
        return Err(format!(
            "archive key mismatch: archive has seed {:#x} scenario {:#018x} plan {:#018x}, \
             this context computes seed {:#x} scenario {:#018x} plan {:#018x} — \
             pass the --fidelity/--scenario the archive was built with",
            key.seed,
            key.scenario_hash,
            key.plan_hash,
            ctx.config.seed,
            ctx.scenario_hash(),
            suite_plan_hash(&ctx),
        ));
    }
    let engine = Arc::new(engine);
    let metrics = Arc::clone(engine.metrics());
    let handler = lockdown::app::build_handler(Arc::clone(&engine), Arc::new(ctx));
    let server =
        Server::start(listener, connections, metrics, handler).map_err(|e| e.to_string())?;
    // The bound address is the first stdout line so a parent pipeline
    // can scrape the ephemeral port.
    println!("serving on {}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    wait_for_stdin_eof();
    server.shutdown(Duration::from_secs(5));
    eprint!("{}", engine.render_metrics());
    Ok(ExitCode::SUCCESS)
}

fn cmd_query(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for key in ["from", "to", "vantage", "class", "as", "port", "direction"] {
        if let Some(v) = flag(rest, &format!("--{key}")) {
            pairs.push((key.to_string(), v));
        }
    }
    let plan = QueryPlan::parse(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))?;
    let engine = open_query_engine(rest)?;
    let out = engine.execute(&plan).map_err(|e| e.to_string())?;
    println!("{}", out.render_json());
    Ok(ExitCode::SUCCESS)
}

fn cmd_loadgen(rest: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let target = flag(rest, "--target").ok_or("--target HOST:PORT required")?;
    let clients: usize = match flag(rest, "--clients") {
        None => 1000,
        Some(s) => s.parse().map_err(|_| format!("bad --clients: {s}"))?,
    };
    let duration_secs: f64 = match flag(rest, "--duration") {
        None => 5.0,
        // Refused unless the load phase's deadline is representable:
        // negative, non-finite and clock-overflowing spans all exit 1 here.
        Some(s) => {
            let fits = |d: f64| {
                Duration::try_from_secs_f64(d)
                    .is_ok_and(|span| std::time::Instant::now().checked_add(span).is_some())
            };
            match s.parse::<f64>() {
                Ok(d) if fits(d) => d,
                _ => return Err(format!("bad --duration (want seconds >= 0): {s}")),
            }
        }
    };
    let seed: u64 = match flag(rest, "--seed") {
        None => 0x10CD_2020,
        Some(s) => s.parse().map_err(|_| format!("bad --seed: {s}"))?,
    };
    let expect = match flag(rest, "--expect") {
        None => None,
        Some(path) => {
            Some(std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?)
        }
    };
    let report = loadgen::run(&LoadConfig {
        target,
        clients,
        duration_secs,
        seed,
        expect,
    })?;
    println!("{}", report.render_json());
    if report.mismatches > 0 {
        eprintln!(
            "error: served figures diverge from the expected suite output \
             ({} diverging lines across {} verified figures)",
            report.mismatches, report.figures_verified
        );
        return Ok(ExitCode::from(EXIT_MISMATCH));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_vpn_scan(_: &[String], _: &[&String]) -> Result<ExitCode, String> {
    let ctx = Context::new(Fidelity::Standard);
    let id = identify_vpn_ips(&ctx.corpus.db);
    println!(
        "corpus: {} names; candidates: {} domains -> {} addresses; eliminated {}; final {}",
        ctx.corpus.db.len(),
        id.candidate_domains.len(),
        id.raw_candidate_ips.len(),
        id.eliminated_ips.len(),
        id.vpn_ips.len()
    );
    for d in id.candidate_domains.iter().take(10) {
        println!("  {d}");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::{chaos_planes, COMMANDS, USAGE};
    use lockdown::base::fault::{Plane, KEYS};
    use std::collections::{BTreeMap, BTreeSet};

    /// [`USAGE`] is written by hand beside [`COMMANDS`] and the `--chaos`
    /// vocabulary [`KEYS`]; this is what keeps them from drifting: under
    /// each command's `lockdown NAME` entries the usage text mentions
    /// every flag of the command's row and no `--flag` the row does not
    /// define, and every `key=VALUE` of a plane the command can run and no
    /// other.
    #[test]
    fn usage_and_the_command_table_name_the_same_flags() {
        let mut documented: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut command = None;
        for line in USAGE.lines() {
            if let Some(entry) = line.strip_prefix("  lockdown ") {
                command = entry.split_whitespace().next();
            } else if !line.starts_with(' ') {
                command = None; // a heading: the text under it is no command's
            }
            let Some(command) = command else { continue };
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || "-=".contains(c)));
            let flags = words.filter_map(|word| match word.split_once('=') {
                None => (word.starts_with("--") && word.len() > 2).then_some(word),
                Some((key, value)) => value.starts_with(char::is_uppercase).then_some(key),
            });
            documented.entry(command).or_default().extend(flags);
        }
        let flag_variants = [vec![], vec!["--wire".to_string(), "--udp".to_string()]];
        let table: BTreeMap<&str, BTreeSet<&str>> = COMMANDS
            .iter()
            .map(|(name, value_flags, bool_flags, _)| {
                let flags = value_flags.split(' ').chain(bool_flags.split(' '));
                let planes: Vec<Plane> = flag_variants
                    .iter()
                    .flat_map(|rest| chaos_planes(name, rest).1.iter().copied())
                    .collect();
                let keys = KEYS
                    .iter()
                    .filter(|(_, plane, _)| !planes.is_empty() && *plane == Plane::Every)
                    .chain(KEYS.iter().filter(|(_, plane, _)| planes.contains(plane)))
                    .map(|(key, ..)| *key);
                (*name, flags.filter(|f| !f.is_empty()).chain(keys).collect())
            })
            .collect();
        assert_eq!(documented, table);
    }
}
