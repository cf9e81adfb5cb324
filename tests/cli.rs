//! The `lockdown` CLI binary as processes: every subcommand runs,
//! capture→analyze round-trips, bad input fails cleanly, and the daemons
//! (`collectd`, `serve`, `worker`, `chaosproxy`) bind, announce their
//! address, work across process boundaries and drain on stdin EOF.
//! Byte-identity between processes is held against [`plain_figures`],
//! which `tests/equivalence.rs` pins to the in-process reference.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::OnceLock;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lockdown"))
}

/// Stdout of `lockdown figures --fidelity test`, run once.
fn plain_figures() -> &'static [u8] {
    static PLAIN: OnceLock<Vec<u8>> = OnceLock::new();
    PLAIN.get_or_init(|| {
        let out = bin()
            .args(["figures", "--fidelity", "test"])
            .output()
            .expect("spawn figures");
        assert!(out.status.success());
        out.stdout
    })
}

/// A running daemon subcommand: all three streams piped, the address it
/// announced on its first stdout line (`<verb> on HOST:PORT`) parsed.
/// Dropping it kills the process, so a failing test leaks nothing.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

/// The `HOST:PORT` of the next `<verb> on HOST:PORT` stdout line.
fn announced_addr(stdout: &mut impl BufRead) -> String {
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read bound address");
    match line.trim().split_once(" on ") {
        Some((_, addr)) => addr.to_string(),
        None => panic!("unexpected announcement line {line:?}"),
    }
}

fn daemon(args: &[&str]) -> Daemon {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {args:?}: {e}"));
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let addr = announced_addr(&mut stdout);
    Daemon {
        child,
        stdout,
        addr,
    }
}

impl Daemon {
    /// Close stdin — the shutdown signal — and collect the rest of
    /// stdout, stderr and the exit status.
    fn shut_down(mut self) -> (String, String, ExitStatus) {
        drop(self.child.stdin.take());
        let (mut out, mut err) = (String::new(), String::new());
        self.stdout.read_to_string(&mut out).expect("read stdout");
        let mut stderr = self.child.stderr.take().expect("piped stderr");
        stderr.read_to_string(&mut err).expect("read stderr");
        (out, err, self.child.wait().expect("daemon exits"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The whole number written right before `label` in `text` (`"… 10
/// malformed, …"` reads 10 for `"malformed"`), so a count is compared
/// whole and never as the tail of a longer one.
fn count_before(text: &str, label: &str) -> Option<u64> {
    text.match_indices(&format!(" {label}"))
        .find_map(|(at, _)| text[..at].split_whitespace().next_back()?.parse().ok())
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("figures"));
    assert!(text.contains("vpn-scan"));
}

#[test]
fn vpn_scan_output_is_pinned() {
    // The §6 procedure end to end over the synthetic corpus: corpus size,
    // candidates, the www.-collision eliminations and the first ten
    // domains, byte for byte.
    let out = bin().arg("vpn-scan").output().expect("spawn");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "corpus: 489 names; candidates: 100 domains -> 98 addresses; eliminated 8; final 90
  companyvpn3.cloud-0.net
  companyvpn3.enterprise-2.org
  companyvpn3.enterprise-24.com
  companyvpn3.enterprise-31.com.es
  companyvpn3.enterprise-33.com
  companyvpn3.nren-3.eu
  companyvpn3.nren-5.net
  companyvpn3.nren-6.com
  companyvpn31.cloud-3.org
  companyvpn31.enterprise-24.com
"
    );
}

#[test]
fn unknown_command_fails() {
    // `collect` was a second `figures --wire`; it is gone.
    for name in ["frobnicate", "collect"] {
        let out = bin().arg(name).output().expect("spawn");
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    }
}

#[test]
fn registry_summarizes() {
    let out = bin().arg("registry").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hypergiant"));
    assert!(text.contains("eyeball ISP"));
}

#[test]
fn figures_single_table_at_test_fidelity() {
    let out = bin()
        .args(["figures", "--fidelity", "test", "table1", "table2"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1"));
    assert!(text.contains("Netflix"));
    // Only the requested outputs appear.
    assert!(!text.contains("Fig. 1"));
}

#[test]
fn capture_analyze_roundtrip() {
    let dir = std::env::temp_dir().join(format!("lockdown-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("edu.lkdn");

    let out = bin()
        .args([
            "capture",
            "--vantage",
            "EDU",
            "--date",
            "2020-03-17",
            "--format",
            "v5",
            "--out",
        ])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "capture failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = bin()
        .args(["analyze", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("records"), "{text}");
    assert!(text.contains("top services"));
    assert_eq!(count_before(&text, "malformed"), Some(0), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn capture_validates_arguments() {
    for bad in [
        vec!["capture", "--date", "2020-03-17", "--out", "/tmp/x"],
        vec!["capture", "--vantage", "IXP-CE", "--out", "/tmp/x"],
        vec![
            "capture",
            "--vantage",
            "NOPE",
            "--date",
            "2020-03-17",
            "--out",
            "/tmp/x",
        ],
        vec![
            "capture",
            "--vantage",
            "IXP-CE",
            "--date",
            "2020-13-01",
            "--out",
            "/tmp/x",
        ],
        vec![
            "capture",
            "--vantage",
            "IXP-CE",
            "--date",
            "2020-02-30",
            "--out",
            "/tmp/x",
        ],
        vec![
            "capture",
            "--vantage",
            "IXP-CE",
            "--date",
            "2020-03-17",
            "--sample",
            "0",
            "--out",
            "/tmp/x",
        ],
    ] {
        let out = bin().args(&bad).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "should fail cleanly: {bad:?}");
    }
}

#[test]
fn analyze_rejects_garbage() {
    let dir = std::env::temp_dir().join(format!("lockdown-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("garbage.lkdn");
    std::fs::write(&path, b"this is not a trace").expect("write");
    let out = bin()
        .args(["analyze", "--trace"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every subcommand `lockdown help` names checks its flags against its
/// own row of the command table before doing anything: an undefined flag
/// exits 1 naming it, with the usage text following.
#[test]
fn every_subcommand_rejects_unknown_flags_with_usage() {
    let help = bin().arg("help").output().expect("spawn");
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    let mut commands: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  lockdown "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    commands.sort_unstable();
    commands.dedup();
    assert_eq!(commands.len(), 15, "subcommands in USAGE: {commands:?}");

    let mut cases: Vec<Vec<&str>> = commands.iter().map(|c| vec![*c, "--frobnicate"]).collect();
    cases.extend([
        // A typo must not silently capture unsampled.
        vec![
            "capture",
            "--vantage",
            "IXP-CE",
            "--date",
            "2020-03-25",
            "--smaple",
        ],
        vec!["analyze", "--bogus"],
        vec!["figures", "--fidelity", "test", "--frobnicate"],
        vec!["scenarios", "list", "--frobnicate"],
        // Every wire pass keeps the conservation ledger; there is no
        // switch left to ask for it.
        vec!["figures", "--fidelity", "test", "--wire", "--audit"],
    ]);
    for args in cases {
        let culprit = args.last().expect("non-empty");
        let out = bin().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag: {culprit}")),
            "{args:?}: {err}"
        );
        assert!(
            err.contains("USAGE"),
            "{args:?}: usage text must follow: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn figures_rejects_unknown_names_and_prints_nothing() {
    for args in [&["nosuchfig"][..], &["fig2", "fig77", "table1"][..]] {
        let out = bin()
            .args(["figures", "--fidelity", "test"])
            .args(args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must print no figure");
        let err = String::from_utf8_lossy(&out.stderr);
        let unknown = if args.len() == 1 {
            "nosuchfig"
        } else {
            "fig77"
        };
        assert!(
            err.contains(&format!("unknown figure '{unknown}'")),
            "{err}"
        );
        assert!(err.contains("fig2 fig3") && err.contains("edu"), "{err}");
    }
    let out = bin()
        .args(["figures", "--fidelity", "high", "table2"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown fidelity: high"));
}

#[test]
fn figures_selection_equals_the_full_suite_sections() {
    let run = |names: &[&str]| {
        let out = bin()
            .args(["figures", "--fidelity", "test"])
            .args(names)
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{names:?}");
        String::from_utf8(out.stdout).expect("utf-8 figures")
    };
    let full = String::from_utf8_lossy(plain_figures());
    // Given out of order on purpose: sections print in suite order.
    let selected = run(&["fig7", "fig2"]);
    assert!(!selected.is_empty() && selected.len() < full.len());
    let (fig2, rest) = selected
        .split_once("Fig. 7")
        .expect("both groups render, fig2 first");
    assert!(fig2.contains("Fig. 2"));
    assert!(full.contains(fig2), "fig2a-c are the suite's bytes");
    assert!(full.contains(&format!("Fig. 7{rest}")), "fig7a-b likewise");
}

/// The value of one `name value` line of a metrics snapshot.
fn metric(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing:\n{snapshot}"))
}

/// `figures --wire` keeps the conservation ledger on every pass: stdout
/// is the plain suite's, and the audit closes on stderr.
#[test]
fn figures_wire_prints_the_plain_figures_and_a_clean_audit() {
    let out = bin()
        .args(["figures", "--fidelity", "test", "--wire"])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert_eq!(out.stdout, plain_figures(), "zero faults change no byte");
    assert!(
        err.contains("conservation audit: 20592 cells, 0 violations"),
        "{err}"
    );
}

#[test]
fn figures_wire_under_faults_drops_and_still_audits_clean() {
    let out = bin()
        .args(["figures", "--fidelity", "test", "--wire"])
        .args(["--chaos", "drop=0.02,dup=0.01,restart=64"])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(
        metric(&err, "transport_datagrams_dropped_total") > 0,
        "{err}"
    );
    assert!(
        err.contains("conservation audit: 20592 cells, 0 violations"),
        "{err}"
    );

    // The spec accepts exactly the range each fault row honours, and a
    // key of a plane the command does not run, naming key and command.
    for (args, needles) in [
        (
            &[
                "figures",
                "--fidelity",
                "test",
                "--wire",
                "--chaos",
                "drop=0.99",
            ][..],
            &["drop=0.99", "outside [0, 0.95]"][..],
        ),
        (
            &["figures", "--fidelity", "test", "--chaos", "drop=0.1"],
            &["\"drop\"", "`figures without --wire`"],
        ),
        (
            &[
                "chaosproxy",
                "--upstream",
                "127.0.0.1:9",
                "--chaos",
                "panic=0.1",
            ],
            &["\"panic\"", "`chaosproxy`"],
        ),
        (
            &["worker", "--fidelity", "test", "--chaos", "trunc=0.1"],
            &["\"trunc\"", "`worker`"],
        ),
    ] {
        let out = bin().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
        let err = String::from_utf8_lossy(&out.stderr);
        for needle in needles {
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}

#[test]
fn store_subcommand_validates_input() {
    let out = bin().args(["store", "inspect"]).output().expect("spawn");
    assert!(!out.status.success(), "--archive is required");

    let dir = std::env::temp_dir().join(format!("lockdown-cli-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = bin()
        .args(["store", "verify", "--archive"])
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "manifest-less dir is not an archive");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no archive manifest"));
    std::fs::remove_dir_all(&dir).ok();

    // An archive of the one-file-per-cell layout is refused by version,
    // not misread.
    for action in ["inspect", "verify"] {
        let out = bin()
            .args(["store", action, "--archive"])
            .arg(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/archive-pr15"
            ))
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{action}");
        assert!(out.stdout.is_empty(), "{action}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("manifest.lks is format version 1; this build reads version 4"),
            "{action}: {err}"
        );
    }
}

#[test]
fn figures_under_chaos_exits_degraded_with_report() {
    // High panic rate + 1 attempt quarantines deterministically; the run
    // must still render every figure and exit with the documented
    // degraded code 3 (not 0, not the generic failure 1).
    let out = bin()
        .args([
            "figures",
            "--fidelity",
            "test",
            "--chaos",
            "seed=7,panic=0.9,attempts=1,backoff=0",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3), "degraded exit code");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Fig. 1"), "figures still render");
    assert!(
        text.contains("[degraded:"),
        "affected sections carry the partial-data annotation"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("DEGRADED PASS"), "{err}");
    assert!(err.contains("quarantined [wire"), "{err}");
    assert!(err.contains("supervisor_quarantined_cells"), "{err}");
}

#[test]
fn total_quarantine_degrades_figures_and_coordinate_alike() {
    // Every cell panics on its one attempt: a figure that no data can
    // build renders as one named section instead of aborting the pass,
    // and a thread link and a process link end the pass the same way.
    let chaos = ["--chaos", "seed=3,panic=1,attempts=1,backoff=0"];
    let figures = bin()
        .args(["figures", "--fidelity", "test"])
        .args(chaos)
        .output()
        .expect("spawn figures");
    let coordinated = bin()
        .args(["coordinate", "--fidelity", "test", "--workers", "2"])
        .args(chaos)
        .output()
        .expect("spawn coordinate");
    for out in [&figures, &coordinated] {
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "degraded exit code: {err}");
        assert!(err.contains("DEGRADED PASS"), "{err}");
        // A figure's caught panic is named in its section, not on stderr.
        assert!(!err.contains("panicked"), "{err}");
    }
    assert_eq!(
        String::from_utf8_lossy(&coordinated.stdout),
        String::from_utf8_lossy(&figures.stdout),
        "a degraded pass reads the same through either link"
    );
    // All 22 sections: the two tables, which demand no cells, and one
    // degraded note closing each of the 20 figures.
    let text = String::from_utf8_lossy(&figures.stdout);
    assert!(text.starts_with("Table 2"), "{text}");
    assert!(text.contains("\nTable 1"), "{text}");
    let notes = text.lines().filter(|l| l.starts_with("[degraded:"));
    assert_eq!(notes.count(), 20, "{text}");
    assert!(text.contains("[degraded: fig2b not assembled — "), "{text}");
}

#[test]
fn figures_zero_chaos_supervision_exits_clean() {
    let out = bin()
        .args(["figures", "--fidelity", "test", "--chaos", "seed=0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "zero chaos is a clean pass");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("supervisor_retries_total 0"), "{err}");
    assert!(!err.contains("DEGRADED"), "{err}");
}

#[test]
fn figures_rejects_bad_chaos_specs() {
    for bad in [
        "panic=1.5",
        "attempts=0",
        "frobnicate=1",
        "panic",
        "seed=notanumber",
    ] {
        let out = bin()
            .args(["figures", "--fidelity", "test", "--chaos", bad])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "should fail: {bad}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("bad --chaos spec"),
            "{bad}"
        );
    }
}

#[test]
fn scenarios_requires_an_action() {
    let out = bin().arg("scenarios").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("list | show FILE | --matrix"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn scenarios_list_and_show_shipped_files() {
    let out = bin().args(["scenarios", "list"]).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("covid-spring-2020"), "{text}");
    assert!(text.contains("hypergiant-outage"), "{text}");
    assert!(
        !text.contains("INVALID"),
        "shipped files must parse: {text}"
    );

    let out = bin()
        .args(["scenarios", "show", "scenarios/covid-spring-2020.toml"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[scenario]"), "{text}");
    assert!(text.contains("name = \"covid-spring-2020\""), "{text}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("fingerprint"),
        "summary goes to stderr"
    );
}

#[test]
fn figures_rejects_bad_scenario_files() {
    let out = bin()
        .args([
            "figures",
            "--fidelity",
            "test",
            "--scenario",
            "/nonexistent/nope.toml",
            "table2",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope.toml"));

    // A malformed measure file must fail with the offending line named.
    let dir = std::env::temp_dir().join(format!("lockdown-cli-scn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bad = dir.join("bad.toml");
    let text = std::fs::read_to_string("scenarios/covid-spring-2020.toml")
        .expect("shipped file")
        .replace("release = 0.55", "release = 7.0");
    std::fs::write(&bad, text).expect("write");
    let out = bin()
        .args(["figures", "--fidelity", "test", "--scenario"])
        .arg(&bad)
        .arg("table2")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line "), "error must name a line: {err}");
    assert!(err.contains("outside [0, 1]"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenarios_matrix_lane0_is_a_plain_figures_run() {
    let dir = std::env::temp_dir().join(format!("lockdown-cli-matrix-{}", std::process::id()));
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = bin()
        .args([
            "scenarios",
            "--matrix",
            "scenarios/covid-spring-2020.toml",
            "scenarios/hypergiant-outage.toml",
            "--fidelity",
            "test",
            "--out",
        ])
        .arg(&out_dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("matrix: 2 scenarios"), "{err}");
    assert!(err.contains("summed over lanes"), "{err}");
    assert!(err.contains("sections differ"), "{err}");

    let covid = std::fs::read(out_dir.join("00-covid-spring-2020.txt")).expect("lane 0 output");
    let outage = std::fs::read(out_dir.join("01-hypergiant-outage.txt")).expect("lane 1 output");
    assert_eq!(
        covid,
        plain_figures(),
        "lane 0 must equal a plain figures run"
    );
    assert_ne!(covid, outage, "per-scenario outputs must differ");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_gc_dry_run_previews_without_deleting() {
    let dir = std::env::temp_dir().join(format!("lockdown-cli-gc-{}", std::process::id()));
    let packs = dir.join("packs");
    std::fs::create_dir_all(&packs).expect("tmp dir");
    // A manifest-less archive (as a kill -9 leaves behind): every pack
    // is an orphan, and gc must work without a manifest.
    let orphan = packs.join("pack-1-18262.lkp");
    std::fs::write(&orphan, b"leftover").expect("write orphan");

    let out = bin()
        .args(["store", "gc", "--archive"])
        .arg(&dir)
        .arg("--dry-run")
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("would remove 1"), "{text}");
    assert!(orphan.exists(), "dry run must not delete");

    let out = bin()
        .args(["store", "gc", "--archive"])
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("removed 1"));
    assert!(!orphan.exists(), "real gc deletes the orphan");

    // A version-1 archive that `figures --archive` rebuilt keeps its
    // one-file-per-cell segments/ directory. No index of this version can
    // name a file there, so each is an orphan, and a live sweep removes
    // the emptied directory too.
    let old = std::env::temp_dir().join(format!("lockdown-cli-gc-v1-{}", std::process::id()));
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/archive-pr15");
    std::fs::create_dir_all(old.join("segments")).expect("tmp dir");
    std::fs::copy(fixture.join("manifest.lks"), old.join("manifest.lks")).expect("copy");
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(fixture.join("segments")).expect("fixture") {
        let name = entry.expect("entry").file_name();
        std::fs::copy(
            fixture.join("segments").join(&name),
            old.join("segments").join(&name),
        )
        .expect("copy");
        segments.push(format!("  segments/{}", name.to_string_lossy()));
    }
    segments.sort();
    assert_eq!(segments.len(), 4);
    let out = bin()
        .args(["figures", "--fidelity", "test", "--archive"])
        .arg(&old)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let out = bin()
        .args(["store", "gc", "--dry-run", "--archive"])
        .arg(&old)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("would remove 4 orphan files"), "{text}");
    assert_eq!(text.lines().skip(1).collect::<Vec<_>>(), segments, "{text}");
    assert!(old.join("segments").exists(), "dry run must not delete");
    let out = bin()
        .args(["store", "gc", "--archive"])
        .arg(&old)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("removed 4"));
    assert!(
        !old.join("segments").exists(),
        "gc removes the emptied directory"
    );
    let out = bin()
        .args(["store", "verify", "--archive"])
        .arg(&old)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "the rebuilt archive still verifies");
    std::fs::remove_dir_all(&old).ok();

    // --dry-run is gc-only.
    let out = bin()
        .args(["store", "inspect", "--archive"])
        .arg(&dir)
        .arg("--dry-run")
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_bind_failure_exits_2() {
    // Occupy a port, then ask serve to bind it. The bind happens before
    // the archive is opened, so the (nonexistent) archive path is never
    // the failure — the documented bind exit code 2 is.
    let occupied = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = occupied.local_addr().expect("addr").to_string();
    let out = bin()
        .args(["serve", "--archive", "/nonexistent", "--addr", &addr])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "bind conflict must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("binding"), "{err}");
}

#[test]
fn collectd_bind_failure_exits_2() {
    // Occupy a UDP port, then ask collectd to bind it: the documented
    // bind exit code 2, same contract as serve.
    let occupied = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let addr = occupied.local_addr().expect("addr").to_string();
    let out = bin()
        .args(["collectd", "--listen", &addr])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "bind conflict must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("binding"), "{err}");
}

#[test]
fn collectd_port_range_past_65535_exits_2() {
    // Socket i binds PORT+i: a range that would wrap is refused before
    // any socket is bound, never moved onto an ephemeral port.
    let out = bin()
        .args(["collectd", "--listen", "127.0.0.1:65535", "--sockets", "2"])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty(), "nothing was bound");
    assert!(err.contains("65535..=65536"), "{err}");
}

#[test]
fn collectd_stdin_eof_drains_and_accounts_received_datagrams() {
    let collectd = daemon(&["collectd", "--sockets", "1", "--shards", "2"]);

    // A garbage datagram must still be accounted: received at the
    // socket, then counted malformed by a shard — never silently lost.
    let sender = std::net::UdpSocket::bind("127.0.0.1:0").expect("sender");
    sender
        .send_to(b"not a flow export", &collectd.addr)
        .expect("send");
    // Loopback delivery is synchronous, but give the receiver thread
    // time to pull the datagram off the socket before the drain.
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Closing stdin is the shutdown signal: drain, summarize, exit 0.
    let (summary, metrics, status) = collectd.shut_down();
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
    assert!(
        summary.contains("1 datagrams received") && summary.contains("1 malformed"),
        "summary must account the garbage datagram: {summary:?}"
    );
    assert!(
        metrics.contains("socket_datagrams_received_total 1"),
        "metrics on stderr must reflect the receive: {metrics}"
    );
}

#[test]
fn collectd_soak_smoke_reports_clean_audit() {
    let out = bin()
        .args(["collectd", "--soak", "--cells", "1", "--records", "5000"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"records_sent\": 5000"), "{json}");
    assert!(json.contains("\"audit_clean\": true"), "{json}");
}

#[test]
fn export_process_feeds_collectd_and_conservation_closes() {
    // One IPFIX cell, then many cells in each format: an exporter's
    // sequences run on from cell to cell, so later cells are neither
    // refused before boot (v5, v9) nor rejected as duplicates.
    for (format, cells, records) in [
        ("ipfix", 1, 20_000),
        ("ipfix", 3, 200),
        ("v5", 30, 200),
        ("v9", 30, 200),
    ] {
        export_reconciles_with_collectd(format, cells, records);
    }
}

fn export_reconciles_with_collectd(format: &str, cells: u64, records: u64) {
    let case = format!("{format}, {cells} cells of {records}");
    // A daemon process with a generous kernel buffer (the exporter is a
    // separate process with no flow-control channel back).
    let mut collectd = daemon(&[
        "collectd",
        "--format",
        format,
        "--sockets",
        "2",
        "--rcvbuf",
        "4194304",
    ]);
    let second = announced_addr(&mut collectd.stdout);
    let targets = [collectd.addr.as_str(), second.as_str()];

    // A separate exporter process pushes the cells at the daemon.
    let out = bin()
        .args(["export", "--format", format, "--target", &targets.join(",")])
        .args([
            "--cells",
            &cells.to_string(),
            "--records",
            &records.to_string(),
        ])
        .output()
        .expect("spawn export");
    assert!(
        out.status.success(),
        "{case}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    // "export: R records in D datagrams (B bytes) over C cells"
    let words: Vec<&str> = summary.split_whitespace().collect();
    let sent = cells * records;
    assert_eq!(words[0], "export:", "{summary}");
    assert_eq!(words[1], sent.to_string(), "{case}: {summary}");
    let datagrams: u64 = words[4].parse().unwrap_or_else(|_| panic!("{summary}"));
    assert!(datagrams > 0, "{summary}");

    // Let the receivers pull everything off the sockets, then drain.
    std::thread::sleep(std::time::Duration::from_millis(700));
    let (rest, _, status) = collectd.shut_down();
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");

    // Cross-process conservation: every datagram and record the exporter
    // printed shows up in the daemon's drain summary, with zero losses
    // at any of the three drop sites and no duplicates.
    assert_eq!(
        count_before(&rest, "datagrams received (0 truncated)"),
        Some(datagrams),
        "{case}: sent {datagrams}: {rest:?}"
    );
    assert_eq!(
        count_before(&rest, "records accepted"),
        Some(sent),
        "{case}: all records must land: {rest:?}"
    );
    for label in ["malformed", "queue-dropped", "duplicate-rejected"] {
        assert_eq!(count_before(&rest, label), Some(0), "{case}: {rest:?}");
    }
}

#[test]
fn coordinate_validates_worker_topology_flags() {
    // Neither --workers nor --attach: refused with guidance.
    let out = bin()
        .args(["coordinate", "--fidelity", "test"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--workers") && err.contains("--attach"),
        "{err}"
    );

    // Both at once: also refused (ambiguous topology).
    let out = bin()
        .args(["coordinate", "--workers", "2", "--attach", "127.0.0.1:1"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn coordinate_spawned_workers_render_byte_identical_figures() {
    let sharded = bin()
        .args(["coordinate", "--fidelity", "test", "--workers", "3"])
        .output()
        .expect("spawn coordinate");
    assert!(
        sharded.status.success(),
        "{}",
        String::from_utf8_lossy(&sharded.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&sharded.stdout),
        String::from_utf8_lossy(plain_figures()),
        "coordinated figures must be byte-identical to the single process"
    );
    let err = String::from_utf8_lossy(&sharded.stderr);
    assert!(err.contains("coordinated 3 workers"), "{err}");
    assert!(err.contains("0 ranges quarantined"), "{err}");
}

/// The number in front of `what` in a coordinator summary line
/// (`… 0 reassigned, 1 reconnects, 2 ranges resumed`).
fn summary_count(stderr: &str, what: &str) -> u64 {
    stderr
        .split(what)
        .next()
        .and_then(|before| before.split_whitespace().last())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count before {what:?}: {stderr}"))
}

/// One real worker process, a seeded chaos proxy process in front of it,
/// and a coordinator process attached through the proxy.
fn coordinate_through_chaosproxy(chaos: &str) -> (Daemon, Daemon, std::process::Output) {
    let worker = daemon(&["worker", "--listen", "127.0.0.1:0", "--fidelity", "test"]);
    let proxy = daemon(&["chaosproxy", "--upstream", &worker.addr, "--chaos", chaos]);
    let out = bin()
        .args(["coordinate", "--fidelity", "test", "--attach", &proxy.addr])
        .output()
        .expect("spawn coordinate");
    (worker, proxy, out)
}

#[test]
fn mid_frame_cut_between_processes_resumes_byte_identically() {
    // The proxy severs the first bulk result frame halfway. The
    // coordinator must reconnect and re-adopt the worker's retained
    // slice: byte-identical figures, at least one resumed range, zero
    // recomputed (reassigned) ranges.
    let (worker, proxy, out) = coordinate_through_chaosproxy("seed=1,cut-payload=512");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(plain_figures()),
        "resume must not change a byte"
    );
    assert!(summary_count(&err, " reconnects") >= 1, "{err}");
    assert!(summary_count(&err, " ranges resumed") >= 1, "{err}");
    assert!(err.contains(" 0 reassigned"), "{err}");
    assert!(err.contains(" 0 ranges quarantined"), "{err}");

    // Stdin EOF shuts the proxy down and flushes its fault ledger: the
    // one-shot cut is accounted as exactly one truncation.
    let (_, ledger, status) = proxy.shut_down();
    assert_eq!(status.code(), Some(0), "{ledger}");
    assert!(
        ledger.lines().any(|l| l == "wirechaos_truncated 1"),
        "{ledger}"
    );
    // The coordinator shut the worker down when the pass completed.
    let (_, worker_err, status) = worker.shut_down();
    assert_eq!(status.code(), Some(0), "{worker_err}");
}

#[test]
fn certain_corruption_between_processes_degrades_with_exit_3() {
    // corrupt=1 with min-len=512 flips a byte in every bulk frame and
    // leaves the small control frames alone: the handshake succeeds,
    // every result is rejected by the frame CRC, and the run must end in
    // the named degraded outcome — never a hang, never wrong bytes.
    let (_worker, proxy, out) = coordinate_through_chaosproxy("seed=3,corrupt=1,min-len=512");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "degraded exit code: {err}");
    assert!(err.contains("DEGRADED"), "{err}");

    let (_, ledger, status) = proxy.shut_down();
    assert_eq!(status.code(), Some(0), "{ledger}");
    let corrupted = ledger
        .lines()
        .find_map(|l| l.strip_prefix("wirechaos_corrupted "))
        .and_then(|n| n.parse::<u64>().ok());
    assert!(corrupted >= Some(1), "{ledger}");
    // The worker lingers in its reconnect window; dropping it ends it.
}

#[test]
fn serve_loadgen_roundtrip_and_mismatch_exit_4() {
    let dir = std::env::temp_dir().join(format!("lockdown-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive = dir.join("arch");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    // Build the archive and capture the expected suite stdout.
    let out = bin()
        .args(["figures", "--fidelity", "test", "--archive"])
        .arg(&archive)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, plain_figures(), "spilling changes no figure");
    let expected = dir.join("expected.txt");
    std::fs::write(&expected, &out.stdout).expect("expected stdout");
    // The archive that pass published re-reads and CRC-checks clean.
    let out = bin()
        .args(["store", "verify", "--archive"])
        .arg(&archive)
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let garbage = dir.join("garbage.txt");
    std::fs::write(&garbage, b"not the suite\n").expect("garbage");

    // Serve on an ephemeral port; stdin stays open to keep it running.
    let archive_arg = archive.to_str().expect("utf-8 temp path");
    let serve = daemon(&[
        "serve",
        "--fidelity",
        "test",
        "--archive",
        archive_arg,
        "--addr",
        "127.0.0.1:0",
    ]);
    let addr = &serve.addr;

    // Matching expectation: exit 0, zero mismatches reported.
    let out = bin()
        .args(["loadgen", "--target", addr, "--expect"])
        .arg(&expected)
        .output()
        .expect("spawn loadgen");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("\"mismatches\": 0"), "{report}");

    // Garbage expectation: the documented mismatch exit code 4.
    let out = bin()
        .args(["loadgen", "--target", addr, "--expect"])
        .arg(&garbage)
        .output()
        .expect("spawn loadgen");
    assert_eq!(out.status.code(), Some(4), "mismatch must exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("diverge"));

    // Closing stdin is the shutdown signal: serve must exit 0.
    let (_, _, status) = serve.shut_down();
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");

    std::fs::remove_dir_all(&dir).ok();
}
