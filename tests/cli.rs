//! Smoke tests for the `lockdown` CLI binary: every subcommand runs,
//! capture→analyze round-trips, and bad input fails cleanly.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lockdown"))
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
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
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
    assert!(text.contains("0 malformed"));

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
    ] {
        let out = bin().args(&bad).output().expect("spawn");
        assert!(!out.status.success(), "should fail: {bad:?}");
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
    assert_eq!(commands.len(), 16, "subcommands in USAGE: {commands:?}");

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
        // Valid for `figures`, meaningless for `collect` (always wired):
        // rejected, not silently ignored.
        vec!["collect", "--fidelity", "test", "--wire"],
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
    let full = run(&[]);
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

    let plain = bin()
        .args(["figures", "--fidelity", "test"])
        .output()
        .expect("spawn figures");
    assert!(plain.status.success());
    let covid = std::fs::read(out_dir.join("00-covid-spring-2020.txt")).expect("lane 0 output");
    let outage = std::fs::read(out_dir.join("01-hypergiant-outage.txt")).expect("lane 1 output");
    assert_eq!(covid, plain.stdout, "lane 0 must equal a plain figures run");
    assert_ne!(covid, outage, "per-scenario outputs must differ");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_gc_dry_run_previews_without_deleting() {
    let dir = std::env::temp_dir().join(format!("lockdown-cli-gc-{}", std::process::id()));
    let seg_dir = dir.join("segments");
    std::fs::create_dir_all(&seg_dir).expect("tmp dir");
    // A manifest-less archive (as a kill -9 leaves behind): every segment
    // is an orphan, and gc must work without a manifest.
    let orphan = seg_dir.join("seg-1-18262-00.lks");
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
fn collectd_stdin_eof_drains_and_accounts_received_datagrams() {
    use std::io::{BufRead, BufReader, Read};

    let mut daemon = bin()
        .args(["collectd", "--sockets", "1", "--shards", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn collectd");
    let mut stdout = BufReader::new(daemon.stdout.take().expect("collectd stdout"));
    let mut first_line = String::new();
    stdout
        .read_line(&mut first_line)
        .expect("read bound address");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {first_line:?}"))
        .to_string();

    // A garbage datagram must still be accounted: received at the
    // socket, then counted malformed by a shard — never silently lost.
    let sender = std::net::UdpSocket::bind("127.0.0.1:0").expect("sender");
    sender.send_to(b"not a flow export", &addr).expect("send");
    // Loopback delivery is synchronous, but give the receiver thread
    // time to pull the datagram off the socket before the drain.
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Closing stdin is the shutdown signal: drain, summarize, exit 0.
    drop(daemon.stdin.take());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read summary");
    let status = daemon.wait().expect("collectd exits");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
    assert!(
        rest.contains("1 datagrams received") && rest.contains("1 malformed"),
        "summary must account the garbage datagram: {rest:?}"
    );
    let mut err = String::new();
    daemon
        .stderr
        .take()
        .expect("collectd stderr")
        .read_to_string(&mut err)
        .expect("read metrics");
    assert!(
        err.contains("socket_datagrams_received_total 1"),
        "metrics on stderr must reflect the receive: {err}"
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
    use std::io::{BufRead, BufReader, Read};

    // A daemon process with a generous kernel buffer (the exporter is a
    // separate process with no flow-control channel back).
    let mut daemon = bin()
        .args(["collectd", "--sockets", "2", "--rcvbuf", "4194304"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn collectd");
    let mut stdout = BufReader::new(daemon.stdout.take().expect("collectd stdout"));
    let mut targets = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read bound address");
        targets.push(
            line.trim()
                .strip_prefix("listening on ")
                .unwrap_or_else(|| panic!("unexpected line: {line:?}"))
                .to_string(),
        );
    }

    // A separate exporter process pushes one cell at the daemon.
    let out = bin()
        .args(["export", "--target", &targets.join(",")])
        .args(["--cells", "1", "--records", "20000"])
        .output()
        .expect("spawn export");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    // "export: R records in D datagrams (B bytes) over 1 cells"
    let words: Vec<&str> = summary.split_whitespace().collect();
    assert_eq!(words[0], "export:", "{summary}");
    assert_eq!(words[1], "20000", "{summary}");
    let datagrams: u64 = words[4].parse().unwrap_or_else(|_| panic!("{summary}"));
    assert!(datagrams > 0, "{summary}");

    // Let the receivers pull everything off the sockets, then drain.
    std::thread::sleep(std::time::Duration::from_millis(700));
    drop(daemon.stdin.take());
    let mut rest = String::new();
    stdout
        .read_to_string(&mut rest)
        .expect("read drain summary");
    let status = daemon.wait().expect("collectd exits");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");

    // Cross-process conservation: every datagram and record the exporter
    // printed shows up in the daemon's drain summary, with zero losses
    // at any of the three drop sites.
    assert!(
        rest.contains(&format!("{datagrams} datagrams received (0 truncated)")),
        "sent {datagrams}: {rest:?}"
    );
    assert!(
        rest.contains("20000 records accepted"),
        "all records must land: {rest:?}"
    );
    assert!(rest.contains("0 malformed"), "{rest:?}");
    assert!(rest.contains("0 queue-dropped"), "{rest:?}");
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
    let single = bin()
        .args(["figures", "--fidelity", "test"])
        .output()
        .expect("spawn figures");
    assert!(single.status.success());

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
        String::from_utf8_lossy(&single.stdout),
        "coordinated figures must be byte-identical to the single process"
    );
    let err = String::from_utf8_lossy(&sharded.stderr);
    assert!(err.contains("coordinated 3 workers"), "{err}");
    assert!(err.contains("0 ranges quarantined"), "{err}");
}

#[test]
fn serve_loadgen_roundtrip_and_mismatch_exit_4() {
    use std::io::{BufRead, BufReader};

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
    let expected = dir.join("expected.txt");
    std::fs::write(&expected, &out.stdout).expect("expected stdout");
    let garbage = dir.join("garbage.txt");
    std::fs::write(&garbage, b"not the suite\n").expect("garbage");

    // Serve on an ephemeral port; keep stdin open to keep it running.
    let mut serve = bin()
        .args(["serve", "--fidelity", "test", "--archive"])
        .arg(&archive)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut first_line = String::new();
    BufReader::new(serve.stdout.take().expect("serve stdout"))
        .read_line(&mut first_line)
        .expect("read bound address");
    let addr = first_line
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected first line: {first_line:?}"))
        .to_string();

    // Matching expectation: exit 0, zero mismatches reported.
    let out = bin()
        .args(["loadgen", "--target", &addr, "--clients", "2"])
        .args(["--duration", "0", "--expect"])
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
        .args(["loadgen", "--target", &addr, "--clients", "0"])
        .args(["--duration", "0", "--expect"])
        .arg(&garbage)
        .output()
        .expect("spawn loadgen");
    assert_eq!(out.status.code(), Some(4), "mismatch must exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("diverge"));

    // Closing stdin is the shutdown signal: serve must exit 0.
    drop(serve.stdin.take());
    let status = serve.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");

    std::fs::remove_dir_all(&dir).ok();
}
