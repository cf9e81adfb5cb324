//! Command line: the one-run form the benchmark contract drives, `set` to
//! make repeated runs of every workload, and `compare` to judge two sets.

use crate::names::{self, WORKLOADS};
use crate::report;
use crate::stamp::Stamp;
use crate::stats;
use crate::trace;
use crate::workloads::{self, client_count, Kind, Outcome, Sizes, WorkDir};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Default workload seed: the repository's default experiment seed.
pub const DEFAULT_SEED: u64 = 0x10CD_2020;

/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = names::RUN_SECONDS;

const USAGE: &str = "usage:
  lockbench [run|trace] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
      one run of one workload; the last line of stdout is the result
  lockbench set --out FILE [--runs R] [--seed N] [--seconds S] [--workload NAME]... [--traced] [--record]
      R untraced runs of each workload on seeds N..N+R (and one traced run each with --traced);
      --record appends the medians to lockbench/history.jsonl
  lockbench compare A B
      one row per (workload, end-to-end metric): ok | regressed | unresolved
  lockbench manifest
      BENCHMARK.json as the name registry has it";

/// Parsed flags of the `run` and `set` forms.
#[derive(Debug, Default)]
struct Flags {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    runs: Option<usize>,
    record: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => flags.workloads.push(value("a workload name")?),
            "--seed" => {
                flags.seed = Some(parse_u64(&value("a number")?).ok_or("--seed needs a number")?);
            }
            "--seconds" => {
                flags.seconds =
                    Some(parse_u64(&value("a number")?).ok_or("--seconds needs a number")?);
            }
            "--trace" => {
                flags.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => flags.trace = true,
            "--smoke" => flags.smoke = true,
            "--record" => flags.record = true,
            "--out" => flags.out = Some(PathBuf::from(value("a file")?)),
            "--runs" => {
                flags.runs = Some(
                    value("a count")?
                        .parse()
                        .map_err(|_| "--runs needs a count".to_string())?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

/// The checkout's root: the benchmark is started from there.
fn checkout_root() -> PathBuf {
    std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))
}

fn print_outcome(kind: Kind, traced: bool, stamp: &Stamp, out: &Outcome) {
    println!(
        "lockbench {} ({})",
        kind.name(),
        if traced { "traced" } else { "untraced" }
    );
    println!("stamp: {}", stamp.to_json());
    for line in &out.detail {
        println!("{line}");
    }
    for (name, value) in &out.metrics {
        let (unit, better) = names::lookup(name).expect("every emitted name is registered");
        println!(
            "  {name:<44} {value:>18.4} {unit:<12} ({} is better)",
            better.word()
        );
    }
    println!(
        "checks: {} attempted, {} failed",
        out.checks.attempted, out.checks.failed
    );
}

fn run_one(flags: &Flags) -> Result<i32, String> {
    let name = match flags.workloads.as_slice() {
        [one] => one,
        _ => return Err("one --workload is required".into()),
    };
    let kind = Kind::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}: want one of {}", known.join(", "))
    })?;
    if cfg!(debug_assertions) && !flags.smoke {
        return Err("built with debug assertions: measure release builds only (cargo run --release), or pass --smoke".into());
    }
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS);
    let sizes = Sizes::new(kind, seconds, flags.smoke);
    let work = WorkDir::create()?;
    let outcome = if flags.trace {
        trace::run(kind, seed, sizes, work.path())?
    } else {
        workloads::run(kind, seed, sizes, work.path())?
    };
    let stamp = Stamp::collect(
        &checkout_root(),
        seed,
        outcome.workers,
        client_count(),
        work.path(),
    );
    print_outcome(kind, flags.trace, &stamp, &outcome);
    let result = report::result_line(
        outcome.checks.attempted,
        outcome.checks.failed,
        &outcome.metrics,
    );
    if let Some(path) = &flags.out {
        let line = report::record_line(
            kind.name(),
            seed,
            seconds,
            flags.trace,
            &stamp.to_json(),
            &result,
        );
        append_line(path, &line)?;
    }
    println!("{result}");
    Ok(i32::from(outcome.checks.failed > 0))
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Run this executable once more as a child, one workload, one seed, and
/// append its record to `out`. A process of its own per run keeps `VmHWM`
/// and the heap's history out of the next run's numbers.
fn child_run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: &Path,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    eprintln!(
        "{} seed {seed}{}: {last}",
        kind.name(),
        if traced { " traced" } else { "" }
    );
    Ok(output.status.success())
}

fn run_set(flags: &Flags) -> Result<i32, String> {
    let out = flags.out.as_deref().ok_or("set needs --out FILE")?;
    let kinds: Vec<Kind> = if flags.workloads.is_empty() {
        Kind::ALL.to_vec()
    } else {
        flags
            .workloads
            .iter()
            .map(|n| Kind::from_name(n).ok_or_else(|| format!("unknown workload {n}")))
            .collect::<Result<_, _>>()?
    };
    let runs = flags.runs.unwrap_or(5);
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS);
    let _ = std::fs::remove_file(out);
    let mut all_ok = true;
    // Workloads alternate inside each round, so slow drift of the machine
    // lands on every workload alike.
    for round in 0..runs {
        for &kind in &kinds {
            all_ok &= child_run(kind, seed + round as u64, seconds, false, flags.smoke, out)?;
        }
    }
    if flags.trace {
        for &kind in &kinds {
            all_ok &= child_run(kind, seed, seconds, true, flags.smoke, out)?;
        }
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let records = report::parse_records(&text)?;
    println!(
        "{:<15} {:<12} {:>3} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "n", "median", "q1", "q3", "min", "spread"
    );
    for w in WORKLOADS {
        for m in names::END_TO_END {
            let v = report::values_of(&records, w.name, m.name);
            if v.len() < 2 {
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(&v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            println!(
                "{:<15} {:<12} {:>3} {q2:>14.4} {q1:>14.4} {q3:>14.4} {min:>14.4} {:>7.2}%",
                w.name,
                m.name,
                v.len(),
                stats::spread(&v) * 100.0
            );
        }
    }
    if flags.record {
        let workers = records.first().map_or(0, |r| r.workers);
        let stamp = Stamp::collect(
            &checkout_root(),
            seed,
            workers,
            client_count(),
            &WorkDir::base()?,
        );
        let line = format!(
            "{{\"stamp\":{},\"seconds\":{seconds},\"runs\":{runs},\"medians\":{}}}",
            stamp.to_json(),
            report::medians_json(&records)
        );
        append_line(&checkout_root().join("lockbench/history.jsonl"), &line)?;
    }
    Ok(i32::from(!all_ok))
}

fn run_compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare takes two set files".into());
    };
    let load = |path: &String| -> Result<Vec<report::Record>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::parse_records(&text).map_err(|e| format!("{path}: {e}"))
    };
    let mut table = String::new();
    let ok = report::compare_sets(&load(a)?, &load(b)?, &mut table);
    print!("{table}");
    Ok(i32::from(!ok))
}

/// Run the command line; the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("set") => parse_flags(&args[1..]).and_then(|f| run_set(&f)),
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_one(&f)),
        Some("trace") => parse_flags(&args[1..]).and_then(|mut f| {
            f.trace = true;
            run_one(&f)
        }),
        Some("manifest") => {
            print!("{}", names::benchmark_json());
            return 0;
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return 0;
        }
        _ => parse_flags(&args).and_then(|f| run_one(&f)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lockbench: {e}\n{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contracts_flags_parse() {
        let f = parse_flags(&args(
            "--workload serve_fit --seed 0x10 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workloads, ["serve_fit"]);
        assert_eq!((f.seed, f.seconds, f.trace), (Some(16), Some(8), true));
        assert!(parse_flags(&args("--trace 2")).is_err());
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("--frobnicate")).is_err());
    }

    #[test]
    fn a_run_needs_a_known_workload() {
        assert_eq!(main(args("--seed 1")), 2);
        assert_eq!(main(args("--workload no_such --smoke")), 2);
        assert_eq!(main(args("compare only-one")), 2);
    }
}
