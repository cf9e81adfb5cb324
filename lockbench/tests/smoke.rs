//! Drives the built `lockbench` through every workload in `--smoke` mode
//! (one set-up, one pass, one cold start, 40 requests, no per-layer loops),
//! untraced and traced: the plumbing and the byte checks of every workload
//! run without paying for a measurement.

use lockbench::json::{self, Value};
use lockbench::names::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

fn smoke(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_lockbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("lockbench starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn assert_result(result: &Value, workload: &str, expected: &[&str]) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let mut got: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want = expected.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{workload}: emitted names equal the registry");
    for (name, m) in metrics {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
    }
}

#[test]
fn every_workload_runs_checks_and_emits_exactly_the_registered_names() {
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for w in WORKLOADS {
        let untraced = smoke(w.name, "0");
        assert_result(&untraced, w.name, &end_to_end);
        let metrics = untraced.get("metrics").unwrap();
        for name in &end_to_end {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(value.unwrap() > 0.0, "{}: {name} is never zero", w.name);
        }
        assert_result(&smoke(w.name, "1"), w.name, &per_layer);
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_lockbench"))
        .args([
            "--workload",
            "no_such",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("lockbench starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
