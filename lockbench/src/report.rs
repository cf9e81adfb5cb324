//! Result lines, run records, and the comparison of two sets of runs.

use crate::json::{self, Value};
use crate::names::{self, Better};
use crate::stats;
use std::collections::BTreeMap;

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all the digits it was measured with.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                json::number(*value),
                json::quote(names::lookup(name).map_or("count", |(unit, _)| unit))
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

/// One run as `set` stores it: the result line's members plus what was run.
pub fn record_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    stamp_json: &str,
    result: &str,
) -> String {
    let result = result.trim();
    let members = result
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or(result);
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"stamp\":{stamp_json},{members}}}",
        json::quote(workload),
        u8::from(traced),
    )
}

/// One parsed run record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Whether every check passed.
    pub correct: bool,
    /// Engine worker threads the run's stamp recorded.
    pub workers: usize,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parse the records of a set file (one JSON object per line).
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = json::parse(line)?;
            let field = |k: &str| v.get(k).ok_or_else(|| format!("record without `{k}`"));
            let mut metrics = BTreeMap::new();
            for (name, m) in field("metrics")?
                .as_object()
                .ok_or("`metrics` is no object")?
            {
                if let Some(value) = m.get("value").and_then(Value::as_f64) {
                    metrics.insert(name.clone(), value);
                }
            }
            Ok(Record {
                workload: field("workload")?
                    .as_str()
                    .ok_or("`workload` is no string")?
                    .to_string(),
                seed: field("seed")?.as_f64().ok_or("`seed` is no number")? as u64,
                traced: field("trace")?.as_f64() == Some(1.0),
                correct: field("correct")? == &Value::Bool(true),
                workers: field("stamp")?
                    .get("workers")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0) as usize,
                metrics,
            })
        })
        .collect()
}

/// The untraced values of one metric on one workload, in run order.
pub fn values_of(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// What a comparison says about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// medians cannot tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    /// The word printed in the comparison table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Median of side A.
    pub median_a: f64,
    /// Median of side B.
    pub median_b: f64,
    /// By what share of A's median B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' inter-quartile spreads, as a share of
    /// the side's median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare side B against side A on one metric.
pub fn compare_metric(a: &[f64], b: &[f64], better: Better, bound: f64) -> Comparison {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let change = if median_a == 0.0 {
        0.0
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let side_spread = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
    let spread = side_spread(a).max(side_spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Comparison {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

/// Counts that must repeat exactly between two sets of one seed.
pub const EXACT_COUNTS: [&str; 6] = [
    "traffic.cells",
    "traffic.flows",
    "store.segments",
    "store.bytes_per_flow",
    "serve.checksum_flows",
    "serve.checksum_bytes",
];

/// Print the comparison of two sets; `true` when every pair is `ok`, every
/// run was correct and every exact count both sets carry is equal.
pub fn compare_sets(a: &[Record], b: &[Record], out: &mut String) -> bool {
    let mut all_ok = true;
    out.push_str(&format!(
        "{:<15} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
    ));
    for w in names::WORKLOADS {
        for m in names::END_TO_END {
            let (va, vb) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let c = compare_metric(&va, &vb, m.better, m.bound);
            all_ok &= c.verdict == Verdict::Ok;
            out.push_str(&format!(
                "{:<15} {:<12} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.0}%  {}\n",
                w.name,
                m.name,
                c.median_a,
                c.median_b,
                c.worse_by * 100.0,
                c.spread * 100.0,
                m.bound * 100.0,
                c.verdict.word()
            ));
        }
    }
    for (side, records) in [("A", a), ("B", b)] {
        for r in records.iter().filter(|r| !r.correct) {
            all_ok = false;
            out.push_str(&format!(
                "set {side}: {} seed {} failed its checks\n",
                r.workload, r.seed
            ));
        }
    }
    for ra in a.iter().filter(|r| r.traced) {
        let twin = b
            .iter()
            .find(|rb| rb.traced && rb.workload == ra.workload && rb.seed == ra.seed);
        for name in EXACT_COUNTS {
            if let (Some(x), Some(y)) = (
                ra.metrics.get(name),
                twin.and_then(|rb| rb.metrics.get(name)),
            ) {
                if x.to_bits() != y.to_bits() {
                    all_ok = false;
                    out.push_str(&format!(
                        "{} seed {}: {name} differs: {x} vs {y}\n",
                        ra.workload, ra.seed
                    ));
                }
            }
        }
    }
    all_ok
}

/// Medians of every end-to-end metric per workload, as the JSON object a
/// history line carries.
pub fn medians_json(records: &[Record]) -> String {
    let workloads: Vec<String> = names::WORKLOADS
        .iter()
        .filter_map(|w| {
            let metrics: Vec<String> = names::END_TO_END
                .iter()
                .filter_map(|m| {
                    let v = values_of(records, w.name, m.name);
                    (!v.is_empty()).then(|| {
                        format!(
                            "{}:{}",
                            json::quote(m.name),
                            json::number(stats::median(&v))
                        )
                    })
                })
                .collect();
            (!metrics.is_empty())
                .then(|| format!("{}:{{{}}}", json::quote(w.name), metrics.join(",")))
        })
        .collect();
    format!("{{{}}}", workloads.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let line = result_line(7, 0, &[("latency_ms", 1.2034), ("setup_s", 0.8127)]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_ms")
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64),
            Some(1.2034)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
        assert!(result_line(7, 1, &[]).contains("\"correct\":false"));
    }

    #[test]
    fn records_round_trip_through_a_set_file() {
        let result = result_line(3, 0, &[("flows_per_s", 2.5e6)]);
        let line = record_line("suite_mem", 9, 8, false, "{\"workers\":2}", &result);
        let records = parse_records(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].workload, "suite_mem");
        assert_eq!(
            (records[0].seed, records[0].traced, records[0].correct),
            (9, false, true)
        );
        assert_eq!(records[0].workers, 2);
        assert_eq!(
            values_of(&records, "suite_mem", "flows_per_s"),
            [2.5e6, 2.5e6]
        );
        assert!(parse_records("{\"seed\":1}").is_err());
    }

    #[test]
    fn verdicts_cover_ok_regressed_and_unresolved() {
        let tight = |centre: f64| -> Vec<f64> {
            (0..10)
                .map(|i| centre * (1.0 + 0.002 * f64::from(i)))
                .collect()
        };
        // Lower is better, bound 10%: +5% is ok, +20% regressed, -20% ok.
        let base = tight(100.0);
        assert_eq!(
            compare_metric(&base, &tight(105.0), Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        let worse = compare_metric(&base, &tight(120.0), Better::Lower, 0.10);
        assert_eq!(worse.verdict, Verdict::Regressed);
        assert!((worse.worse_by - 0.20).abs() < 1e-9);
        assert_eq!(
            compare_metric(&base, &tight(80.0), Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        // Higher is better: a fall is the regression.
        assert_eq!(
            compare_metric(&base, &tight(80.0), Better::Higher, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare_metric(&base, &tight(120.0), Better::Higher, 0.10).verdict,
            Verdict::Ok
        );
        // A side whose quartiles are further apart than the bound resolves
        // nothing, whatever the medians say.
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 5.0 * f64::from(i)).collect();
        let c = compare_metric(&base, &noisy, Better::Lower, 0.10);
        assert!(c.spread > 0.10);
        assert_eq!(c.verdict, Verdict::Unresolved);
    }

    #[test]
    fn set_comparison_flags_failed_runs_and_unequal_counts() {
        let mk = |workload: &str, traced: bool, correct: bool, metric: &str, value: f64| Record {
            workload: workload.into(),
            seed: 1,
            traced,
            correct,
            workers: 2,
            metrics: BTreeMap::from([(metric.to_string(), value)]),
        };
        let a = vec![
            mk("suite_mem", false, true, "latency_ms", 100.0),
            mk("suite_mem", true, true, "traffic.flows", 3_536_178.0),
        ];
        let mut out = String::new();
        assert!(compare_sets(&a, &a, &mut out), "{out}");
        assert!(out.contains("suite_mem") && out.contains("ok"));

        let mut b = a.clone();
        b[1] = mk("suite_mem", true, true, "traffic.flows", 3_536_179.0);
        let mut out = String::new();
        assert!(!compare_sets(&a, &b, &mut out));
        assert!(out.contains("traffic.flows differs"));

        let mut b = a.clone();
        b[0].correct = false;
        let mut out = String::new();
        assert!(!compare_sets(&a, &b, &mut out));
        assert!(out.contains("failed its checks"));
    }
}
