//! The scenario DSL's safety rail and the scenario sweep's core claims:
//!
//! * golden byte-identity: the full figure suite rendered under the
//!   shipped `scenarios/covid-spring-2020.toml` equals the suite under
//!   the built-in calibration, section for section;
//! * a lane is a plain pass: lane 0 of a matrix run is byte-identical to
//!   a plain run, every lane's stats equal a plain run of its scenario,
//!   and a behaviourally different lane actually diverges;
//! * matrix archives replay per lane: a warm re-run generates nothing,
//!   and swapping one scenario regenerates only that lane.

use lockdown::core::experiments::suite;
use lockdown::core::{run_matrix, Context, Fidelity, MatrixOptions, MatrixScenario};
use lockdown::scenario::measures::ScenarioSpec;
use std::path::PathBuf;

fn shipped(name: &str) -> ScenarioSpec {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    ScenarioSpec::parse_toml(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockdown-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn shipped_scenario_file_reproduces_the_builtin_suite() {
    let base = suite::run_all(&Context::new(Fidelity::Test));
    let via_file = suite::run_all(&Context::with_scenario(
        Fidelity::Test,
        0x10CD_2020,
        shipped("covid-spring-2020.toml"),
    ));
    let (a, b) = (base.renders(), via_file.renders());
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x, y, "section {i} differs under the shipped scenario file");
    }
    assert_eq!(base.stats, via_file.stats);
}

#[test]
fn matrix_lanes_are_plain_single_scenario_passes() {
    let ctx = Context::new(Fidelity::Test);
    let single = suite::run_all(&ctx);
    let outage = suite::run_all(&Context::with_scenario(
        Fidelity::Test,
        0x10CD_2020,
        shipped("hypergiant-outage.toml"),
    ));
    let run = run_matrix(
        &ctx,
        vec![
            MatrixScenario {
                label: "covid".into(),
                spec: shipped("covid-spring-2020.toml"),
            },
            MatrixScenario {
                label: "outage".into(),
                spec: shipped("hypergiant-outage.toml"),
            },
        ],
        MatrixOptions::default(),
    )
    .expect("archive-free matrix cannot fail");

    // Lane 0 (the reference calibration) is byte-identical to the plain
    // single-scenario run; the counterfactual lane is byte-identical to a
    // plain run of *its* scenario, and actually diverges from lane 0.
    let plain = single.renders();
    assert_eq!(run.runs[0].suite.renders(), plain);
    assert_eq!(run.runs[1].suite.renders(), outage.renders());
    assert_ne!(run.runs[1].suite.renders(), plain);

    // Per-lane stats are a plain run's stats, and the matrix totals are
    // their sum.
    assert_eq!(run.runs[0].suite.stats, single.stats);
    assert_eq!(run.runs[1].suite.stats, outage.stats);
    assert_eq!(run.stats.scenarios, 2);
    assert_eq!(
        run.stats.cells_generated,
        single.stats.cells_generated + outage.stats.cells_generated
    );
    assert_eq!(run.stats.cells_replayed, 0);
    assert_eq!(
        run.stats.flows_emitted,
        single.stats.flows_emitted + outage.stats.flows_emitted
    );

    let report = run.diff_report();
    assert!(
        report.contains("sections differ"),
        "diff report should quantify divergence: {report}"
    );
}

#[test]
fn matrix_archives_replay_per_lane() {
    let ctx = Context::new(Fidelity::Test);
    let dir = tmp_dir("replay");
    let scenarios = || {
        vec![
            MatrixScenario {
                label: "covid".into(),
                spec: shipped("covid-spring-2020.toml"),
            },
            MatrixScenario {
                label: "outage".into(),
                spec: shipped("hypergiant-outage.toml"),
            },
        ]
    };
    let opts = || MatrixOptions {
        archive: Some(dir.clone()),
    };

    let cold = run_matrix(&ctx, scenarios(), opts()).expect("cold matrix");
    assert!(cold.stats.cells_generated > 0);
    let warm = run_matrix(&ctx, scenarios(), opts()).expect("warm matrix");
    assert_eq!(
        warm.stats.cells_generated, 0,
        "warm matrix must not generate"
    );
    assert_eq!(warm.stats.cells_replayed, cold.stats.cells_generated);

    // Replay is byte-identical, per lane.
    for (c, w) in cold.runs.iter().zip(warm.runs.iter()) {
        assert_eq!(c.suite.renders(), w.suite.renders(), "lane {}", c.label);
    }

    // Lanes archive independently: swapping one scenario regenerates
    // only that lane's cells.
    let mut swapped = scenarios();
    swapped[1].spec.baseline.organic_weekly = 1.004;
    let mixed = run_matrix(&ctx, swapped, opts()).expect("mixed matrix");
    let lane_cells = cold.runs[1].suite.stats.cells_generated;
    assert_eq!(
        mixed.stats.cells_generated, lane_cells,
        "only the stale lane regenerates, and it regenerates every cell"
    );
    assert_eq!(mixed.runs[0].suite.stats.cells_generated, 0);
    assert_eq!(mixed.runs[1].suite.stats.cells_generated, lane_cells);
    assert_eq!(mixed.runs[0].suite.renders(), cold.runs[0].suite.renders());

    let _ = std::fs::remove_dir_all(&dir);
}
