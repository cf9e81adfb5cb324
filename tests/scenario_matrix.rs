//! Matrix archives replay per lane: a warm re-run generates nothing, and
//! swapping one scenario regenerates only that lane. (That a lane is a
//! plain pass of its scenario is the `matrix lane` rows of
//! `tests/equivalence.rs`.) The default context's archive key is pinned
//! here too.

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

/// The default context's archive key, recorded at the commit before the
/// shipped `scenarios/covid-spring-2020.toml` became the only source of the
/// default calibration: archives written before and after replay into
/// each other.
const PINNED_DEFAULT_SCENARIO_HASH: u64 = 0xBC4E_38B8_C4AC_DDE9;

#[test]
fn default_context_scenario_hash_is_pinned() {
    assert_eq!(
        Context::new(Fidelity::Test).scenario_hash(),
        PINNED_DEFAULT_SCENARIO_HASH
    );
}
