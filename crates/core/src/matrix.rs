//! Multi-scenario sweep: N scenarios, N suite passes, one report.
//!
//! `lockdown scenarios --matrix a.toml b.toml …` runs the full figure suite
//! once per scenario spec — [`suite::run_all_opts`] under a context that
//! differs only in the scenario — and diffs every lane against the first.
//! A lane is therefore a plain single-scenario pass by construction: lane 0
//! of a sweep is byte-identical to `figures --scenario` under the same spec
//! (`tests/scenario_matrix.rs`).
//!
//! The lanes demand the same cells (analysis windows are fixed paper dates)
//! but share no pass: every lane has to generate its own flows for every
//! cell, so walking the cell list once for all lanes saves nothing that
//! costs anything — measured at 0.988× of sequential passes (DESIGN.md,
//! "The scenario layer", has the numbers).
//!
//! Archives compose per lane: with a base directory attached, each lane
//! spills to (or replays from) its own complete archive under a
//! [`scenario_subdir`] keyed by the lane's label, so a warm re-run
//! generates nothing at all and swapping one scenario regenerates only
//! that lane. Wire mode and chaos schedules are not offered here — those
//! axes exercise the collection plane, which is orthogonal to scenario
//! calibration.

use crate::context::Context;
use crate::experiments::suite::{self, Suite, SuiteOptions};
use lockdown_scenario::measures::ScenarioSpec;
use lockdown_store::{scenario_subdir, StoreError};
use std::path::PathBuf;

/// One scenario lane of a matrix run.
pub struct MatrixScenario {
    /// Display label (scenario name, or the file stem it was loaded from).
    pub label: String,
    /// The scenario the lane interprets.
    pub spec: ScenarioSpec,
}

/// How to run a matrix.
#[derive(Default)]
pub struct MatrixOptions {
    /// Base archive directory; each lane archives/replays under its own
    /// [`scenario_subdir`] of it.
    pub archive: Option<PathBuf>,
}

/// What a sweep did, summed over its lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixStats {
    /// Scenario lanes swept.
    pub scenarios: usize,
    /// Cells generated, over all lanes: `scenarios ×` one pass's cells on
    /// a cold sweep, zero on a fully warm one.
    pub cells_generated: u64,
    /// Cells replayed from lane archives, over all lanes.
    pub cells_replayed: u64,
    /// Flow records fanned out, over all lanes.
    pub flows_emitted: u64,
    /// Worker threads each lane's pass used.
    pub workers: usize,
}

impl MatrixStats {
    /// One-line human-readable summary (the CLI prints this to stderr
    /// after a matrix run).
    pub fn summary(&self) -> String {
        format!(
            "matrix: {} scenarios, {} cells generated + {} replayed (summed over lanes), {} flows, {} workers",
            self.scenarios, self.cells_generated, self.cells_replayed, self.flows_emitted, self.workers,
        )
    }
}

/// One completed lane: the label, the spec's behavioural fingerprint and
/// the fully assembled figure suite.
pub struct ScenarioRun {
    /// The lane's display label.
    pub label: String,
    /// [`ScenarioSpec::fingerprint`] of the lane's spec.
    pub fingerprint: u64,
    /// Every figure and table, computed from this lane's flows. Its
    /// `stats` are the lane's own tallies (its cells, its flows).
    pub suite: Suite,
}

/// A completed sweep: per-scenario suites plus their summed accounting.
pub struct MatrixRun {
    /// One run per requested scenario, in request order. The first lane
    /// is the diff baseline.
    pub runs: Vec<ScenarioRun>,
    /// Statistics summed over the lanes.
    pub stats: MatrixStats,
}

impl MatrixRun {
    /// Per-scenario divergence from the first (baseline) lane: how many
    /// rendered sections differ, and across how many lines. Scenarios
    /// with the baseline's behavioural fingerprint are called out as
    /// identical instead of diffed.
    pub fn diff_report(&self) -> String {
        let Some(base) = self.runs.first() else {
            return String::new();
        };
        let base_sections = base.suite.renders();
        let mut out = format!("scenario diff vs '{}':\n", base.label);
        for run in &self.runs[1..] {
            if run.fingerprint == base.fingerprint {
                out.push_str(&format!(
                    "  {:<24} identical behavioural fingerprint\n",
                    run.label
                ));
                continue;
            }
            let sections = run.suite.renders();
            let mut sections_differ = 0usize;
            let mut lines_differ = 0usize;
            for (a, b) in base_sections.iter().zip(sections.iter()) {
                if a == b {
                    continue;
                }
                sections_differ += 1;
                let (la, lb): (Vec<_>, Vec<_>) = (a.lines().collect(), b.lines().collect());
                let shared = la.len().min(lb.len());
                lines_differ += (0..shared).filter(|&i| la[i] != lb[i]).count();
                lines_differ += la.len().max(lb.len()) - shared;
            }
            out.push_str(&format!(
                "  {:<24} {}/{} sections differ ({} lines)\n",
                run.label,
                sections_differ,
                base_sections.len(),
                lines_differ,
            ));
        }
        out
    }
}

/// Sweep `scenarios`: one full-suite pass per lane, each under `ctx`'s
/// substrate and that lane's scenario. Archive I/O and corruption surface
/// as errors naming the offending lane file.
pub fn run_matrix(
    ctx: &Context,
    scenarios: Vec<MatrixScenario>,
    opts: MatrixOptions,
) -> Result<MatrixRun, StoreError> {
    assert!(!scenarios.is_empty(), "matrix needs at least one scenario");
    let mut stats = MatrixStats {
        scenarios: scenarios.len(),
        cells_generated: 0,
        cells_replayed: 0,
        flows_emitted: 0,
        workers: 0,
    };
    let mut runs = Vec::with_capacity(scenarios.len());
    for (i, MatrixScenario { label, spec }) in scenarios.into_iter().enumerate() {
        let fingerprint = spec.fingerprint();
        let suite = suite::run_all_opts(
            &ctx.under(spec),
            SuiteOptions {
                archive: opts
                    .archive
                    .as_ref()
                    .map(|base| scenario_subdir(base, i, &label)),
                ..SuiteOptions::default()
            },
        )?;
        stats.cells_generated += suite.stats.cells_generated;
        stats.cells_replayed += suite.stats.cells_replayed;
        stats.flows_emitted += suite.stats.flows_emitted;
        stats.workers = suite.stats.workers;
        runs.push(ScenarioRun {
            label,
            fingerprint,
            suite,
        });
    }
    Ok(MatrixRun { runs, stats })
}
