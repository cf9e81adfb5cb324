//! The whole figure suite as ONE engine pass.
//!
//! Every driver contributes its demands to a single [`EnginePlan`]; the
//! engine generates each distinct `(stream, date, hour)` cell exactly once
//! and fans it out to every subscribed consumer. Which drivers there are
//! is the figure table's business ([`crate::experiments::figures`]); this
//! module is the pass over it, for the whole table or a selection. The
//! per-figure `run()` wrappers remain for standalone use.

use crate::context::Context;
use crate::engine::{self, DriveStats, EngineOutput, EnginePlan, EngineStats, Link, SliceOutcome};
use crate::experiments::figures::{Figure, Finish, Section, FIGURES};
use crate::supervisor::{DegradedReport, SupervisorMetrics};
use lockdown_base::fault::FaultProfile;
use lockdown_collect::{CollectMetrics, WireConfig};
use lockdown_store::{StoreError, StoreMetrics};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Figures and tables of the paper, produced by one engine pass.
pub struct Suite {
    /// The finished sections by name, in [`FIGURES`] order.
    sections: Vec<(&'static str, Section)>,
    /// What the shared pass did (dedup story included).
    pub stats: EngineStats,
    /// Wire-plane metrics, present when the pass ran in wire mode.
    pub wire_metrics: Option<Arc<CollectMetrics>>,
    /// Conservation-audit report, present when the pass ran in wire mode.
    pub audit: Option<lockdown_collect::audit::Report>,
    /// Store metrics, present when the pass ran against an archive.
    pub store_metrics: Option<Arc<StoreMetrics>>,
    /// The pass supervisor's metrics.
    pub supervisor_metrics: Arc<SupervisorMetrics>,
    /// Degraded-mode report, present when the pass quarantined at least
    /// one cell. Affected figures are annotated in `renders()`.
    pub degraded: Option<DegradedReport>,
}

/// How to run the suite: wire plane, archive, and chaos schedule are all
/// optional and compose.
#[derive(Default)]
pub struct SuiteOptions {
    /// Route every cell through the wire-mode collection plane.
    pub wire: Option<WireConfig>,
    /// Spill/replay cells against a columnar archive at this directory.
    pub archive: Option<PathBuf>,
    /// The fault schedule, attempt budget and backoff of the pass's
    /// supervisor; `None` means [`FaultProfile::zero`].
    pub chaos: Option<FaultProfile>,
}

/// The planned figures' pending halves, in table order.
type Pending = Vec<(&'static str, Finish)>;

/// One shared plan under `opts` with the given figures subscribed, each
/// under its own label so a degraded pass can name the figures it starved.
fn build_plan(
    ctx: &Context,
    figures: impl IntoIterator<Item = &'static Figure>,
    opts: SuiteOptions,
) -> (EnginePlan, Pending) {
    let mut plan = EnginePlan::new();
    if let Some(cfg) = opts.wire {
        plan.with_wire(cfg);
    }
    if let Some(dir) = opts.archive {
        plan.with_archive(dir);
    }
    plan.with_chaos(opts.chaos.unwrap_or_default());
    let pending = figures
        .into_iter()
        .map(|f| (f.name, f.plan(ctx, &mut plan)))
        .collect();
    (plan, pending)
}

/// The full-suite plan, options unset: what [`run_all`] subscribes.
pub(crate) fn full_plan(ctx: &Context) -> EnginePlan {
    build_plan(ctx, &FIGURES, SuiteOptions::default()).0
}

/// Redeem every demand against the pass output and assemble the suite.
fn assemble(ctx: &Context, pending: Pending, mut out: EngineOutput) -> Suite {
    Suite {
        sections: pending
            .into_iter()
            .map(|(name, finish)| (name, finish(ctx, &mut out)))
            .collect(),
        stats: out.stats(),
        wire_metrics: out.wire_metrics().cloned(),
        audit: out.audit().cloned(),
        store_metrics: out.store_metrics().cloned(),
        supervisor_metrics: Arc::clone(out.supervisor_metrics()),
        degraded: out.degraded().cloned(),
    }
}

/// Run the full suite through one shared engine pass.
pub fn run_all(ctx: &Context) -> Suite {
    run_all_opts(ctx, SuiteOptions::default()).expect("archive-free engine pass cannot fail")
}

/// Run the full suite against a columnar archive: warm (replay every cell
/// from segments, zero generation) when `dir` holds a covering manifest of
/// the same generation, cold (generate and spill) otherwise. Output is
/// byte-identical either way; a segment that fails to read is regenerated,
/// and only an archive that cannot be opened, created or published fails
/// the pass.
pub fn run_all_archived(
    ctx: &Context,
    wire: Option<WireConfig>,
    dir: &Path,
) -> Result<Suite, StoreError> {
    run_all_opts(
        ctx,
        SuiteOptions {
            wire,
            archive: Some(dir.to_path_buf()),
            chaos: None,
        },
    )
}

/// Run the full suite with the full option set: wire plane, archive, and
/// chaos schedule all compose. A cell that exhausts its attempt budget is
/// quarantined and reported in `Suite::degraded`, and figures compute
/// from partial data.
pub fn run_all_opts(ctx: &Context, opts: SuiteOptions) -> Result<Suite, StoreError> {
    run_figures(ctx, &FIGURES, opts)
}

/// Run a selection of figures (see [`select`](crate::experiments::figures::select))
/// through one shared engine pass: cells two selected figures both demand
/// are still generated once, and [`Suite::renders`] yields just the
/// selected sections, each byte-identical to its full-suite rendering.
pub fn run_figures(
    ctx: &Context,
    figures: impl IntoIterator<Item = &'static Figure>,
    opts: SuiteOptions,
) -> Result<Suite, StoreError> {
    let (plan, pending) = build_plan(ctx, figures, opts);
    let out = engine::run(ctx, plan)?;
    Ok(assemble(ctx, pending, out))
}

/// How to run a *sharded* suite pass. Wire mode does not cross the shard
/// boundary, so the option set is archive + chaos only. Both sides of a
/// coordinated run — coordinator and every worker — must build from the
/// same options (the plan hash guards the subscription set; archive and
/// chaos must match by construction of the protocol's hello exchange).
#[derive(Debug, Default, Clone)]
pub struct ShardSuiteOptions {
    /// Spill/replay cells against a columnar archive at this directory.
    pub archive: Option<PathBuf>,
    /// The fault schedule of worker slices (and, via `wkill`/`wstall`,
    /// of coordinator-side worker faults), plus the attempt budget.
    pub chaos: FaultProfile,
}

fn shard_plan(ctx: &Context, opts: &ShardSuiteOptions) -> (EnginePlan, Pending) {
    let opts = SuiteOptions {
        wire: None,
        archive: opts.archive.clone(),
        chaos: Some(opts.chaos),
    };
    build_plan(ctx, &FIGURES, opts)
}

/// Fingerprint of the full-suite cell plan under these options (the
/// subscriptions alone determine it). Workers echo this back so an
/// assignment can never run against a differently built plan.
pub fn suite_shard_plan_hash(ctx: &Context, opts: &ShardSuiteOptions) -> u64 {
    shard_plan(ctx, opts).0.plan_hash()
}

/// Number of cells in the full-suite plan — the shard assignment index
/// space.
pub fn suite_shard_cell_count(ctx: &Context, opts: &ShardSuiteOptions) -> usize {
    shard_plan(ctx, opts).0.cells().len()
}

/// Worker side of a sharded suite pass: run one cell-index slice of the
/// full-suite plan as the far end of a process link and return the
/// serialized consumer states, tallies and segment inventory for the
/// coordinator to merge.
pub fn run_suite_slice(
    ctx: &Context,
    opts: &ShardSuiteOptions,
    range: std::ops::Range<usize>,
) -> Result<SliceOutcome, StoreError> {
    engine::run_range(ctx, shard_plan(ctx, opts).0, range)
}

/// Coordinator side of a sharded suite pass: the full-suite plan under
/// `opts`, driven claim by claim over `links` (one claim per range of
/// `ranges`) with every slice merged through the consumer-state codec.
/// Returns what the driver did and the figures' assembly, which can
/// panic when quarantine left a figure without the data its windows
/// demand.
pub fn run_suite_links<'c, L: Link>(
    ctx: &'c Context,
    opts: &ShardSuiteOptions,
    ranges: &[(u32, u32)],
    links: &mut [L],
) -> Result<(DriveStats, impl FnOnce() -> Suite + 'c), StoreError> {
    let (plan, pending) = shard_plan(ctx, opts);
    let (out, stats) = engine::run_links(ctx, plan, ranges, links)?;
    Ok((stats, move || assemble(ctx, pending, out)))
}

impl Suite {
    /// Rendered sections in the CLI's print order (Table 2 first — it is
    /// registry-static and needs no trace). After a degraded pass, every
    /// section whose figure lost quarantined cells carries a trailing
    /// annotation naming how many, so partial data is never mistaken for
    /// a complete reproduction.
    pub fn renders(&self) -> Vec<String> {
        let affected = self.degraded.as_ref().map_or(&[][..], |d| &d.affected);
        self.sections
            .iter()
            .map(|(name, section)| {
                let mut text = section();
                if let Some((_, n)) = affected.iter().find(|(label, _)| label == name) {
                    text.push_str(&format!(
                        "\n[degraded: {n} cell(s) quarantined — computed from partial data]"
                    ));
                }
                text
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;

    #[test]
    fn one_pass_deduplicates_overlapping_windows() {
        let ctx = Context::new(Fidelity::Test);
        let suite = run_all(&ctx);
        // The acceptance criterion: overlapping (stream, date, hour) cells
        // are generated exactly once — strictly fewer than the per-figure
        // total — while every figure still assembles.
        assert!(
            suite.stats.cells_generated < suite.stats.cells_demanded,
            "dedup must collapse overlap: {} vs {}",
            suite.stats.cells_generated,
            suite.stats.cells_demanded
        );
        assert!(
            suite.stats.dedup_ratio() > 1.5,
            "ratio {:.2}",
            suite.stats.dedup_ratio()
        );
        let sections = suite.renders();
        assert_eq!(sections.len(), 2 + 16 + 4); // tables + figures + 4 heatmaps
        for s in &sections {
            assert!(!s.is_empty());
        }
    }
}
