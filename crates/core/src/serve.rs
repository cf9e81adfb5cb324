//! Figure assembly from externally fetched cells — the serving path.
//!
//! The suite ([`crate::experiments::suite`]) runs every figure in one
//! engine pass over generated (or archive-replayed) cells. A query
//! plane serving `GET /figures/<name>` needs the opposite shape: *one*
//! figure, assembled on demand, from cells fetched through whatever
//! read layer the caller owns (a predicate-pushdown scan with a decoded
//! -segment cache, in the CLI's case). [`render_figure`] does exactly
//! that: it looks the name up in the figure table, builds that entry's
//! standalone plan — the same plan the suite registers, same
//! subscriptions, same consumer factories — runs it over fetched cells
//! (`engine::run_fetched`), and finishes the figure through the
//! identical consumer machinery. Because generation and replay are
//! byte-identical (the store's contract) and consumer merging is
//! order-independent (the engine's contract), the rendering is
//! byte-identical to the corresponding [`Suite::renders`] section.
//!
//! [`Suite::renders`]: crate::experiments::suite::Suite::renders

use crate::context::Context;
use crate::engine::{self, EnginePlan};
use crate::experiments::figures::{figure, Finish, FIGURES};
use crate::experiments::suite;
use lockdown_store::StoreError;
use lockdown_traffic::plan::Cell;
use std::fmt;

pub use crate::engine::Fetch;

/// Why a figure could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The name is not in [`figure_names`].
    UnknownFigure(String),
    /// A cell fetch failed (missing coverage, I/O, corruption). The
    /// store error names the offending segment, so callers can degrade
    /// per supervisor conventions: report it, keep serving the rest.
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownFigure(name) => write!(f, "unknown figure '{name}'"),
            ServeError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        ServeError::Store(e)
    }
}

/// Every servable figure/table name, in [`Suite::renders`] print order —
/// reassembling all of them in order reproduces the suite stdout.
///
/// [`Suite::renders`]: crate::experiments::suite::Suite::renders
pub fn figure_names() -> Vec<String> {
    FIGURES.iter().map(|f| f.name.to_string()).collect()
}

/// The named figure's standalone plan — the same subscriptions and consumer
/// factories the suite registers for it — and its pending assembly.
fn standalone(ctx: &Context, name: &str) -> Result<(EnginePlan, Finish), ServeError> {
    let figure = figure(name).ok_or_else(|| ServeError::UnknownFigure(name.to_string()))?;
    let mut plan = EnginePlan::new();
    let finish = figure.plan(ctx, &mut plan);
    Ok((plan, finish))
}

/// Render one figure (by [`figure_names`] name) from fetched cells,
/// byte-identical to the corresponding suite section. The tables demand
/// no cells and never touch `fetch`.
pub fn render_figure(
    ctx: &Context,
    name: &str,
    fetch: &mut Fetch<'_>,
) -> Result<String, ServeError> {
    let (plan, finish) = standalone(ctx, name)?;
    let mut out = engine::run_fetched(ctx, plan, fetch)?;
    Ok(finish(ctx, &mut out))
}

/// The full-suite plan hash for this context — the value an archive
/// manifest key pins. A server fronting an archive built for a different
/// seed/scenario/fidelity would answer every figure with missing-cell
/// errors; comparing this hash up front turns that into one clear
/// startup diagnostic.
pub fn suite_plan_hash(ctx: &Context) -> u64 {
    suite::full_plan(ctx).plan_hash()
}

/// The set of distinct cells the named figure's plan demands — what a
/// serving layer must be able to fetch before it can render the figure.
pub fn figure_cells(ctx: &Context, name: &str) -> Result<Vec<Cell>, ServeError> {
    Ok(standalone(ctx, name)?.0.cells())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use lockdown_flow::record::FlowRecord;
    use std::sync::Arc;

    #[test]
    fn unknown_figures_are_typed_errors() {
        let ctx = Context::new(Fidelity::Test);
        let mut fetch = |_: Cell| -> Result<Arc<Vec<FlowRecord>>, StoreError> {
            unreachable!("unknown figures never fetch")
        };
        assert!(matches!(
            render_figure(&ctx, "fig99", &mut fetch),
            Err(ServeError::UnknownFigure(_))
        ));
        assert!(matches!(
            render_figure(&ctx, "fig9:MOON", &mut fetch),
            Err(ServeError::UnknownFigure(_))
        ));
        assert!(figure_cells(&ctx, "fig99").is_err());
    }
}
