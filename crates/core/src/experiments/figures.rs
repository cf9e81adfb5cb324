//! The figure table: every section of the suite, listed once.
//!
//! An entry names a section, declares its trace demands on a shared
//! [`EnginePlan`], and turns the finished pass into something renderable.
//! Everything that needs "all the figures" — the one-pass suite, the shard
//! coordinator, `GET /figures/<name>`, `lockdown figures NAME…`, the
//! degraded-pass annotations — is a loop or a lookup over [`FIGURES`], in
//! this order, which is also the print order. Adding a figure is one driver
//! module and one entry here.

use crate::context::Context;
use crate::engine::{EngineOutput, EnginePlan};
use crate::experiments::{
    fig1, fig10, fig11_12, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, sec3_4, sec9, tables,
};
use lockdown_topology::vantage::VantagePoint;

/// The pending half of a planned figure: redeems its demands against the
/// finished pass and renders the section.
pub type Finish = Box<dyn FnOnce(&Context, &mut EngineOutput) -> String + Send>;

/// One figure or table of the paper.
pub struct Figure {
    /// Section name: the `/figures/<name>` path and the label quarantined
    /// cells are attributed to in a degraded pass.
    pub name: &'static str,
    /// CLI alias shared by the sub-figures of one paper figure
    /// (`figures fig2` selects `fig2a`, `fig2b` and `fig2c`).
    pub group: Option<&'static str>,
    plan: fn(&Context, &mut EnginePlan) -> Finish,
}

impl Figure {
    /// Subscribe this figure's demands, labelled with its name, and return
    /// the closure that assembles it from the finished pass.
    pub fn plan(&self, ctx: &Context, plan: &mut EnginePlan) -> Finish {
        plan.scoped(self.name, |p| (self.plan)(ctx, p))
    }

    fn answers_to(&self, name: &str) -> bool {
        self.name == name || self.group == Some(name)
    }
}

/// Erase one driver's handle and result types behind [`Finish`].
fn driver<H: Send + 'static, T: 'static>(
    handles: H,
    finish: fn(H, &mut EngineOutput) -> T,
    render: fn(&T) -> String,
) -> Finish {
    driver_ctx(handles, move |_, h, out| finish(h, out), render)
}

/// [`driver`] for a `finish` that also reads the context.
fn driver_ctx<H: Send + 'static, T: 'static>(
    handles: H,
    finish: impl FnOnce(&Context, H, &mut EngineOutput) -> T + Send + 'static,
    render: fn(&T) -> String,
) -> Finish {
    Box::new(move |ctx, out| render(&finish(ctx, handles, out)))
}

/// Every section of the suite, in print order. The two tables come first
/// and demand no trace: Table 2 is static, Table 1 is registry-derived.
pub static FIGURES: [Figure; 22] = [
    Figure {
        name: "table2",
        group: None,
        plan: |_, _| driver((), |(), _| (), |()| tables::table2()),
    },
    Figure {
        name: "table1",
        group: None,
        plan: |_, _| driver_ctx((), |ctx, (), _| tables::table1(ctx), tables::Table1::render),
    },
    Figure {
        name: "fig1",
        group: None,
        plan: |_, p| driver(fig1::plan(p), fig1::finish, fig1::Fig1::render),
    },
    Figure {
        name: "fig2a",
        group: Some("fig2"),
        plan: |_, p| driver(fig2::plan_2a(p), fig2::finish_2a, fig2::Fig2a::render),
    },
    Figure {
        name: "fig2b",
        group: Some("fig2"),
        plan: |_, p| fig2bc_at(p, VantagePoint::IspCe),
    },
    Figure {
        name: "fig2c",
        group: Some("fig2"),
        plan: |_, p| fig2bc_at(p, VantagePoint::IxpCe),
    },
    Figure {
        name: "fig3a",
        group: Some("fig3"),
        plan: |_, p| driver(fig3::plan_3a(p), fig3::finish_3a, fig3::Fig3a::render),
    },
    Figure {
        name: "fig3b",
        group: Some("fig3"),
        plan: |_, p| driver(fig3::plan_3b(p), fig3::finish_3b, fig3::Fig3b::render),
    },
    Figure {
        name: "fig4",
        group: None,
        plan: |_, p| driver(fig4::plan(p), fig4::finish, fig4::Fig4::render),
    },
    Figure {
        name: "fig5",
        group: None,
        plan: |_, p| driver_ctx(fig5::plan(p), fig5::finish, fig5::Fig5::render),
    },
    Figure {
        name: "fig6",
        group: None,
        plan: |_, p| driver_ctx(fig6::plan(p), fig6::finish, fig6::Fig6::render),
    },
    Figure {
        name: "sec3.4",
        group: None,
        plan: |_, p| driver(sec3_4::plan(p), sec3_4::finish, sec3_4::Sec34::render),
    },
    Figure {
        name: "fig7a",
        group: Some("fig7"),
        plan: |_, p| fig7_at(p, VantagePoint::IspCe),
    },
    Figure {
        name: "fig7b",
        group: Some("fig7"),
        plan: |_, p| fig7_at(p, VantagePoint::IxpCe),
    },
    Figure {
        name: "fig8",
        group: None,
        plan: |ctx, p| driver(fig8::plan(p, ctx), fig8::finish, fig8::Fig8::render),
    },
    // Fig. 9's sections are named `fig9:<vantage label>`, core-four order.
    Figure {
        name: "fig9:ISP-CE",
        group: Some("fig9"),
        plan: |ctx, p| fig9_at(ctx, p, VantagePoint::IspCe),
    },
    Figure {
        name: "fig9:IXP-CE",
        group: Some("fig9"),
        plan: |ctx, p| fig9_at(ctx, p, VantagePoint::IxpCe),
    },
    Figure {
        name: "fig9:IXP-SE",
        group: Some("fig9"),
        plan: |ctx, p| fig9_at(ctx, p, VantagePoint::IxpSe),
    },
    Figure {
        name: "fig9:IXP-US",
        group: Some("fig9"),
        plan: |ctx, p| fig9_at(ctx, p, VantagePoint::IxpUs),
    },
    Figure {
        name: "fig10",
        group: None,
        plan: |ctx, p| driver(fig10::plan(p, ctx), fig10::finish, fig10::Fig10::render),
    },
    Figure {
        name: "fig11-12",
        group: Some("edu"),
        plan: |ctx, p| {
            let handles = fig11_12::plan(p, &ctx.registry);
            driver(handles, fig11_12::finish, fig11_12::EduFigures::render)
        },
    },
    Figure {
        name: "sec9",
        group: None,
        plan: |_, p| driver(sec9::plan(p), sec9::finish, sec9::Sec9::render),
    },
];

fn fig2bc_at(plan: &mut EnginePlan, vantage: VantagePoint) -> Finish {
    let handles = fig2::plan_2bc(plan, vantage);
    driver(handles, fig2::finish_2bc, fig2::Fig2bc::render)
}

fn fig7_at(plan: &mut EnginePlan, vantage: VantagePoint) -> Finish {
    driver(fig7::plan(plan, vantage), fig7::finish, fig7::Fig7::render)
}

fn fig9_at(ctx: &Context, plan: &mut EnginePlan, vantage: VantagePoint) -> Finish {
    let handles = fig9::plan(plan, ctx, vantage);
    driver(handles, fig9::finish, fig9::Fig9::render)
}

/// The table entry with exactly this section name.
pub(crate) fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Resolve `lockdown figures NAME…` arguments to table entries, in table
/// order whatever order they were given in. A name is a section name or a
/// group alias; no names at all selects every figure. `Err` carries the
/// first name that matches nothing.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<&'static Figure>, String> {
    let names: Vec<&str> = names.iter().map(AsRef::as_ref).collect();
    if let Some(unknown) = names
        .iter()
        .find(|n| !FIGURES.iter().any(|f| f.answers_to(n)))
    {
        return Err(unknown.to_string());
    }
    Ok(FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| f.answers_to(n)))
        .collect())
}

/// The shortest spelling of everything [`select`] accepts, in table order:
/// each group alias once, and the name of every ungrouped section.
pub fn selectable_names() -> Vec<&'static str> {
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.group.unwrap_or(f.name)).collect();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use crate::experiments::suite::{self, SuiteOptions};
    use crate::serve::{figure_cells, figure_names, render_figure, suite_plan_hash};
    use lockdown_traffic::plan::{Cell, TraceEmitter};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// One row per table entry, so it grows with the table: the section
    /// is the same bytes whether it comes out of the full suite, out of
    /// the `figures NAME` selection path, or out of the serving path fed
    /// by generation; and the name/cell listings derived from the table
    /// agree with the suite's plan.
    #[test]
    fn every_entry_renders_identically_on_every_path() {
        let ctx = Context::new(Fidelity::Test);
        let full = suite::run_all(&ctx).renders();
        let names = figure_names();
        assert_eq!(
            names,
            FIGURES.iter().map(|f| f.name).collect::<Vec<_>>(),
            "figure_names() is the table, in renders() order"
        );
        assert_eq!(full.len(), names.len());

        let emitter =
            TraceEmitter::with_scenario(&ctx.registry, &ctx.corpus, ctx.config, &ctx.scenario);
        let mut generate = |cell: Cell| {
            let mut batch = Vec::new();
            emitter.generate_cell(cell, &mut batch);
            Ok(Arc::new(batch))
        };
        let suite_cells: BTreeSet<Cell> = suite::full_plan(&ctx).cells().into_iter().collect();
        let mut union = BTreeSet::new();
        for (name, section) in names.iter().zip(&full) {
            assert!(!section.is_empty(), "{name}");
            let served = render_figure(&ctx, name, &mut generate).expect("table names serve");
            assert_eq!(&served, section, "{name}: serving path");
            let selected = select(&[name]).expect("table names select");
            let alone = suite::run_figures(&ctx, selected, SuiteOptions::default())
                .expect("archive-free engine pass cannot fail")
                .renders();
            assert_eq!(
                alone,
                std::slice::from_ref(section),
                "{name}: selection path"
            );

            let cells = figure_cells(&ctx, name).expect("table names plan");
            assert_eq!(cells.is_empty(), name.starts_with("table"), "{name}");
            assert!(cells.iter().all(|c| suite_cells.contains(c)), "{name}");
            union.extend(cells);
        }
        assert_eq!(union, suite_cells, "the figures' cells are the suite's");
        // The plan is fixed paper dates, so its fingerprint is a constant
        // every archive manifest written so far carries.
        assert_eq!(suite_plan_hash(&ctx), 0xc690_8e92_b959_8141);
    }

    #[test]
    fn groups_select_their_sections_in_table_order() {
        let names = |sel: &[&str]| -> Vec<&str> {
            select(sel).expect("known").iter().map(|f| f.name).collect()
        };
        assert_eq!(names(&[]).len(), FIGURES.len());
        assert_eq!(
            names(&["fig7", "fig2"]),
            ["fig2a", "fig2b", "fig2c", "fig7a", "fig7b"]
        );
        assert_eq!(names(&["edu", "fig9:IXP-SE"]), ["fig9:IXP-SE", "fig11-12"]);
        assert_eq!(select(&["fig2", "fig99"]).err().as_deref(), Some("fig99"));
        for (figure, vp) in FIGURES
            .iter()
            .filter(|f| f.group == Some("fig9"))
            .zip(VantagePoint::CORE_FOUR)
        {
            assert_eq!(figure.name, format!("fig9:{}", vp.label()));
        }
        assert_eq!(
            selectable_names().join(" "),
            "table2 table1 fig1 fig2 fig3 fig4 fig5 fig6 sec3.4 fig7 fig8 fig9 fig10 edu sec9"
        );
    }
}
