//! Fig. 6 — ISP-CE per-AS traffic shift vs. residential traffic shift
//! (February vs. March), over the ISP's view *including transit* (§3.4).
//!
//! Each point is an AS; x = normalized change in mean total volume,
//! y = normalized change in mean eyeball-facing volume. The findings:
//! a positive correlation for most ASes, plus a populated top-left
//! quadrant (total down, residential up — companies whose office traffic
//! vanished while their remote-work traffic grew).

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::asgroup::{
    residential_shift, shift_correlation, QuadrantCounts, RatioGroup, ResidentialShift,
};
use lockdown_analysis::consumer::AsTotalsConsumer;
use lockdown_flow::time::Date;
use lockdown_topology::asn::Asn;
use lockdown_topology::registry::ISP_CE_ASN;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// Base window (February week).
pub const BASE: (Date, Date) = (
    Date {
        year: 2020,
        month: 2,
        day: 19,
    },
    Date {
        year: 2020,
        month: 2,
        day: 25,
    },
);
/// Lockdown window (March week).
pub(crate) const LOCKDOWN: (Date, Date) = (
    Date {
        year: 2020,
        month: 3,
        day: 18,
    },
    Date {
        year: 2020,
        month: 3,
        day: 24,
    },
);

/// Fig. 6 result.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// The scatter points.
    pub points: Vec<ResidentialShift>,
    /// Quadrant membership counts.
    pub quadrants: QuadrantCounts,
    /// Pearson correlation between the two deltas.
    pub correlation: f64,
    /// Number of workday-dominated ASes in the base window (§3.4's focus
    /// group).
    pub workday_dominated: usize,
}

/// Total and residential-only demands for one window of ISP transit flows.
fn window_demands(
    plan: &mut EnginePlan,
    window: (Date, Date),
) -> (Demand<AsTotalsConsumer>, Demand<AsTotalsConsumer>) {
    let region = VantagePoint::IspCe.region();
    let all = plan.subscribe(Stream::IspTransit, window.0, window.1, move || {
        AsTotalsConsumer::all(region)
    });
    let residential = plan.subscribe(Stream::IspTransit, window.0, window.1, move || {
        AsTotalsConsumer::touching(region, ISP_CE_ASN)
    });
    (all, residential)
}

/// Demand handles of one Fig. 6 pass.
pub(crate) struct Plan {
    base: (Demand<AsTotalsConsumer>, Demand<AsTotalsConsumer>),
    lockdown: (Demand<AsTotalsConsumer>, Demand<AsTotalsConsumer>),
}

/// Declare Fig. 6's trace demands on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan) -> Plan {
    Plan {
        base: window_demands(plan, BASE),
        lockdown: window_demands(plan, LOCKDOWN),
    }
}

/// Assemble Fig. 6 from a finished engine pass.
pub(crate) fn finish(ctx: &Context, plan: Plan, out: &mut EngineOutput) -> Fig6 {
    let base_all = out.take(plan.base.0).totals;
    let base_res = out.take(plan.base.1).totals;
    let lock_all = out.take(plan.lockdown.0).totals;
    let lock_res = out.take(plan.lockdown.1).totals;

    // The §3.4 point set: business ASes seen in the transit view (the ISP
    // itself is the eyeball side, not a point).
    let ases: Vec<Asn> = ctx
        .registry
        .ases()
        .iter()
        .map(|a| a.asn)
        .filter(|&a| a != ISP_CE_ASN)
        .filter(|&a| base_all.mean_daily_bytes(a) > 0.0 || lock_all.mean_daily_bytes(a) > 0.0)
        .collect();

    let points = residential_shift(&base_all, &lock_all, &base_res, &lock_res, ases);
    let quadrants = QuadrantCounts::of(&points);
    let correlation = shift_correlation(&points);
    let workday_dominated = base_all.in_group(RatioGroup::WorkdayDominated).len();
    Fig6 {
        points,
        quadrants,
        correlation,
        workday_dominated,
    }
}

/// Run Fig. 6 standalone.
pub fn run(ctx: &Context) -> Fig6 {
    engine::run_standalone(ctx, plan, |h, out| finish(ctx, h, out))
}

impl Fig6 {
    /// Render quadrant counts and correlation.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["quadrant", "ASes"]);
        t.row([
            "total ↑ / residential ↑",
            &self.quadrants.both_up.to_string(),
        ]);
        t.row([
            "total ↓ / residential ↑",
            &self.quadrants.total_down_res_up.to_string(),
        ]);
        t.row([
            "total ↓ / residential ↓",
            &self.quadrants.both_down.to_string(),
        ]);
        t.row([
            "total ↑ / residential ↓",
            &self.quadrants.total_up_res_down.to_string(),
        ]);
        format!(
            "Fig. 6 — per-AS total vs residential shift (Feb vs Mar)\n{}\ncorrelation = {:.3}, workday-dominated ASes = {}\n",
            t.render(),
            self.correlation,
            self.workday_dominated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig6 {
        static FIG: OnceLock<Fig6> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test)))
    }

    #[test]
    fn scatter_is_populated() {
        let f = fig();
        assert!(f.points.len() >= 40, "only {} points", f.points.len());
    }

    #[test]
    fn positive_correlation() {
        // §3.4: "for a majority of the ASes, there is a correlation between
        // the increase in traffic involving eyeball networks and the total
        // increase".
        let f = fig();
        assert!(
            f.correlation > 0.2,
            "correlation {:.3} should be positive",
            f.correlation
        );
    }

    #[test]
    fn top_left_quadrant_exists() {
        // "some ASes suffer a decrease in total traffic, yet, the
        // residential traffic grows (top-left quadrant)".
        let f = fig();
        assert!(
            f.quadrants.total_down_res_up > 0,
            "top-left quadrant empty: {:?}",
            f.quadrants
        );
        // But most points see residential growth overall.
        let res_up = f.quadrants.both_up + f.quadrants.total_down_res_up;
        assert!(
            res_up * 2 > f.points.len(),
            "residential growth should dominate"
        );
    }

    #[test]
    fn deltas_in_range() {
        for p in &fig().points {
            assert!((-1.0..=1.0).contains(&p.total_delta));
            assert!((-1.0..=1.0).contains(&p.residential_delta));
        }
    }

    #[test]
    fn workday_group_nonempty() {
        assert!(fig().workday_dominated > 10);
    }

    #[test]
    fn renders() {
        assert!(fig().render().contains("correlation"));
    }
}
