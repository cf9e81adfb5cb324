//! Fig. 5 — ECDF of IXP-CE member port utilization, base week vs. stage 2.
//!
//! §3.3: per customer port, the minimum/average/maximum utilization
//! relative to physical capacity; during the lockdown "all curves are
//! shifted to the right".

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::ecdf::Ecdf;
use lockdown_analysis::linkutil::{AsHourly, LinkUtilization};
use lockdown_flow::time::Date;
use lockdown_topology::ixp::IxpFabric;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// Base comparison day: a workday of the base week (Thu Feb 20).
pub(crate) const BASE_DAY: Date = Date {
    year: 2020,
    month: 2,
    day: 20,
};
/// Stage-2 comparison day: a workday of the stage-2 week (Thu Apr 23).
pub(crate) const STAGE2_DAY: Date = Date {
    year: 2020,
    month: 4,
    day: 23,
};

/// The three per-member statistics Fig. 5 plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilStat {
    /// Minimum hourly utilization.
    Min,
    /// Mean hourly utilization.
    Avg,
    /// Maximum hourly utilization.
    Max,
}

/// Fig. 5 result: six ECDFs (3 statistics × 2 days).
#[derive(Debug)]
pub struct Fig5 {
    /// ECDFs for the base day, in (min, avg, max) order.
    pub base: [Ecdf; 3],
    /// ECDFs for the stage-2 day.
    pub stage2: [Ecdf; 3],
    /// Members contributing to both days.
    pub members: usize,
}

/// Demand handles of one Fig. 5 pass.
pub(crate) struct Plan {
    base: Demand<AsHourly>,
    stage2: Demand<AsHourly>,
}

/// Declare Fig. 5's trace demands on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan) -> Plan {
    let stream = Stream::Vantage(VantagePoint::IxpCe);
    Plan {
        base: plan.subscribe(stream, BASE_DAY, BASE_DAY, || AsHourly::new(BASE_DAY)),
        stage2: plan.subscribe(stream, STAGE2_DAY, STAGE2_DAY, || AsHourly::new(STAGE2_DAY)),
    }
}

/// Assemble Fig. 5 from a finished engine pass.
pub(crate) fn finish(ctx: &Context, plan: Plan, out: &mut EngineOutput) -> Fig5 {
    let fabric = IxpFabric::synthesize(VantagePoint::IxpCe, &ctx.registry, ctx.config.seed);
    let base_hourly = out.take(plan.base);
    let stage2_hourly = out.take(plan.stage2);
    let lu = LinkUtilization::calibrate_hourly(&fabric, &base_hourly);

    let base_stats = lu.day_stats_hourly(&base_hourly);
    let stage2_stats = lu.day_stats_hourly(&stage2_hourly);

    let ecdfs = |stats: &[lockdown_analysis::linkutil::MemberUtilization]| {
        [
            Ecdf::new(stats.iter().map(|s| s.min).collect()),
            Ecdf::new(stats.iter().map(|s| s.avg).collect()),
            Ecdf::new(stats.iter().map(|s| s.max).collect()),
        ]
    };
    Fig5 {
        base: ecdfs(&base_stats),
        stage2: ecdfs(&stage2_stats),
        members: base_stats.len().min(stage2_stats.len()),
    }
}

/// Run Fig. 5 standalone.
pub fn run(ctx: &Context) -> Fig5 {
    engine::run_standalone(ctx, plan, |h, out| finish(ctx, h, out))
}

impl Fig5 {
    /// ECDF for (day, stat).
    pub fn ecdf(&self, stage2: bool, stat: UtilStat) -> &Ecdf {
        let set = if stage2 { &self.stage2 } else { &self.base };
        match stat {
            UtilStat::Min => &set[0],
            UtilStat::Avg => &set[1],
            UtilStat::Max => &set[2],
        }
    }

    /// Render the ECDFs evaluated on the paper's 1–100% utilization grid.
    pub fn render(&self) -> String {
        let grid: Vec<f64> = [
            1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
        ]
        .iter()
        .map(|p| p / 100.0)
        .collect();
        let mut t = TextTable::new([
            "util%", "base min", "base avg", "base max", "s2 min", "s2 avg", "s2 max",
        ]);
        for &x in &grid {
            t.row([
                format!("{:.0}", x * 100.0),
                format!("{:.3}", self.ecdf(false, UtilStat::Min).fraction_le(x)),
                format!("{:.3}", self.ecdf(false, UtilStat::Avg).fraction_le(x)),
                format!("{:.3}", self.ecdf(false, UtilStat::Max).fraction_le(x)),
                format!("{:.3}", self.ecdf(true, UtilStat::Min).fraction_le(x)),
                format!("{:.3}", self.ecdf(true, UtilStat::Avg).fraction_le(x)),
                format!("{:.3}", self.ecdf(true, UtilStat::Max).fraction_le(x)),
            ]);
        }
        format!(
            "Fig. 5 — IXP-CE port-utilization ECDFs ({} members)\n{}",
            self.members,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig5 {
        static FIG: OnceLock<Fig5> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test)))
    }

    #[test]
    fn many_members_measured() {
        assert!(fig().members > 100, "only {} members", fig().members);
    }

    #[test]
    fn all_curves_shift_right() {
        // The paper's takeaway. Compared via medians (pointwise dominance
        // is too strict for a finite synthetic sample).
        let f = fig();
        let base = f.ecdf(false, UtilStat::Avg).quantile(0.5);
        let stage2 = f.ecdf(true, UtilStat::Avg).quantile(0.5);
        assert!(
            stage2 > base,
            "Avg: median must rise ({base:.4} -> {stage2:.4})"
        );
        // Min is sparse (small members see empty hours at reduced trace
        // resolution) and Max saturates against the 100% physical cap, so
        // both are compared via their means, allowing ties.
        for stat in [UtilStat::Min, UtilStat::Max] {
            let b = f.ecdf(false, stat).mean();
            let s = f.ecdf(true, stat).mean();
            // Allow a small tolerance: Max saturates against the 100%
            // physical cap, and members with capacity upgrades genuinely
            // see their utilization *fall* (the upgrades' purpose).
            assert!(
                s >= b - 0.02,
                "{stat:?}: mean must not fall materially ({b:.5} -> {s:.5})"
            );
        }
    }

    #[test]
    fn ordering_min_avg_max() {
        let f = fig();
        for stage2 in [false, true] {
            let min = f.ecdf(stage2, UtilStat::Min).mean();
            let avg = f.ecdf(stage2, UtilStat::Avg).mean();
            let max = f.ecdf(stage2, UtilStat::Max).mean();
            assert!(min <= avg && avg <= max);
        }
    }

    #[test]
    fn utilizations_are_fractions() {
        let f = fig();
        for stage2 in [false, true] {
            let e = f.ecdf(stage2, UtilStat::Max);
            assert_eq!(e.fraction_le(1.0), 1.0, "utilization must be ≤ 100%");
        }
    }

    #[test]
    fn renders() {
        assert!(fig().render().contains("util%"));
    }
}
