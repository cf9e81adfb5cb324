//! §3.4 — remote-work relevant ASes, beyond the Fig. 6 scatter.
//!
//! The paper groups ASes by their workday/weekend traffic ratio into
//! workday-dominated (companies), balanced, and weekend-dominated
//! (entertainment-leaning) groups, then focuses on the first: for those
//! ASes the total-vs-residential correlation is strongest, and they are
//! the ones that "need to provision a significant amount of extra
//! capacity … to reach multiple eyeball networks".

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::asgroup::{
    residential_shift, shift_correlation, RatioGroup, ResidentialShift,
};
use lockdown_analysis::consumer::AsTotalsConsumer;
use lockdown_flow::time::Date;
use lockdown_topology::asn::Asn;
use lockdown_topology::registry::ISP_CE_ASN;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// Per-group §3.4 statistics.
#[derive(Debug, Clone)]
pub struct GroupStats {
    /// The ratio group.
    pub group: RatioGroup,
    /// ASes in the group (base window).
    pub members: usize,
    /// Correlation between total and residential shifts within the group.
    pub correlation: f64,
    /// Mean residential delta within the group.
    pub mean_residential_delta: f64,
}

/// §3.4 result.
#[derive(Debug, Clone)]
pub struct Sec34 {
    /// Stats per ratio group.
    pub groups: Vec<GroupStats>,
}

/// Demands of one comparison window: transit totals, transit residential
/// and the regular subscriber view (content ASes serving the ISP's
/// eyeballs — always residential-facing by definition, so it folds into
/// both sides at assembly time).
struct WindowDemands {
    transit_all: Demand<AsTotalsConsumer>,
    transit_res: Demand<AsTotalsConsumer>,
    subscriber: Demand<AsTotalsConsumer>,
}

/// Demand handles of one §3.4 pass.
pub(crate) struct Plan {
    base: WindowDemands,
    lockdown: WindowDemands,
}

fn window_demands(plan: &mut EnginePlan, start: Date, end: Date) -> WindowDemands {
    let region = VantagePoint::IspCe.region();
    WindowDemands {
        transit_all: plan.subscribe(Stream::IspTransit, start, end, move || {
            AsTotalsConsumer::all(region)
        }),
        transit_res: plan.subscribe(Stream::IspTransit, start, end, move || {
            AsTotalsConsumer::touching(region, ISP_CE_ASN)
        }),
        subscriber: plan.subscribe(
            Stream::Vantage(VantagePoint::IspCe),
            start,
            end,
            move || AsTotalsConsumer::all(region),
        ),
    }
}

/// Declare §3.4's trace demands on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan) -> Plan {
    Plan {
        base: window_demands(plan, Date::new(2020, 2, 19), Date::new(2020, 2, 25)),
        lockdown: window_demands(plan, Date::new(2020, 3, 18), Date::new(2020, 3, 24)),
    }
}

/// Assemble §3.4 from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> Sec34 {
    let mut window = |w: WindowDemands| {
        let mut all = out.take(w.transit_all).totals;
        let mut residential = out.take(w.transit_res).totals;
        let subscriber = out.take(w.subscriber).totals;
        all.merge(&subscriber);
        residential.merge(&subscriber);
        (all, residential)
    };
    let (base_all, base_res) = &window(plan.base);
    let (lock_all, lock_res) = &window(plan.lockdown);

    let mut groups = Vec::new();
    for group in [
        RatioGroup::WorkdayDominated,
        RatioGroup::Balanced,
        RatioGroup::WeekendDominated,
    ] {
        let members: Vec<Asn> = base_all
            .in_group(group)
            .into_iter()
            .filter(|&a| a != ISP_CE_ASN)
            .collect();
        let points: Vec<ResidentialShift> =
            residential_shift(base_all, lock_all, base_res, lock_res, members.clone());
        groups.push(GroupStats {
            group,
            members: members.len(),
            correlation: shift_correlation(&points),
            mean_residential_delta: if points.is_empty() {
                0.0
            } else {
                points.iter().map(|p| p.residential_delta).sum::<f64>() / points.len() as f64
            },
        });
    }
    Sec34 { groups }
}

/// Run the §3.4 grouping analysis over the ISP transit view standalone.
pub fn run(ctx: &Context) -> Sec34 {
    engine::run_standalone(ctx, plan, finish)
}

impl Sec34 {
    /// Render the per-group table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["group", "ASes", "corr(total, residential)", "mean res Δ"]);
        for g in &self.groups {
            t.row([
                format!("{:?}", g.group),
                g.members.to_string(),
                format!("{:.3}", g.correlation),
                format!("{:+.3}", g.mean_residential_delta),
            ]);
        }
        format!(
            "§3.4 — remote-work AS groups (ISP transit view)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    /// Stats for one group.
    fn group(f: &Sec34, group: RatioGroup) -> &GroupStats {
        f.groups
            .iter()
            .find(|g| g.group == group)
            .expect("group present")
    }

    fn fig() -> &'static Sec34 {
        static FIG: OnceLock<Sec34> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test)))
    }

    #[test]
    fn all_three_groups_populated() {
        // Companies land in the workday group, entertainment ASes in the
        // weekend group, the general web in between.
        let f = fig();
        let wd = group(f, RatioGroup::WorkdayDominated);
        let bal = group(f, RatioGroup::Balanced);
        let we = group(f, RatioGroup::WeekendDominated);
        assert!(wd.members > 20, "workday group has {} members", wd.members);
        assert!(
            bal.members > 3,
            "balanced group has {} members",
            bal.members
        );
        assert!(we.members > 3, "weekend group has {} members", we.members);
    }

    #[test]
    fn correlation_holds_in_focus_group() {
        // §3.4: the correlation exists for the workday group ("When
        // looking at the other AS groups, the correlation still exists
        // but is weaker" — with the transit view dominated by business
        // ASes the other groups are small here).
        let f = fig();
        let wd = group(f, RatioGroup::WorkdayDominated);
        assert!(
            wd.correlation > 0.15,
            "workday-group correlation {:.3}",
            wd.correlation
        );
    }

    #[test]
    fn residential_traffic_grows_for_companies() {
        let f = fig();
        let wd = group(f, RatioGroup::WorkdayDominated);
        assert!(
            wd.mean_residential_delta > 0.05,
            "mean residential delta {:+.3}",
            wd.mean_residential_delta
        );
    }

    #[test]
    fn renders() {
        assert!(fig().render().contains("WorkdayDominated"));
    }
}
