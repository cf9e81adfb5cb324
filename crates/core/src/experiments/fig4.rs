//! Fig. 4 — ISP-CE normalized daily traffic growth for hypergiants vs.
//! other ASes, by day part, across calendar weeks 1–18.
//!
//! The finding this reproduces (§3.2): until the lockdown the two curves
//! coincide; afterwards the *other* ASes' relative growth dominates the
//! hypergiants', with the smallest gap during working hours on workdays.

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::{opt_norm, TextTable};
use lockdown_analysis::asgroup::{DayPart, HypergiantSplit};
use lockdown_analysis::consumer::HypergiantConsumer;
use lockdown_flow::time::Date;
use lockdown_topology::registry::ISP_CE_ASN;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// Weeks plotted.
pub const WEEKS: std::ops::RangeInclusive<u8> = 1..=18;
/// Normalization week (consistent with Fig. 1's baseline).
pub(crate) const BASE_WEEK: u8 = 3;

/// Fig. 4 result.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The accumulated split (exposed for further slicing).
    pub split: HypergiantSplit,
    /// Growth per (day part, hypergiant?) over [`WEEKS`].
    pub series: Vec<(DayPart, bool, Vec<Option<f64>>)>,
}

/// Demand handle of one Fig. 4 pass.
pub(crate) struct Plan {
    split: Demand<HypergiantConsumer>,
}

/// Declare Fig. 4's trace demand on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan) -> Plan {
    let region = VantagePoint::IspCe.region();
    Plan {
        split: plan.subscribe(
            Stream::Vantage(VantagePoint::IspCe),
            Date::new(2020, 1, 1),
            Date::new(2020, 5, 3),
            move || HypergiantConsumer::new(region, ISP_CE_ASN),
        ),
    }
}

/// Assemble Fig. 4 from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> Fig4 {
    let split = out.take(plan.split).split;
    let mut series = Vec::new();
    for part in DayPart::ALL {
        for hg in [true, false] {
            series.push((part, hg, split.growth_series(part, hg, WEEKS, BASE_WEEK)));
        }
    }
    Fig4 { split, series }
}

/// Run Fig. 4 standalone.
pub fn run(ctx: &Context) -> Fig4 {
    engine::run_standalone(ctx, plan, finish)
}

impl Fig4 {
    /// Growth value for (part, hypergiant?, week).
    pub fn at(&self, part: DayPart, hypergiant: bool, week: u8) -> Option<f64> {
        let (_, _, s) = self
            .series
            .iter()
            .find(|(p, h, _)| *p == part && *h == hypergiant)?;
        let idx = (week as usize).checked_sub(*WEEKS.start() as usize)?;
        s.get(idx).copied().flatten()
    }

    /// Render both groups for the workday day parts.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "week",
            "HG wd-work",
            "other wd-work",
            "HG wd-evening",
            "other wd-evening",
            "HG we-work",
            "other we-work",
        ]);
        for w in WEEKS {
            t.row([
                w.to_string(),
                opt_norm(self.at(DayPart::WorkdayWork, true, w)),
                opt_norm(self.at(DayPart::WorkdayWork, false, w)),
                opt_norm(self.at(DayPart::WorkdayEvening, true, w)),
                opt_norm(self.at(DayPart::WorkdayEvening, false, w)),
                opt_norm(self.at(DayPart::WeekendWork, true, w)),
                opt_norm(self.at(DayPart::WeekendWork, false, w)),
            ]);
        }
        format!(
            "Fig. 4 — ISP-CE growth, hypergiants vs other ASes (week {BASE_WEEK} = 1.0)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use crate::experiments::CLAIM_SEEDS;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig4 {
        static FIG: OnceLock<Fig4> = OnceLock::new();
        // Standard fidelity: the hypergiant/other byte split inherits the
        // heavy-tailed flow-size noise, and the weekly weekend bins need
        // the extra flows for the dominance ordering to be stable.
        FIG.get_or_init(|| run(&Context::new(Fidelity::Standard)))
    }

    #[test]
    fn curves_coincide_before_lockdown() {
        let f = fig();
        for w in [5u8, 7, 9] {
            let hg = f.at(DayPart::WorkdayEvening, true, w).unwrap();
            let other = f.at(DayPart::WorkdayEvening, false, w).unwrap();
            assert!(
                (hg - other).abs() < 0.13,
                "week {w}: HG {hg:.3} vs other {other:.3} should coincide"
            );
        }
    }

    #[test]
    fn others_dominate_after_lockdown() {
        let f = fig();
        // §3.2: after the lockdown, the other-AS curve dominates in every
        // day part. Weekly bins at test fidelity carry heavy-tailed
        // sampling noise, so each individual bin gets a small slack while
        // the weeks-13–16 mean must dominate strictly.
        for part in DayPart::ALL {
            let mut hg_sum = 0.0;
            let mut other_sum = 0.0;
            for w in [13u8, 14, 15, 16] {
                let hg = f.at(part, true, w).unwrap();
                let other = f.at(part, false, w).unwrap();
                hg_sum += hg;
                other_sum += other;
                assert!(
                    other + 0.07 > hg,
                    "{part:?} week {w}: other {other:.3} far below HG {hg:.3}"
                );
            }
            assert!(
                other_sum > hg_sum,
                "{part:?}: mean other {:.3} must exceed mean HG {:.3}",
                other_sum / 4.0,
                hg_sum / 4.0
            );
        }
    }

    #[test]
    fn hypergiants_surge_then_stabilize() {
        let f = fig();
        // Weekend windows are diurnal-shape-stable, so growth shows
        // directly (workday windows fold in the weekend-like morph, which
        // redistributes evening volume into the day).
        let hg_11 = f.at(DayPart::WeekendEvening, true, 11).unwrap();
        let hg_12 = f.at(DayPart::WeekendEvening, true, 12).unwrap();
        // Substantial HG increase into the lockdown week.
        assert!(
            hg_12 > hg_11 + 0.04,
            "HG surge week 11→12: {hg_11} -> {hg_12}"
        );
        // Weekend HG traffic declines or stabilizes week 12→13 (resolution
        // reduction on Mar 19).
        let hg_we_12 = f.at(DayPart::WeekendEvening, true, 12).unwrap();
        let hg_we_13 = f.at(DayPart::WeekendEvening, true, 13).unwrap();
        assert!(
            hg_we_13 < hg_we_12 * 1.06,
            "HG weekend should stabilize/decline: {hg_we_12} -> {hg_we_13}"
        );
    }

    /// Held on every seed. One weekly bin over the one base week carries
    /// the flow sizes' heavy tail twice — the week-14 gap moves by ±0.1 a
    /// seed, and the base week's draw shifts a whole series — so the gap
    /// is taken between windows: the post-lockdown weeks over the weeks
    /// before the outbreak, where §3.2 has the curves coincide.
    #[test]
    fn smallest_gap_during_work_hours() {
        for seed in CLAIM_SEEDS {
            let f = run(&Context::with_seed(Fidelity::Standard, seed));
            let mean = |part, hg, weeks: std::ops::RangeInclusive<u8>| {
                let n = f64::from(weeks.end() - weeks.start() + 1);
                weeks.map(|w| f.at(part, hg, w).unwrap()).sum::<f64>() / n
            };
            // §3.2: "the smallest difference is during workhours on workdays".
            let gap = |part| {
                let growth = |hg| mean(part, hg, 13..=18) / mean(part, hg, 3..=9);
                growth(false) - growth(true)
            };
            let wd_work = gap(DayPart::WorkdayWork);
            let we_evening = gap(DayPart::WeekendEvening);
            assert!(
                wd_work < we_evening + 0.25,
                "seed {seed}: workday-work gap {wd_work:.3} vs weekend-evening {we_evening:.3}"
            );
        }
    }

    #[test]
    fn renders() {
        assert!(fig().render().contains("other wd-work"));
    }
}
