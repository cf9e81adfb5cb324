//! Fig. 2 — "Drastic shift in Internet usage patterns".
//!
//! * 2a: ISP-CE hourly traffic for Wed Feb 19, Sat Feb 22 and Wed Mar 25
//!   (the lockdown workday whose shape turned weekend-like);
//! * 2b/2c: every day from Jan 1 to May 11 at ISP-CE and IXP-CE classified
//!   as workday-like or weekend-like against a February 6-hour baseline.

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::{sparkline, TextTable};
use lockdown_analysis::dayclass::{
    ClassificationSummary, ClassifiedDay, DayClassifier, DayPattern,
};
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// The three days of Fig. 2a.
pub(crate) const FIG2A_DAYS: [(Date, &str); 3] = [
    (
        Date {
            year: 2020,
            month: 2,
            day: 19,
        },
        "Wednesday Feb 19",
    ),
    (
        Date {
            year: 2020,
            month: 2,
            day: 22,
        },
        "Saturday Feb 22",
    ),
    (
        Date {
            year: 2020,
            month: 3,
            day: 25,
        },
        "Wednesday Mar 25 (lockdown)",
    ),
];

/// Fig. 2a result: normalized hourly profiles of the three days.
#[derive(Debug, Clone)]
pub struct Fig2a {
    /// `(label, 24 hourly values normalized to the max across all days)`.
    pub profiles: Vec<(&'static str, [f64; 24])>,
}

/// Demand handles of one Fig. 2a pass.
pub(crate) struct Plan2a {
    days: Vec<(Date, &'static str, Demand<HourlyVolume>)>,
}

/// Declare Fig. 2a's trace demands on a shared engine plan.
pub(crate) fn plan_2a(plan: &mut EnginePlan) -> Plan2a {
    Plan2a {
        days: FIG2A_DAYS
            .iter()
            .map(|&(date, label)| {
                let d = plan.subscribe(
                    Stream::Vantage(VantagePoint::IspCe),
                    date,
                    date,
                    HourlyVolume::new,
                );
                (date, label, d)
            })
            .collect(),
    }
}

/// Assemble Fig. 2a from a finished engine pass.
pub(crate) fn finish_2a(plan: Plan2a, out: &mut EngineOutput) -> Fig2a {
    let mut raw = Vec::new();
    for (date, label, demand) in plan.days {
        let volume = out.take(demand);
        raw.push((label, volume.day_profile(date)));
    }
    let max = raw
        .iter()
        .flat_map(|(_, p)| p.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let profiles = raw
        .into_iter()
        .map(|(label, p)| {
            let mut out = [0.0; 24];
            for (o, v) in out.iter_mut().zip(p) {
                *o = v as f64 / max;
            }
            (label, out)
        })
        .collect();
    Fig2a { profiles }
}

/// Run Fig. 2a (ISP-CE) standalone.
pub fn run_2a(ctx: &Context) -> Fig2a {
    engine::run_standalone(ctx, plan_2a, finish_2a)
}

impl Fig2a {
    /// Render as a small table plus sparklines.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["day", "profile (00..23h)", "10h", "21h"]);
        for (label, p) in &self.profiles {
            t.row([
                label.to_string(),
                sparkline(p),
                format!("{:.2}", p[10]),
                format!("{:.2}", p[21]),
            ]);
        }
        format!(
            "Fig. 2a — ISP-CE hourly traffic, normalized\n{}",
            t.render()
        )
    }
}

/// Fig. 2b/2c result for one vantage point.
#[derive(Debug, Clone)]
pub struct Fig2bc {
    /// The vantage point (ISP-CE for 2b, IXP-CE for 2c).
    pub vantage: VantagePoint,
    /// Every classified day Jan 1 – May 11.
    pub days: Vec<ClassifiedDay>,
}

/// Demand handles of one Fig. 2b/2c pass.
pub(crate) struct Plan2bc {
    vantage: VantagePoint,
    volume: Demand<HourlyVolume>,
}

/// Declare Fig. 2b/2c's trace demand on a shared engine plan.
pub(crate) fn plan_2bc(plan: &mut EnginePlan, vantage: VantagePoint) -> Plan2bc {
    let start = Date::new(2020, 1, 1);
    let end = Date::new(2020, 5, 11);
    Plan2bc {
        vantage,
        volume: plan.subscribe(Stream::Vantage(vantage), start, end, HourlyVolume::new),
    }
}

/// Assemble Fig. 2b/2c from a finished engine pass.
pub(crate) fn finish_2bc(plan: Plan2bc, out: &mut EngineOutput) -> Fig2bc {
    let start = Date::new(2020, 1, 1);
    let end = Date::new(2020, 5, 11);
    let volume = out.take(plan.volume);
    let classifier = DayClassifier::train_february(&volume, plan.vantage.region());
    let days = classifier.classify_range(&volume, start, end);
    Fig2bc {
        vantage: plan.vantage,
        days,
    }
}

/// Run Fig. 2b (ISP-CE) or 2c (IXP-CE) standalone.
pub fn run_2bc(ctx: &Context, vantage: VantagePoint) -> Fig2bc {
    engine::run_standalone(ctx, |p| plan_2bc(p, vantage), finish_2bc)
}

impl Fig2bc {
    /// Summary over a sub-range.
    pub(crate) fn summary(&self, start: Date, end: Date) -> ClassificationSummary {
        let subset: Vec<ClassifiedDay> = self
            .days
            .iter()
            .filter(|d| d.date >= start && d.date <= end)
            .copied()
            .collect();
        ClassificationSummary::of(&subset)
    }

    /// Fraction of *calendar workdays* in a range classified weekend-like
    /// (the paper's headline: "from mid Mar 2020 onward … almost all days
    /// are classified as weekend-like").
    pub fn workdays_turned_weekend(&self, start: Date, end: Date) -> f64 {
        let workdays: Vec<&ClassifiedDay> = self
            .days
            .iter()
            .filter(|d| {
                d.date >= start
                    && d.date <= end
                    && d.calendar == lockdown_scenario::calendar::DayType::Workday
            })
            .collect();
        if workdays.is_empty() {
            return 0.0;
        }
        workdays
            .iter()
            .filter(|d| d.pattern == DayPattern::WeekendLike)
            .count() as f64
            / workdays.len() as f64
    }

    /// Render a per-month summary table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["month", "workday-like", "weekend-like", "calendar matches"]);
        for (m, last) in [(1u8, 31u8), (2, 29), (3, 31), (4, 30), (5, 11)] {
            let s = self.summary(Date::new(2020, m, 1), Date::new(2020, m, last));
            t.row([
                format!("2020-{m:02}"),
                s.workday_like.to_string(),
                s.weekend_like.to_string(),
                format!("{}/{}", s.matches, s.matches + s.mismatches),
            ]);
        }
        format!(
            "Fig. 2b/2c — day-pattern classification at {}\n{}",
            self.vantage,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    fn ctx() -> &'static Context {
        static CTX: OnceLock<Context> = OnceLock::new();
        CTX.get_or_init(|| Context::new(Fidelity::Test))
    }

    #[test]
    fn fig2a_shapes() {
        let f = run_2a(ctx());
        let feb_wed = f.profiles[0].1;
        let feb_sat = f.profiles[1].1;
        let mar_wed = f.profiles[2].1;
        // Weekend and lockdown days gain morning momentum: their
        // morning-to-evening ratio far exceeds the pre-pandemic
        // Wednesday's (the Fig. 2a contrast).
        let ratio = |p: &[f64; 24]| p[10] / p[21];
        assert!(
            ratio(&feb_sat) > 1.2 * ratio(&feb_wed),
            "sat {} wed {}",
            ratio(&feb_sat),
            ratio(&feb_wed)
        );
        assert!(
            ratio(&mar_wed) > 1.2 * ratio(&feb_wed),
            "mar {} feb {}",
            ratio(&mar_wed),
            ratio(&feb_wed)
        );
        // And absolutely more morning traffic, too.
        assert!(feb_sat[10] > 1.1 * feb_wed[10]);
        assert!(mar_wed[10] > 1.1 * feb_wed[10]);
        // All profiles peak in the evening.
        for (label, p) in &f.profiles {
            let peak_hour = (0..24).max_by(|&a, &b| p[a].total_cmp(&p[b])).unwrap();
            assert!((18..=22).contains(&peak_hour), "{label}: peak {peak_hour}");
        }
        // Lockdown Wednesday's total exceeds February Wednesday's.
        let sum = |p: &[f64; 24]| p.iter().sum::<f64>();
        assert!(sum(&mar_wed) > 1.08 * sum(&feb_wed));
    }

    #[test]
    fn fig2bc_classification_flips_mid_march() {
        for vp in [VantagePoint::IspCe, VantagePoint::IxpCe] {
            let f = run_2bc(ctx(), vp);
            // Before the lockdown, classification matches the calendar.
            let feb = f.summary(Date::new(2020, 2, 1), Date::new(2020, 2, 29));
            assert!(
                feb.accuracy() > 0.85,
                "{vp}: Feb accuracy {}",
                feb.accuracy()
            );
            // From April on, almost all workdays classify weekend-like.
            let flipped = f.workdays_turned_weekend(Date::new(2020, 4, 1), Date::new(2020, 4, 30));
            assert!(
                flipped > 0.85,
                "{vp}: only {flipped:.2} of April workdays flipped"
            );
            // Pre-covid February workdays did not flip.
            let feb_flip = f.workdays_turned_weekend(Date::new(2020, 2, 1), Date::new(2020, 2, 29));
            assert!(feb_flip < 0.15, "{vp}: Feb flip {feb_flip:.2}");
        }
    }

    #[test]
    fn renders() {
        let a = run_2a(ctx());
        assert!(a.render().contains("Mar 25"));
        let b = run_2bc(ctx(), VantagePoint::IspCe);
        assert!(b.render().contains("2020-04"));
    }
}
