//! Fig. 3 — normalized hourly volume for the four selected weeks
//! (base / stage 1 / stage 2 / stage 3).
//!
//! * 3a: the ISP-CE's hour-by-hour series per week, normalized by the
//!   minimum across all four weeks;
//! * 3b: the three IXPs, reduced to workday/weekend hourly averages.

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_scenario::calendar::{day_type, AnalysisWeek, DayType, FIG3_WEEKS};
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// Fig. 3a result: per week, the 168 hourly values normalized by the
/// global minimum positive value.
#[derive(Debug, Clone)]
pub struct Fig3a {
    /// `(week label, 7×24 normalized hourly values)`.
    pub weeks: Vec<(&'static str, Vec<f64>)>,
}

/// Demand handles of one Fig. 3a pass.
pub(crate) struct Plan3a {
    weeks: Vec<(AnalysisWeek, Demand<HourlyVolume>)>,
}

/// Declare Fig. 3a's trace demands on a shared engine plan.
pub(crate) fn plan_3a(plan: &mut EnginePlan) -> Plan3a {
    Plan3a {
        weeks: FIG3_WEEKS
            .iter()
            .map(|&week| {
                let d = plan.subscribe(
                    Stream::Vantage(VantagePoint::IspCe),
                    week.start,
                    week.end(),
                    HourlyVolume::new,
                );
                (week, d)
            })
            .collect(),
    }
}

/// Assemble Fig. 3a from a finished engine pass.
pub(crate) fn finish_3a(plan: Plan3a, out: &mut EngineOutput) -> Fig3a {
    let mut raw: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for (week, demand) in plan.weeks {
        let volume = out.take(demand);
        let series: Vec<u64> = volume
            .hourly_series(week.start, week.end())
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        raw.push((week.label, series));
    }
    let min = raw
        .iter()
        .flat_map(|(_, s)| s.iter())
        .copied()
        .filter(|&v| v > 0)
        .min()
        .unwrap_or(1) as f64;
    Fig3a {
        weeks: raw
            .into_iter()
            .map(|(label, s)| (label, s.into_iter().map(|v| v as f64 / min).collect()))
            .collect(),
    }
}

/// Run Fig. 3a (ISP-CE) standalone.
pub fn run_3a(ctx: &Context) -> Fig3a {
    engine::run_standalone(ctx, plan_3a, finish_3a)
}

impl Fig3a {
    /// Mean normalized volume of one week.
    pub fn week_mean(&self, label: &str) -> f64 {
        let (_, s) = self
            .weeks
            .iter()
            .find(|(l, _)| *l == label)
            .expect("week label exists");
        s.iter().sum::<f64>() / s.len() as f64
    }

    /// Render week means and peaks.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["week", "mean", "peak", "min"]);
        for (label, s) in &self.weeks {
            let mean = s.iter().sum::<f64>() / s.len() as f64;
            let peak = s.iter().copied().fold(0.0, f64::max);
            let min = s
                .iter()
                .copied()
                .filter(|&v| v > 0.0)
                .fold(f64::MAX, f64::min);
            t.row([
                label.to_string(),
                format!("{mean:.2}"),
                format!("{peak:.2}"),
                format!("{min:.2}"),
            ]);
        }
        format!(
            "Fig. 3a — ISP-CE normalized hourly volume (min across weeks = 1.0)\n{}",
            t.render()
        )
    }
}

/// One IXP's workday/weekend hourly averages for one week.
#[derive(Debug, Clone)]
pub struct IxpWeekProfile {
    /// Week label.
    pub label: &'static str,
    /// Mean hourly bytes on workdays (24 values).
    pub workday: [f64; 24],
    /// Mean hourly bytes on weekend days.
    pub weekend: [f64; 24],
}

/// Fig. 3b result.
#[derive(Debug, Clone)]
pub struct Fig3b {
    /// Per IXP, the four weekly profiles, normalized per IXP by the
    /// global minimum positive hourly mean.
    pub ixps: Vec<(VantagePoint, Vec<IxpWeekProfile>)>,
}

fn week_profile(
    volume: &HourlyVolume,
    week: &AnalysisWeek,
    vp: VantagePoint,
) -> ([f64; 24], [f64; 24]) {
    let mut workday = [0.0f64; 24];
    let mut weekend = [0.0f64; 24];
    let (mut n_wd, mut n_we) = (0usize, 0usize);
    for date in week.start.range_inclusive(week.end()) {
        let profile = volume.day_profile(date);
        if day_type(date, vp.region()) == DayType::Workday {
            n_wd += 1;
            for (o, v) in workday.iter_mut().zip(profile) {
                *o += v as f64;
            }
        } else {
            n_we += 1;
            for (o, v) in weekend.iter_mut().zip(profile) {
                *o += v as f64;
            }
        }
    }
    for o in &mut workday {
        *o /= n_wd.max(1) as f64;
    }
    for o in &mut weekend {
        *o /= n_we.max(1) as f64;
    }
    (workday, weekend)
}

/// One analysis week's volume demand.
type WeekDemands = Vec<(AnalysisWeek, Demand<HourlyVolume>)>;

/// Demand handles of one Fig. 3b pass.
pub(crate) struct Plan3b {
    ixps: Vec<(VantagePoint, WeekDemands)>,
}

/// Declare Fig. 3b's trace demands on a shared engine plan.
pub(crate) fn plan_3b(plan: &mut EnginePlan) -> Plan3b {
    Plan3b {
        ixps: [
            VantagePoint::IxpCe,
            VantagePoint::IxpUs,
            VantagePoint::IxpSe,
        ]
        .into_iter()
        .map(|vp| {
            let weeks = FIG3_WEEKS
                .iter()
                .map(|&week| {
                    let d = plan.subscribe(
                        Stream::Vantage(vp),
                        week.start,
                        week.end(),
                        HourlyVolume::new,
                    );
                    (week, d)
                })
                .collect();
            (vp, weeks)
        })
        .collect(),
    }
}

/// Assemble Fig. 3b from a finished engine pass.
pub(crate) fn finish_3b(plan: Plan3b, out: &mut EngineOutput) -> Fig3b {
    let mut ixps = Vec::new();
    for (vp, weeks) in plan.ixps {
        let mut profiles = Vec::new();
        for (week, demand) in weeks {
            let volume = out.take(demand);
            let (workday, weekend) = week_profile(&volume, &week, vp);
            profiles.push(IxpWeekProfile {
                label: week.label,
                workday,
                weekend,
            });
        }
        // Normalize by the IXP's minimum positive hourly mean.
        let min = profiles
            .iter()
            .flat_map(|p| p.workday.iter().chain(p.weekend.iter()))
            .copied()
            .filter(|&v| v > 0.0)
            .fold(f64::MAX, f64::min);
        for p in &mut profiles {
            for v in p.workday.iter_mut().chain(p.weekend.iter_mut()) {
                *v /= min;
            }
        }
        ixps.push((vp, profiles));
    }
    Fig3b { ixps }
}

/// Run Fig. 3b (the three IXPs) standalone.
pub fn run_3b(ctx: &Context) -> Fig3b {
    engine::run_standalone(ctx, plan_3b, finish_3b)
}

impl Fig3b {
    /// Mean across a profile.
    pub(crate) fn mean_of(profile: &[f64; 24]) -> f64 {
        profile.iter().sum::<f64>() / 24.0
    }

    /// Render week × (workday mean, weekend mean) per IXP.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 3b — IXP normalized hourly means per week\n");
        for (vp, profiles) in &self.ixps {
            let mut t = TextTable::new(["week", "workday mean", "weekend mean", "daily min"]);
            for p in profiles {
                let min = p
                    .workday
                    .iter()
                    .chain(p.weekend.iter())
                    .copied()
                    .filter(|&v| v > 0.0)
                    .fold(f64::MAX, f64::min);
                t.row([
                    p.label.to_string(),
                    format!("{:.2}", Self::mean_of(&p.workday)),
                    format!("{:.2}", Self::mean_of(&p.weekend)),
                    format!("{min:.2}"),
                ]);
            }
            out.push_str(&format!("{vp}\n{}\n", t.render()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    /// The weekly profiles of one IXP.
    fn ixp(f: &Fig3b, vp: VantagePoint) -> &[IxpWeekProfile] {
        &f.ixps
            .iter()
            .find(|(v, _)| *v == vp)
            .expect("IXP present")
            .1
    }

    fn ctx() -> &'static Context {
        static CTX: OnceLock<Context> = OnceLock::new();
        CTX.get_or_init(|| Context::new(Fidelity::Test))
    }

    #[test]
    fn fig3a_week_ordering() {
        let f = run_3a(ctx());
        let base = f.week_mean("base");
        let stage1 = f.week_mean("stage1");
        let stage2 = f.week_mean("stage2");
        let stage3 = f.week_mean("stage3");
        // §3.1: ISP grows >20% into the lockdown, then decays to ~6%.
        assert!(stage1 / base > 1.12, "stage1/base = {}", stage1 / base);
        assert!(stage2 / base > 1.05);
        assert!(stage3 < stage1, "growth must decay by stage 3");
    }

    #[test]
    fn fig3b_minimum_levels_rise() {
        let f = run_3b(ctx());
        // "not only the peak traffic increased but also the minimum
        // traffic levels" — compare base-week min vs stage2-week min.
        for vp in [VantagePoint::IxpCe, VantagePoint::IxpSe] {
            let profiles = ixp(&f, vp);
            let min_of = |p: &IxpWeekProfile| {
                p.workday
                    .iter()
                    .chain(p.weekend.iter())
                    .copied()
                    .filter(|&v| v > 0.0)
                    .fold(f64::MAX, f64::min)
            };
            let base_min = min_of(&profiles[0]);
            let stage2_min = min_of(&profiles[2]);
            assert!(
                stage2_min > base_min,
                "{vp}: min must rise ({base_min} -> {stage2_min})"
            );
        }
    }

    #[test]
    fn fig3b_us_trails() {
        let f = run_3b(ctx());
        let growth = |vp: VantagePoint, idx: usize| {
            let p = ixp(&f, vp);
            Fig3b::mean_of(&p[idx].workday) / Fig3b::mean_of(&p[0].workday)
        };
        // Stage 1 (March): US barely moves while IXP-CE jumps.
        assert!(growth(VantagePoint::IxpUs, 1) < growth(VantagePoint::IxpCe, 1));
        // Stage 2 (late April): US has caught up beyond its stage 1.
        assert!(growth(VantagePoint::IxpUs, 2) > growth(VantagePoint::IxpUs, 1));
    }

    #[test]
    fn renders() {
        assert!(run_3a(ctx()).render().contains("stage3"));
        assert!(run_3b(ctx()).render().contains("IXP-US"));
    }
}
