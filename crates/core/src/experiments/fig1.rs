//! Fig. 1 — "Traffic changes during 2020 at multiple vantage points":
//! daily traffic averaged per week, normalized by the third January week,
//! for the ISP, the three IXPs, the mobile operator and the roaming
//! network.

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::{opt_norm, TextTable};
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;
use std::collections::BTreeMap;

/// The week range Fig. 1 plots (calendar weeks of 2020).
pub const WEEKS: std::ops::RangeInclusive<u8> = 1..=18;
/// The normalization week ("normalized by 3rd week of Jan").
pub(crate) const BASE_WEEK: u8 = 3;

/// Fig. 1's vantage points, in legend order.
pub(crate) const VANTAGE_POINTS: [VantagePoint; 6] = [
    VantagePoint::IspCe,
    VantagePoint::IxpCe,
    VantagePoint::IxpSe,
    VantagePoint::IxpUs,
    VantagePoint::MobileCe,
    VantagePoint::RoamingIpx,
];

/// One vantage point's normalized weekly series.
#[derive(Debug, Clone)]
pub struct WeeklySeries {
    /// The vantage point.
    pub vantage: VantagePoint,
    /// `(week, normalized volume)`; `None` when the week has no data.
    pub series: Vec<(u8, Option<f64>)>,
}

impl WeeklySeries {
    /// Value at a week.
    pub fn at(&self, week: u8) -> Option<f64> {
        self.series
            .iter()
            .find(|(w, _)| *w == week)
            .and_then(|(_, v)| *v)
    }
}

/// The full Fig. 1 result.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// One series per vantage point.
    pub series: Vec<WeeklySeries>,
}

/// Demand handles of one Fig. 1 pass.
pub(crate) struct Plan {
    volumes: Vec<(VantagePoint, Demand<HourlyVolume>)>,
}

/// Declare Fig. 1's trace demands on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan) -> Plan {
    // The plot starts Jan 1 and the paper's snapshot runs into May.
    let start = Date::new(2020, 1, 1);
    let end = Date::new(2020, 5, 3); // end of week 18
    Plan {
        volumes: VANTAGE_POINTS
            .iter()
            .map(|&vp| {
                (
                    vp,
                    plan.subscribe(Stream::Vantage(vp), start, end, HourlyVolume::new),
                )
            })
            .collect(),
    }
}

/// Assemble the figure from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> Fig1 {
    let mut series = Vec::new();
    for (vp, demand) in plan.volumes {
        let volume = out.take(demand);
        let weekly: BTreeMap<(i32, u8), u64> = volume.weekly_totals();
        let base = weekly.get(&(2020, BASE_WEEK)).copied().unwrap_or(0);
        let series_vp: Vec<(u8, Option<f64>)> = WEEKS
            .map(|w| {
                let v = weekly.get(&(2020, w)).copied().unwrap_or(0);
                let norm = if base > 0 && v > 0 {
                    Some(v as f64 / base as f64)
                } else {
                    None
                };
                (w, norm)
            })
            .collect();
        series.push(WeeklySeries {
            vantage: vp,
            series: series_vp,
        });
    }
    Fig1 { series }
}

/// Run the Fig. 1 reproduction standalone (one engine pass of its own).
pub fn run(ctx: &Context) -> Fig1 {
    engine::run_standalone(ctx, plan, finish)
}

impl Fig1 {
    /// Render the figure as a text table (weeks × vantage points).
    pub fn render(&self) -> String {
        let mut header = vec!["week".to_string()];
        header.extend(self.series.iter().map(|s| s.vantage.label().to_string()));
        let mut t = TextTable::new(header);
        for w in WEEKS {
            let mut row = vec![format!("{w}")];
            for s in &self.series {
                row.push(opt_norm(s.at(w)));
            }
            t.row(row);
        }
        format!(
            "Fig. 1 — daily traffic averaged per week, normalized to calendar week {BASE_WEEK}\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;

    /// Series for one vantage point.
    fn vantage(f: &Fig1, vp: VantagePoint) -> &WeeklySeries {
        let mut series = f.series.iter();
        series.find(|s| s.vantage == vp).expect("vantage plotted")
    }

    #[test]
    fn shape_matches_paper() {
        let ctx = Context::new(Fidelity::Test);
        let f = run(&ctx);

        // Base week is 1.0 by construction.
        for s in &f.series {
            let base = s.at(BASE_WEEK).expect("base week populated");
            assert!((base - 1.0).abs() < 1e-9, "{}: base {base}", s.vantage);
        }

        // Lockdown lifts the European fixed networks by roughly the
        // paper's magnitudes (ISP >15%, IXP-CE >18% at week 13).
        let isp = vantage(&f, VantagePoint::IspCe);
        let ixp_ce = vantage(&f, VantagePoint::IxpCe);
        assert!(
            isp.at(13).unwrap() > 1.12,
            "ISP wk13 {}",
            isp.at(13).unwrap()
        );
        assert!(
            ixp_ce.at(13).unwrap() > 1.15,
            "IXP-CE wk13 {}",
            ixp_ce.at(13).unwrap()
        );

        // The US IXP trails Europe: its week-12 growth is smaller than
        // IXP-CE's, and its curve keeps rising into late April.
        let us = vantage(&f, VantagePoint::IxpUs);
        assert!(us.at(12).unwrap() < ixp_ce.at(12).unwrap());
        assert!(us.at(17).unwrap() > us.at(11).unwrap());

        // Mobile dips below baseline during the lockdown; roaming falls
        // much harder (Fig. 1's bottom curves).
        let mobile = vantage(&f, VantagePoint::MobileCe);
        let roaming = vantage(&f, VantagePoint::RoamingIpx);
        assert!(mobile.at(14).unwrap() < 1.02);
        assert!(
            roaming.at(14).unwrap() < 0.75,
            "roaming {}",
            roaming.at(14).unwrap()
        );
        assert!(roaming.at(14).unwrap() < mobile.at(14).unwrap());

        // ISP decays toward May while IXP-CE's gain persists (§3.1).
        let isp_late = isp.at(18).unwrap();
        let isp_peak = isp
            .series
            .iter()
            .filter_map(|(_, v)| *v)
            .fold(0.0, f64::max);
        assert!(
            isp_late < isp_peak - 0.04,
            "ISP should decay: {isp_late} vs {isp_peak}"
        );
        assert!(ixp_ce.at(18).unwrap() > 1.10);
    }

    #[test]
    fn render_contains_all_weeks() {
        let ctx = Context::new(Fidelity::Test);
        let f = run(&ctx);
        let s = f.render();
        assert!(s.contains("ISP-CE"));
        assert!(s.contains("IPX"));
        assert_eq!(s.lines().count(), 18 + 3);
    }
}
