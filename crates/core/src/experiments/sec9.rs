//! §9 ("Taming the traffic increase") — peak-hour vs. valley growth.
//!
//! The discussion's operational takeaway: "the effect of the pandemic
//! fills the valleys during the working hours in the residential networks
//! and has a moderate increase in the peak traffic" — peaks grow less than
//! means, so well-provisioned networks absorbed the shift. This experiment
//! quantifies exactly that: per vantage point, the growth of the weekly
//! peak hour, the weekly mean, and the weekly trough between the base and
//! stage-2 weeks.

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_scenario::calendar::{AnalysisWeek, FIG3_WEEKS};
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// Growth decomposition for one vantage point.
#[derive(Debug, Clone, Copy)]
pub struct PeakValley {
    /// The vantage point.
    pub vantage: VantagePoint,
    /// Peak-hour growth (stage-2 peak / base peak).
    pub peak_growth: f64,
    /// Mean-hour growth.
    pub mean_growth: f64,
    /// Trough growth (minimum positive hour).
    pub valley_growth: f64,
}

/// §9 result.
#[derive(Debug, Clone)]
pub struct Sec9 {
    /// Per-vantage decomposition (the paper's four fixed networks).
    pub rows: Vec<PeakValley>,
}

/// Demand handles of one §9 pass.
pub(crate) struct Plan {
    rows: Vec<(VantagePoint, Demand<HourlyVolume>, Demand<HourlyVolume>)>,
}

/// Declare §9's trace demands on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan) -> Plan {
    let base = &FIG3_WEEKS[0];
    let stage2 = &FIG3_WEEKS[2];
    Plan {
        rows: VantagePoint::CORE_FOUR
            .into_iter()
            .map(|vp| {
                let d0 = plan.subscribe(
                    Stream::Vantage(vp),
                    base.start,
                    base.end(),
                    HourlyVolume::new,
                );
                let d2 = plan.subscribe(
                    Stream::Vantage(vp),
                    stage2.start,
                    stage2.end(),
                    HourlyVolume::new,
                );
                (vp, d0, d2)
            })
            .collect(),
    }
}

/// Assemble §9 from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> Sec9 {
    let base = &FIG3_WEEKS[0];
    let stage2 = &FIG3_WEEKS[2];
    let stats = |volume: &HourlyVolume, week: &AnalysisWeek| {
        let series: Vec<u64> = volume
            .hourly_series(week.start, week.end())
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let peak = series.iter().copied().max().unwrap_or(0) as f64;
        let mean = series.iter().sum::<u64>() as f64 / series.len().max(1) as f64;
        let valley = series.iter().copied().filter(|&v| v > 0).min().unwrap_or(0) as f64;
        (peak, mean, valley)
    };
    let mut rows = Vec::new();
    for (vp, d0, d2) in plan.rows {
        let (p0, m0, v0) = stats(&out.take(d0), base);
        let (p2, m2, v2) = stats(&out.take(d2), stage2);
        rows.push(PeakValley {
            vantage: vp,
            peak_growth: p2 / p0.max(1.0),
            mean_growth: m2 / m0.max(1.0),
            valley_growth: v2 / v0.max(1.0),
        });
    }
    Sec9 { rows }
}

/// Run the §9 peak/valley decomposition standalone.
pub fn run(ctx: &Context) -> Sec9 {
    engine::run_standalone(ctx, plan, finish)
}

impl Sec9 {
    /// Render the decomposition.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["vantage", "peak growth", "mean growth", "valley growth"]);
        for r in &self.rows {
            t.row([
                r.vantage.label().to_string(),
                format!("{:+.1}%", (r.peak_growth - 1.0) * 100.0),
                format!("{:+.1}%", (r.mean_growth - 1.0) * 100.0),
                format!("{:+.1}%", (r.valley_growth - 1.0) * 100.0),
            ]);
        }
        format!(
            "§9 — peak vs valley growth (base week vs stage 2)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    /// Row for one vantage point.
    fn vantage(f: &Sec9, vp: VantagePoint) -> &PeakValley {
        f.rows
            .iter()
            .find(|r| r.vantage == vp)
            .expect("core four present")
    }

    fn fig() -> &'static Sec9 {
        static FIG: OnceLock<Sec9> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test)))
    }

    #[test]
    fn pandemic_fills_valleys_not_peaks() {
        // §9's claim, per European fixed network: valley growth exceeds
        // mean growth exceeds (roughly) peak growth.
        for vp in [VantagePoint::IspCe, VantagePoint::IxpCe] {
            let r = vantage(fig(), vp);
            assert!(
                r.valley_growth > r.peak_growth,
                "{vp}: valley {:.2} must outgrow peak {:.2}",
                r.valley_growth,
                r.peak_growth
            );
            assert!(
                r.mean_growth > 1.05,
                "{vp}: mean growth {:.2} too small",
                r.mean_growth
            );
            // Peaks grow moderately — well under the 30% headroom networks
            // provision for (§9).
            assert!(
                r.peak_growth < 1.30,
                "{vp}: peak growth {:.2} too large",
                r.peak_growth
            );
        }
    }

    #[test]
    fn renders() {
        assert!(fig().render().contains("valley growth"));
    }
}
