//! Fig. 9 — application-class heatmaps for the four vantage points: a base
//! week plus the (stage − base) difference for stages 1 and 2, per class,
//! per day-of-week and hour (02:00–07:00 removed), clamped to
//! [−100%, +200%] (§5).

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::appclass::{heatmap_diff, PaperClass, WeekHeatmap, DISPLAY_HOURS};
use lockdown_analysis::consumer::HeatmapConsumer;
use lockdown_scenario::calendar::{AnalysisWeek, APPCLASS_ISP_WEEKS, APPCLASS_IXP_WEEKS};
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;
use std::sync::Arc;

/// Fig. 9 result for one vantage point.
#[derive(Debug)]
pub struct Fig9 {
    /// The vantage point.
    pub vantage: VantagePoint,
    /// Heatmaps for base / stage 1 / stage 2.
    pub weeks: [WeekHeatmap; 3],
}

/// Demand handles of one Fig. 9 pass.
pub(crate) struct Plan {
    vantage: VantagePoint,
    weeks: [Demand<HeatmapConsumer>; 3],
}

/// Declare Fig. 9's trace demands for one vantage point on a shared
/// engine plan.
pub(crate) fn plan(plan: &mut EnginePlan, ctx: &Context, vantage: VantagePoint) -> Plan {
    let weeks: &[AnalysisWeek; 3] = if vantage == VantagePoint::IspCe {
        &APPCLASS_ISP_WEEKS
    } else {
        &APPCLASS_IXP_WEEKS
    };
    let mut subscribe = |week: &AnalysisWeek| {
        let classifier = Arc::clone(&ctx.classifier);
        let start = week.start;
        plan.subscribe(
            Stream::Vantage(vantage),
            week.start,
            week.end(),
            move || HeatmapConsumer::new(Arc::clone(&classifier), start),
        )
    };
    Plan {
        vantage,
        weeks: [
            subscribe(&weeks[0]),
            subscribe(&weeks[1]),
            subscribe(&weeks[2]),
        ],
    }
}

/// Assemble Fig. 9 from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> Fig9 {
    let [a, b, c] = plan.weeks;
    Fig9 {
        vantage: plan.vantage,
        weeks: [
            out.take(a).heatmap,
            out.take(b).heatmap,
            out.take(c).heatmap,
        ],
    }
}

/// Run Fig. 9 for one vantage point standalone.
pub fn run(ctx: &Context, vantage: VantagePoint) -> Fig9 {
    engine::run_standalone(ctx, |p| plan(p, ctx, vantage), finish)
}

impl Fig9 {
    /// The (stage − base) difference grid for a class; `stage` is 1 or 2.
    pub(crate) fn diff(&self, class: PaperClass, stage: usize) -> [[f64; DISPLAY_HOURS]; 7] {
        assert!(stage == 1 || stage == 2, "stage must be 1 or 2");
        heatmap_diff(&self.weeks[0], &self.weeks[stage], class)
    }

    /// Mean difference (percent) over business hours (09:00–17:00) of the
    /// days that are calendar workdays in *both* compared weeks (the ISP's
    /// stage-2 week contains the Easter holidays, which the paper
    /// classifies as weekend days, §4).
    pub(crate) fn business_hours_diff(&self, class: PaperClass, stage: usize) -> f64 {
        use lockdown_scenario::calendar::{day_type, DayType};
        let grid = self.diff(class, stage);
        let region = self.vantage.region();
        let mut sum = 0.0;
        let mut n = 0usize;
        for (d, day) in grid.iter().enumerate() {
            let base_day = self.weeks[0].start.add_days(d as i64);
            let stage_day = self.weeks[stage].start.add_days(d as i64);
            if day_type(base_day, region) != DayType::Workday
                || day_type(stage_day, region) != DayType::Workday
            {
                continue;
            }
            for hour in 9..17u8 {
                if let Some(slot) = lockdown_analysis::appclass::display_slot(hour) {
                    sum += day[slot];
                    n += 1;
                }
            }
        }
        sum / n.max(1) as f64
    }

    /// Mean difference over the whole displayed grid.
    pub(crate) fn overall_diff(&self, class: PaperClass, stage: usize) -> f64 {
        let grid = self.diff(class, stage);
        let total: f64 = grid.iter().flat_map(|d| d.iter()).sum();
        total / (7 * DISPLAY_HOURS) as f64
    }

    /// Week-over-week volume change (percent) for one class: the ratio of
    /// summed grid bytes, the robust "did this class grow" statistic (the
    /// per-cell mean overweights small cells that the diurnal morph
    /// inflates).
    pub fn volume_diff(&self, class: PaperClass, stage: usize) -> f64 {
        assert!(stage == 1 || stage == 2, "stage must be 1 or 2");
        let sum = |w: &WeekHeatmap| -> f64 {
            let ci = PaperClass::ALL
                .iter()
                .position(|&c| c == class)
                .expect("in ALL");
            w.grid[ci]
                .iter()
                .flat_map(|d| d.iter())
                .map(|&v| v as f64)
                .sum()
        };
        let base = sum(&self.weeks[0]).max(1.0);
        (sum(&self.weeks[stage]) - base) / base * 100.0
    }

    /// Render per-class business-hour differences for both stages.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["class", "stage1 Δ (bh)", "stage2 Δ (bh)", "stage2 Δ (all)"]);
        for class in PaperClass::ALL {
            t.row([
                class.short().to_string(),
                format!("{:+.0}%", self.business_hours_diff(class, 1)),
                format!("{:+.0}%", self.business_hours_diff(class, 2)),
                format!("{:+.0}%", self.overall_diff(class, 2)),
            ]);
        }
        format!(
            "Fig. 9 — application-class difference heatmap at {} (base vs stages)\n{}",
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

    fn isp() -> &'static Fig9 {
        static FIG: OnceLock<Fig9> = OnceLock::new();
        FIG.get_or_init(|| run(ctx(), VantagePoint::IspCe))
    }

    fn ixp_ce() -> &'static Fig9 {
        static FIG: OnceLock<Fig9> = OnceLock::new();
        FIG.get_or_init(|| run(ctx(), VantagePoint::IxpCe))
    }

    fn ixp_us() -> &'static Fig9 {
        static FIG: OnceLock<Fig9> = OnceLock::new();
        FIG.get_or_init(|| run(ctx(), VantagePoint::IxpUs))
    }

    #[test]
    fn webconf_explodes_everywhere() {
        // §5: "Web conferencing applications show a dramatic increase of
        // more than 200% during business hours" at all vantage points.
        for f in [isp(), ixp_ce(), ixp_us()] {
            let d = f.business_hours_diff(PaperClass::WebConf, 2);
            assert!(
                d > 120.0,
                "{}: Webconf business-hours Δ {d:+.0}%",
                f.vantage
            );
        }
    }

    #[test]
    fn messaging_email_antipattern() {
        // Europe: messaging soars, email moderate. US: email grows,
        // messaging falls.
        let eu_msg = ixp_ce().volume_diff(PaperClass::Messaging, 2);
        let us_msg = ixp_us().volume_diff(PaperClass::Messaging, 2);
        let eu_mail = ixp_ce().volume_diff(PaperClass::Email, 2);
        let us_mail = ixp_us().volume_diff(PaperClass::Email, 2);
        assert!(eu_msg > 60.0, "EU messaging Δ {eu_msg:+.0}%");
        assert!(us_msg < 0.0, "US messaging Δ {us_msg:+.0}%");
        assert!(
            us_mail > eu_mail,
            "US email {us_mail:+.0}% vs EU {eu_mail:+.0}%"
        );
    }

    #[test]
    fn vod_grows_in_europe_falls_in_us() {
        let eu = ixp_ce().volume_diff(PaperClass::Vod, 2);
        let us = ixp_us().volume_diff(PaperClass::Vod, 2);
        assert!(eu > 20.0, "EU VoD Δ {eu:+.0}%");
        assert!(us < eu - 20.0, "US VoD {us:+.0}% must trail EU {eu:+.0}%");
    }

    #[test]
    fn gaming_coherent_at_ixps_modest_at_isp() {
        let g_ce = ixp_ce().volume_diff(PaperClass::Gaming, 2);
        let g_us = ixp_us().volume_diff(PaperClass::Gaming, 2);
        let g_isp = isp().volume_diff(PaperClass::Gaming, 2);
        assert!(g_ce > 40.0, "IXP-CE gaming Δ {g_ce:+.0}%");
        assert!(g_us > 20.0, "IXP-US gaming Δ {g_us:+.0}%");
        assert!(g_isp < g_ce / 2.0, "ISP gaming {g_isp:+.0}% must be modest");
    }

    #[test]
    fn educational_antipattern() {
        // ISP-CE: drastic increase (NREN-hosted conferencing); US:
        // decrease.
        let isp_edu = isp().volume_diff(PaperClass::Educational, 2);
        let us_edu = ixp_us().volume_diff(PaperClass::Educational, 2);
        assert!(isp_edu > 60.0, "ISP educational Δ {isp_edu:+.0}%");
        assert!(us_edu < 0.0, "US educational Δ {us_edu:+.0}%");
    }

    #[test]
    fn social_media_flattens_by_stage2() {
        let s1 = isp().volume_diff(PaperClass::SocialMedia, 1);
        let s2 = isp().volume_diff(PaperClass::SocialMedia, 2);
        assert!(s1 > 8.0, "stage-1 social Δ {s1:+.0}%");
        assert!(s2 < s1, "social must flatten: {s1:+.0}% -> {s2:+.0}%");
    }

    #[test]
    fn diffs_respect_clamp() {
        for f in [isp(), ixp_ce()] {
            for class in PaperClass::ALL {
                for stage in [1, 2] {
                    for day in f.diff(class, stage) {
                        for v in day {
                            assert!((-100.0..=200.0).contains(&v));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn renders() {
        assert!(isp().render().contains("Web conf"));
    }
}
