//! Fig. 8 — the gaming application class at IXP-SE, weeks 7–17: unique
//! client addresses and traffic volume per hour with daily min/avg/max,
//! normalized to the minimum; includes the gaming-provider outage in the
//! first lockdown week (§5).

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::appclass::PaperClass;
use lockdown_analysis::consumer::ClassUsageConsumer;
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;
use std::sync::Arc;

/// First Monday of calendar week 7 (Feb 10).
pub(crate) const START: Date = Date {
    year: 2020,
    month: 2,
    day: 10,
};
/// Last Sunday of calendar week 17 (Apr 26).
pub(crate) const END: Date = Date {
    year: 2020,
    month: 4,
    day: 26,
};

/// One day's summary of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayStats {
    /// The date.
    pub date: Date,
    /// Daily minimum hourly value.
    pub min: f64,
    /// Daily mean hourly value.
    pub avg: f64,
    /// Daily maximum hourly value.
    pub max: f64,
}

/// Fig. 8 result: daily stats for unique IPs and volume, normalized to
/// the respective minimum over the range.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Unique-address series.
    pub unique_ips: Vec<DayStats>,
    /// Volume series.
    pub volume: Vec<DayStats>,
}

fn day_stats(date: Date, hourly: &[f64]) -> DayStats {
    let min = hourly.iter().copied().fold(f64::MAX, f64::min);
    let max = hourly.iter().copied().fold(0.0f64, f64::max);
    let avg = hourly.iter().sum::<f64>() / hourly.len() as f64;
    DayStats {
        date,
        min,
        avg,
        max,
    }
}

/// Demand handle of one Fig. 8 pass.
pub(crate) struct Plan {
    usage: Demand<ClassUsageConsumer>,
}

/// Declare Fig. 8's trace demand on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan, ctx: &Context) -> Plan {
    let classifier = Arc::clone(&ctx.classifier);
    Plan {
        usage: plan.subscribe(
            Stream::Vantage(VantagePoint::IxpSe),
            START,
            END,
            move || ClassUsageConsumer::new(Arc::clone(&classifier), PaperClass::Gaming),
        ),
    }
}

/// Assemble Fig. 8 from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> Fig8 {
    let usage = out.take(plan.usage);
    let mut unique_ips = Vec::new();
    let mut volume = Vec::new();
    let mut day_ips: Vec<f64> = Vec::with_capacity(24);
    let mut day_bytes: Vec<f64> = Vec::with_capacity(24);
    for date in START.range_inclusive(END) {
        for hour in 0..24u8 {
            let u = usage.hour_usage(date, hour);
            day_ips.push(u.unique_ips as f64);
            day_bytes.push(u.bytes as f64);
        }
        unique_ips.push(day_stats(date, &day_ips));
        volume.push(day_stats(date, &day_bytes));
        day_ips.clear();
        day_bytes.clear();
    }
    // Normalize each series to its global positive minimum.
    let normalize = |series: &mut Vec<DayStats>| {
        let min = series
            .iter()
            .flat_map(|d| [d.min, d.avg, d.max])
            .filter(|&v| v > 0.0)
            .fold(f64::MAX, f64::min);
        for d in series.iter_mut() {
            d.min /= min;
            d.avg /= min;
            d.max /= min;
        }
    };
    let mut fig = Fig8 { unique_ips, volume };
    normalize(&mut fig.unique_ips);
    normalize(&mut fig.volume);
    fig
}

/// Run Fig. 8 standalone.
pub fn run(ctx: &Context) -> Fig8 {
    engine::run_standalone(ctx, |p| plan(p, ctx), finish)
}

impl Fig8 {
    /// Mean of daily averages over an inclusive date range.
    pub(crate) fn mean_avg(series: &[DayStats], start: Date, end: Date) -> f64 {
        let vals: Vec<f64> = series
            .iter()
            .filter(|d| d.date >= start && d.date <= end)
            .map(|d| d.avg)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }

    /// The outage dip: minimum daily average in the first lockdown week
    /// divided by the preceding week's mean.
    pub(crate) fn outage_dip(&self) -> f64 {
        let before = Self::mean_avg(&self.volume, Date::new(2020, 3, 9), Date::new(2020, 3, 15));
        let outage_week_min = self
            .volume
            .iter()
            .filter(|d| d.date >= Date::new(2020, 3, 16) && d.date <= Date::new(2020, 3, 22))
            .map(|d| d.avg)
            .fold(f64::MAX, f64::min);
        outage_week_min / before
    }

    /// Render weekly means of both metrics.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["week of", "unique IPs (avg)", "volume (avg)"]);
        let mut monday = START;
        while monday <= END {
            let sunday = monday.add_days(6);
            t.row([
                monday.iso(),
                format!("{:.2}", Self::mean_avg(&self.unique_ips, monday, sunday)),
                format!("{:.2}", Self::mean_avg(&self.volume, monday, sunday)),
            ]);
            monday = monday.add_days(7);
        }
        format!(
            "Fig. 8 — gaming at IXP-SE (normalized to min; outage dip ×{:.2})\n{}",
            self.outage_dip(),
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig8 {
        static FIG: OnceLock<Fig8> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test)))
    }

    #[test]
    fn both_metrics_rise_steeply_with_lockdown() {
        let f = fig();
        for (name, series) in [("IPs", &f.unique_ips), ("volume", &f.volume)] {
            let before = Fig8::mean_avg(series, Date::new(2020, 2, 17), Date::new(2020, 2, 23));
            let after = Fig8::mean_avg(series, Date::new(2020, 3, 30), Date::new(2020, 4, 5));
            assert!(
                after > 1.5 * before,
                "{name}: {before:.2} -> {after:.2} not a steep rise"
            );
        }
    }

    #[test]
    fn outage_plunges_volume() {
        // "the accounted volume plunges for two days to the lowest values
        // observed in the time frame".
        let f = fig();
        let dip = f.outage_dip();
        assert!(dip < 0.55, "outage dip only ×{dip:.2}");
        // The outage days are (near) the range minimum of daily averages.
        let range_min = f.volume.iter().map(|d| d.avg).fold(f64::MAX, f64::min);
        let outage_min = f
            .volume
            .iter()
            .filter(|d| d.date >= Date::new(2020, 3, 16) && d.date <= Date::new(2020, 3, 17))
            .map(|d| d.avg)
            .fold(f64::MAX, f64::min);
        assert!(outage_min <= range_min * 1.05);
    }

    #[test]
    fn daily_ordering_holds() {
        let f = fig();
        for d in f.volume.iter().chain(f.unique_ips.iter()) {
            assert!(d.min <= d.avg && d.avg <= d.max, "{d:?}");
        }
    }

    #[test]
    fn full_range_covered() {
        let f = fig();
        assert_eq!(f.volume.len(), 77); // Feb 10 .. Apr 26 inclusive
        assert_eq!(f.unique_ips.len(), 77);
    }

    #[test]
    fn renders() {
        assert!(fig().render().contains("outage dip"));
    }
}
