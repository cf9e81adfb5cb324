//! Figs. 11–12 and the §7 statistics — the educational network.
//!
//! * Fig. 11a: normalized daily volume for the base / transition /
//!   online-lecturing weeks;
//! * Fig. 11b: the ingress/egress volume ratio for the same weeks;
//! * Fig. 12: daily connections relative to Feb 27 for selected traffic
//!   categories;
//! * §7 prose statistics: median incoming/outgoing connection growth and
//!   the per-class factors (web 1.7×, email 1.8×, VPN 4.8×, remote
//!   desktop 5.9×, SSH 9.1×).

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::codec::{self, CodecError, ConsumerTag, StateReader};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_analysis::edu::{orientation, EduAnalysis, EduTrafficClass, Orientation};
use lockdown_flow::record::HourRun;
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_scenario::calendar::{AnalysisWeek, EDU_WEEKS};
use lockdown_topology::asn::Region;
use lockdown_topology::registry::Registry;
use lockdown_traffic::plan::Stream;
use std::collections::HashSet;
use std::sync::Arc;

/// Fig. 12's plotted range (Feb 27 – Apr 22).
pub(crate) const F12_START: Date = Date {
    year: 2020,
    month: 2,
    day: 27,
};
/// End of the Fig. 12 range.
pub(crate) const F12_END: Date = Date {
    year: 2020,
    month: 4,
    day: 22,
};

/// The categories Fig. 12 plots, as (label, class, orientation).
pub const F12_CLASSES: [(&str, EduTrafficClass, Orientation); 6] = [
    (
        "Eyeball ISPs (Email, In)",
        EduTrafficClass::Email,
        Orientation::Incoming,
    ),
    (
        "Eyeball ISPs (VPN, In)",
        EduTrafficClass::Vpn,
        Orientation::Incoming,
    ),
    (
        "Eyeball ISPs (Web, In)",
        EduTrafficClass::Web,
        Orientation::Incoming,
    ),
    (
        "Hypergiants (Web, Out)",
        EduTrafficClass::Web,
        Orientation::Outgoing,
    ),
    (
        "Push notifications (Out)",
        EduTrafficClass::PushNotif,
        Orientation::Outgoing,
    ),
    ("QUIC (Out)", EduTrafficClass::Quic, Orientation::Outgoing),
];

/// §7's hourly origin split: incoming connections by hour, national vs
/// overseas clients.
#[derive(Debug, Clone, Copy)]
pub struct HourlyOrigins {
    /// Connections from same-country eyeballs, per hour of day.
    pub national: [u64; 24],
    /// Connections from overseas eyeballs.
    pub overseas: [u64; 24],
}

/// Combined EDU result.
#[derive(Debug)]
pub struct EduFigures {
    /// The full streaming analysis over Feb 27 – Apr 26.
    pub analysis: EduAnalysis,
    /// Normalized daily volume per analysis week (7 values each),
    /// normalized to the max across the three weeks.
    pub fig11a: Vec<(&'static str, [f64; 7])>,
    /// Daily in/out ratio per analysis week.
    pub fig11b: Vec<(&'static str, [f64; 7])>,
    /// §7's hourly access pattern in the online-lecturing week.
    pub origins: HourlyOrigins,
}

/// Engine consumer counting incoming connections per hour of day, split
/// by the client's origin region (precomputed ASN sets — the registry
/// itself stays out of the `'static` factory closure).
struct OriginsConsumer {
    national_as: Arc<HashSet<u32>>,
    overseas_as: Arc<HashSet<u32>>,
    national: [u64; 24],
    overseas: [u64; 24],
}

impl OriginsConsumer {
    fn new(national_as: Arc<HashSet<u32>>, overseas_as: Arc<HashSet<u32>>) -> OriginsConsumer {
        OriginsConsumer {
            national_as,
            overseas_as,
            national: [0; 24],
            overseas: [0; 24],
        }
    }
}

impl FlowConsumer for OriginsConsumer {
    fn observe_run(&mut self, run: &HourRun<'_>) {
        let (mut national, mut overseas) = (0u64, 0u64);
        for record in run.records {
            if orientation(record) != Orientation::Incoming {
                continue;
            }
            if self.national_as.contains(&record.src_as) {
                national += 1;
            } else if self.overseas_as.contains(&record.src_as) {
                overseas += 1;
            }
        }
        self.national[usize::from(run.hour)] += national;
        self.overseas[usize::from(run.hour)] += overseas;
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_HOURLY_ORIGINS
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        // The ASN sets are constructor parameters; only the two hourly
        // series are mergeable state.
        for series in [&self.national, &self.overseas] {
            for &v in series {
                out.put_u64_be(v);
            }
        }
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        for series in [&mut self.national, &mut self.overseas] {
            for slot in series.iter_mut() {
                *slot += r.u64("origins hour bin")?;
            }
        }
        Ok(())
    }
}

/// Demand handles of one EDU pass.
pub(crate) struct Plan {
    analysis: Demand<EduAnalysis>,
    origins: Demand<OriginsConsumer>,
}

/// Declare the EDU experiments' trace demands on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan, registry: &Registry) -> Plan {
    // Cover the union of the Fig. 11 weeks and the Fig. 12 range.
    let start = Date::new(2020, 2, 27);
    let end = Date::new(2020, 4, 26);
    let analysis = plan.subscribe(Stream::Edu, start, end, EduAnalysis::new);

    let by_region = |region: Region| -> Arc<HashSet<u32>> {
        Arc::new(
            registry
                .ases()
                .iter()
                .filter(|a| a.region == region)
                .map(|a| a.asn.0)
                .collect(),
        )
    };
    let national_as = by_region(Region::SouthernEurope);
    let overseas_as = by_region(Region::UsEast);
    let origins = plan.subscribe(
        Stream::Edu,
        EDU_WEEKS[2].start,
        EDU_WEEKS[2].end(),
        move || OriginsConsumer::new(Arc::clone(&national_as), Arc::clone(&overseas_as)),
    );
    Plan { analysis, origins }
}

/// Assemble the EDU figures from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> EduFigures {
    let analysis = out.take(plan.analysis);
    let o = out.take(plan.origins);
    let origins = HourlyOrigins {
        national: o.national,
        overseas: o.overseas,
    };

    // Fig. 11a/b over the paper's three weeks.
    let week_days = |week: &AnalysisWeek| -> Vec<Date> { week.dates() };
    let mut daily: Vec<(&'static str, [f64; 7], [f64; 7])> = Vec::new();
    for week in &EDU_WEEKS {
        let mut volumes = [0.0f64; 7];
        let mut ratios = [0.0f64; 7];
        for (i, date) in week_days(week).into_iter().enumerate() {
            let v = analysis.ingress.daily_total(date) + analysis.egress.daily_total(date);
            volumes[i] = v as f64;
            ratios[i] = analysis.in_out_ratio(date).unwrap_or(0.0);
        }
        daily.push((week.label, volumes, ratios));
    }
    let max = daily
        .iter()
        .flat_map(|(_, v, _)| v.iter())
        .copied()
        .fold(0.0f64, f64::max)
        .max(1.0);
    let fig11a = daily
        .iter()
        .map(|(label, v, _)| {
            let mut out = [0.0; 7];
            for (o, x) in out.iter_mut().zip(v) {
                *o = *x / max * 10.0; // the paper's axis runs 0..10
            }
            (*label, out)
        })
        .collect();
    let fig11b = daily.iter().map(|(label, _, r)| (*label, *r)).collect();

    EduFigures {
        analysis,
        fig11a,
        fig11b,
        origins,
    }
}

/// Run the EDU experiments standalone.
pub fn run(ctx: &Context) -> EduFigures {
    engine::run_standalone(ctx, |p| plan(p, &ctx.registry), finish)
}

impl EduFigures {
    /// A week's in/out ratios by label.
    pub(crate) fn ratios(&self, label: &str) -> &[f64; 7] {
        &self
            .fig11b
            .iter()
            .find(|(l, _)| *l == label)
            .expect("week exists")
            .1
    }

    /// Fig. 12's relative daily growth series for one plotted category.
    pub fn fig12_series(&self, label: &str) -> Vec<(Date, f64)> {
        let (_, class, orient) = F12_CLASSES
            .iter()
            .find(|(l, _, _)| *l == label)
            .expect("category exists");
        self.analysis
            .relative_growth(*class, *orient, F12_START, F12_START, F12_END)
    }

    /// §7 statistic: median daily incoming-connection growth factor for a
    /// class between the base week and the online-lecturing week.
    pub(crate) fn median_growth(&self, class: EduTrafficClass, orient: Orientation) -> f64 {
        let base =
            self.analysis
                .median_daily(class, orient, EDU_WEEKS[0].start, EDU_WEEKS[0].end());
        let online =
            self.analysis
                .median_daily(class, orient, EDU_WEEKS[2].start, EDU_WEEKS[2].end());
        online / base.max(1.0)
    }

    /// §7 statistic: total incoming and outgoing growth (medians).
    pub(crate) fn total_growth(&self) -> (f64, f64) {
        let med = |orient, week: &AnalysisWeek| {
            let counts: Vec<f64> = week
                .dates()
                .iter()
                .map(|&d| self.analysis.daily_by_orientation(d, orient) as f64)
                .collect();
            lockdown_analysis::timeseries::median(&counts)
        };
        let inc =
            med(Orientation::Incoming, &EDU_WEEKS[2]) / med(Orientation::Incoming, &EDU_WEEKS[0]);
        let out =
            med(Orientation::Outgoing, &EDU_WEEKS[2]) / med(Orientation::Outgoing, &EDU_WEEKS[0]);
        (inc, out)
    }

    /// Render Fig. 11 summaries and the §7 growth factors.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["week", "volume (Thu..Wed)", "in/out ratio (mean)"]);
        for (label, v) in &self.fig11a {
            let r = self.ratios(label);
            let mean_ratio = r.iter().sum::<f64>() / 7.0;
            let vols = v
                .iter()
                .map(|x| format!("{x:.1}"))
                .collect::<Vec<_>>()
                .join(" ");
            t.row([label.to_string(), vols, format!("{mean_ratio:.1}")]);
        }
        let (inc, out) = self.total_growth();
        let mut s = format!("Fig. 11 — EDU volume & direction\n{}\n", t.render());
        s.push_str(&format!(
            "§7 — incoming connections ×{inc:.2}, outgoing ×{out:.2}\n"
        ));
        let mut t2 = TextTable::new(["class (incoming)", "median growth"]);
        for (label, class) in [
            ("web", EduTrafficClass::Web),
            ("email", EduTrafficClass::Email),
            ("VPN", EduTrafficClass::Vpn),
            ("remote desktop", EduTrafficClass::RemoteDesktop),
            ("SSH", EduTrafficClass::Ssh),
        ] {
            t2.row([
                label.to_string(),
                format!("{:.1}x", self.median_growth(class, Orientation::Incoming)),
            ]);
        }
        s.push_str(&t2.render());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    /// A week's normalized volumes by label.
    fn volumes<'f>(f: &'f EduFigures, label: &str) -> &'f [f64; 7] {
        &f.fig11a.iter().find(|(l, _)| *l == label).expect("week").1
    }

    fn fig() -> &'static EduFigures {
        static FIG: OnceLock<EduFigures> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test)))
    }

    #[test]
    fn hour_runs_match_per_record_observe() {
        use crate::experiments::hour_slices::{assert_runs_match_records, EYEBALL};
        // Source ASNs of the slices on either side, the rest on neither.
        let national = Arc::new(HashSet::from([1, EYEBALL]));
        let overseas = Arc::new(HashSet::from([2, 15_169]));
        assert_runs_match_records(|| {
            OriginsConsumer::new(Arc::clone(&national), Arc::clone(&overseas))
        });
    }

    #[test]
    fn volume_drops_on_workdays() {
        // Fig. 11a: up to −55% on Tue/Wed. Week starts Thursday; Tue/Wed
        // are indices 5 and 6.
        let base = volumes(fig(), "base");
        let online = volumes(fig(), "online-lecturing");
        for idx in [5usize, 6] {
            let drop = 1.0 - online[idx] / base[idx];
            assert!(
                (0.30..0.70).contains(&drop),
                "day {idx}: drop {drop:.2} outside range"
            );
        }
        // Weekend (indices 2=Sat, 3=Sun) holds or grows slightly.
        for idx in [2usize, 3] {
            let change = online[idx] / base[idx];
            assert!(change > 0.9, "weekend day {idx} fell: {change:.2}");
        }
    }

    #[test]
    fn in_out_ratio_collapses() {
        // Fig. 11b: up to 15× before, halving in transition, smallest in
        // the online-lecturing week.
        let mean = |label: &str| {
            let r = fig().ratios(label);
            r.iter().sum::<f64>() / 7.0
        };
        let base = mean("base");
        let transition = mean("transition");
        let online = mean("online-lecturing");
        assert!(base > 6.0, "base in/out ratio {base:.1}");
        assert!(
            transition < base,
            "transition {transition:.1} < base {base:.1}"
        );
        assert!(
            online < transition,
            "online {online:.1} < transition {transition:.1}"
        );
        assert!(online < base / 3.0);
    }

    #[test]
    fn incoming_doubles_outgoing_halves() {
        let (inc, out) = fig().total_growth();
        assert!((1.4..2.8).contains(&inc), "incoming growth {inc:.2}");
        assert!((0.25..0.75).contains(&out), "outgoing shrink {out:.2}");
    }

    #[test]
    fn class_growth_factors_match_section7() {
        // web 1.7×, email 1.8×, VPN 4.8×, remote desktop 5.9×, SSH 9.1×
        // (generous tolerances: reduced-resolution trace).
        let f = fig();
        let g = |c| f.median_growth(c, Orientation::Incoming);
        let web = g(EduTrafficClass::Web);
        let email = g(EduTrafficClass::Email);
        let vpn = g(EduTrafficClass::Vpn);
        let rdp = g(EduTrafficClass::RemoteDesktop);
        let ssh = g(EduTrafficClass::Ssh);
        assert!((1.2..2.4).contains(&web), "web {web:.2}");
        assert!((1.2..2.6).contains(&email), "email {email:.2}");
        assert!((3.0..7.0).contains(&vpn), "vpn {vpn:.2}");
        assert!((3.5..9.0).contains(&rdp), "rdp {rdp:.2}");
        assert!((6.0..13.0).contains(&ssh), "ssh {ssh:.2}");
        // The ordering the paper reports (RDP's small daily counts are
        // too noisy at reduced resolution for a strict RDP-vs-VPN order).
        assert!(web < vpn && vpn < ssh);
        assert!(rdp > web);
    }

    #[test]
    fn fig12_outgoing_collapses() {
        let f = fig();
        let last = |label: &str| f.fig12_series(label).last().unwrap().1;
        assert!(last("Eyeball ISPs (VPN, In)") > 2.5);
        assert!(last("Push notifications (Out)") < 0.7);
        assert!(last("QUIC (Out)") < 0.7);
        assert!(last("Hypergiants (Web, Out)") < 0.8);
    }

    #[test]
    fn undetermined_fraction_near_39_percent() {
        let frac = fig().analysis.undetermined_fraction();
        assert!(
            (0.30..0.48).contains(&frac),
            "undetermined fraction {frac:.3}"
        );
    }

    #[test]
    fn renders() {
        let s = fig().render();
        assert!(s.contains("incoming connections"));
        assert!(s.contains("SSH"));
    }

    #[test]
    fn overseas_users_connect_at_night() {
        // §7: national users peak in the working day; overseas (Latin
        // American time zones) peak in the small hours.
        let o = fig().origins;
        let national_peak = (0..24).max_by_key(|&h| o.national[h]).unwrap_or(0);
        assert!(
            (8..=21).contains(&national_peak),
            "national peak at {national_peak}h"
        );
        // Overseas night share: small hours (0-7) carry more than the same
        // count of midday hours.
        let night: u64 = (0..7).map(|h| o.overseas[h]).sum();
        let midday: u64 = (9..16).map(|h| o.overseas[h]).sum();
        assert!(
            night > midday,
            "overseas night {night} must exceed midday {midday}"
        );
        // National traffic dominates overall (§7: overseas is the tail).
        let nat_total: u64 = o.national.iter().sum();
        let ov_total: u64 = o.overseas.iter().sum();
        assert!(nat_total > ov_total);
    }
}
