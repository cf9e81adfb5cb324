//! Fig. 10 — VPN traffic at IXP-CE for three weeks, identified two ways:
//! by well-known VPN ports/protocols and by `*vpn*` domains on TCP/443
//! (§6). The port-based curve barely moves; the domain-based curve grows
//! by more than 200% during March working hours.

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::codec::{self, CodecError, ConsumerTag, StateReader};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_analysis::vpn::{VpnClassifier, VpnMethod};
use lockdown_flow::record::HourRun;
use lockdown_flow::wire::PutBe;
use lockdown_scenario::calendar::{day_type, DayType, PORTS_IXP_WEEKS};
use lockdown_topology::asn::Region;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;
use std::sync::Arc;

/// Hourly volume for one (week, method): workday and weekend aggregates.
#[derive(Debug, Clone, Copy, Default)]
pub struct VpnWeek {
    /// Bytes per hour-of-day across workdays.
    pub workday: [u64; 24],
    /// Bytes per hour-of-day across weekend days.
    pub weekend: [u64; 24],
}

impl VpnWeek {
    /// Total bytes in the working-hours window (09:00–17:00) on workdays.
    pub(crate) fn working_hours_bytes(&self) -> u64 {
        (9..17).map(|h| self.workday[h]).sum()
    }

    /// Total weekend bytes.
    pub(crate) fn weekend_bytes(&self) -> u64 {
        self.weekend.iter().sum()
    }
}

/// Fig. 10 result.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// `(week label, port-based, domain-based)`.
    pub weeks: Vec<(&'static str, VpnWeek, VpnWeek)>,
    /// Number of candidate VPN endpoints the §6 procedure identified.
    pub candidate_ips: usize,
}

/// Engine consumer binning VPN-classified flows into per-method
/// workday/weekend hourly aggregates.
struct VpnWeekConsumer {
    classifier: Arc<VpnClassifier>,
    region: Region,
    port: VpnWeek,
    domain: VpnWeek,
}

impl VpnWeekConsumer {
    fn new(classifier: Arc<VpnClassifier>, region: Region) -> VpnWeekConsumer {
        VpnWeekConsumer {
            classifier,
            region,
            port: VpnWeek::default(),
            domain: VpnWeek::default(),
        }
    }
}

impl FlowConsumer for VpnWeekConsumer {
    fn observe_run(&mut self, run: &HourRun<'_>) {
        let (mut port, mut domain) = (0u64, 0u64);
        for record in run.records {
            match self.classifier.classify(record) {
                Some(VpnMethod::Port) => port += record.bytes,
                Some(VpnMethod::Domain) => domain += record.bytes,
                None => {}
            }
        }
        let weekend = day_type(run.date, self.region) != DayType::Workday;
        for (week, bytes) in [(&mut self.port, port), (&mut self.domain, domain)] {
            let series = if weekend {
                &mut week.weekend
            } else {
                &mut week.workday
            };
            series[usize::from(run.hour)] += bytes;
        }
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_VPN_WEEK
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        // The classifier and region are constructor parameters; the
        // mergeable state is the four fixed hourly series.
        for series in [
            &self.port.workday,
            &self.port.weekend,
            &self.domain.workday,
            &self.domain.weekend,
        ] {
            for &v in series {
                out.put_u64_be(v);
            }
        }
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        for series in [
            &mut self.port.workday,
            &mut self.port.weekend,
            &mut self.domain.workday,
            &mut self.domain.weekend,
        ] {
            for slot in series.iter_mut() {
                *slot += r.u64("vpn hour bin")?;
            }
        }
        Ok(())
    }
}

/// Demand handles of one Fig. 10 pass.
pub(crate) struct Plan {
    candidate_ips: usize,
    weeks: Vec<(&'static str, Demand<VpnWeekConsumer>)>,
}

/// Declare Fig. 10's trace demands on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan, ctx: &Context) -> Plan {
    let classifier = Arc::new(VpnClassifier::new(ctx.vpn_candidate_ips()));
    let candidate_ips = classifier.candidate_count();
    let region = VantagePoint::IxpCe.region();
    Plan {
        candidate_ips,
        weeks: PORTS_IXP_WEEKS
            .iter()
            .map(|week| {
                let classifier = Arc::clone(&classifier);
                let d = plan.subscribe(
                    Stream::Vantage(VantagePoint::IxpCe),
                    week.start,
                    week.end(),
                    move || VpnWeekConsumer::new(Arc::clone(&classifier), region),
                );
                (week.label, d)
            })
            .collect(),
    }
}

/// Assemble Fig. 10 from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> Fig10 {
    let weeks = plan
        .weeks
        .into_iter()
        .map(|(label, demand)| {
            let c = out.take(demand);
            (label, c.port, c.domain)
        })
        .collect();
    Fig10 {
        weeks,
        candidate_ips: plan.candidate_ips,
    }
}

/// Run Fig. 10 (IXP-CE) standalone.
pub fn run(ctx: &Context) -> Fig10 {
    engine::run_standalone(ctx, |p| plan(p, ctx), finish)
}

impl Fig10 {
    /// One week's pair by label.
    pub(crate) fn week(&self, label: &str) -> (&VpnWeek, &VpnWeek) {
        let (_, p, d) = self
            .weeks
            .iter()
            .find(|(l, _, _)| *l == label)
            .expect("week exists");
        (p, d)
    }

    /// Working-hours growth of one method between two weeks.
    pub fn working_hours_growth(&self, method: VpnMethod, from: &str, to: &str) -> f64 {
        let pick = |label: &str| {
            let (p, d) = self.week(label);
            match method {
                VpnMethod::Port => p.working_hours_bytes(),
                VpnMethod::Domain => d.working_hours_bytes(),
            }
        };
        pick(to) as f64 / pick(from).max(1) as f64
    }

    /// Render weekly working-hours totals for both methods.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "week",
            "port-based (work-hrs)",
            "domain-based (work-hrs)",
            "domain weekend",
        ]);
        for (label, p, d) in &self.weeks {
            t.row([
                label.to_string(),
                p.working_hours_bytes().to_string(),
                d.working_hours_bytes().to_string(),
                d.weekend_bytes().to_string(),
            ]);
        }
        format!(
            "Fig. 10 — VPN traffic at IXP-CE ({} candidate endpoints)\n{}",
            self.candidate_ips,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use std::sync::OnceLock;

    fn fig() -> &'static Fig10 {
        static FIG: OnceLock<Fig10> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test)))
    }

    #[test]
    fn hour_runs_match_per_record_observe() {
        use crate::experiments::hour_slices::assert_runs_match_records;
        // Two of the slices' eight addresses are VPN endpoints, so both
        // methods fire; Easter Monday is a workday only in the US.
        let endpoints = [1, 2].map(|x| std::net::Ipv4Addr::new(198, 51, 100, x));
        let classifier = Arc::new(VpnClassifier::new(endpoints.into()));
        for region in [Region::CentralEurope, Region::UsEast] {
            assert_runs_match_records(|| VpnWeekConsumer::new(Arc::clone(&classifier), region));
        }
    }

    #[test]
    fn candidates_found() {
        assert!(
            fig().candidate_ips > 30,
            "{} candidates",
            fig().candidate_ips
        );
    }

    #[test]
    fn port_based_barely_moves() {
        // "we see almost no change in port-based VPN traffic before and
        // after the lockdown".
        let g = fig().working_hours_growth(VpnMethod::Port, "february", "march");
        assert!((0.75..1.45).contains(&g), "port-based growth {g:.2}");
    }

    #[test]
    fn domain_based_explodes_in_march() {
        // "the workday traffic increases by more than 200% in March".
        let g = fig().working_hours_growth(VpnMethod::Domain, "february", "march");
        assert!(g > 2.6, "domain-based March growth only {g:.2}×");
        // Port-based counting vastly undercounts the increase.
        let port = fig().working_hours_growth(VpnMethod::Port, "february", "march");
        assert!(g > 2.0 * port);
    }

    #[test]
    fn april_gain_smaller_than_march() {
        // "in April, we still see a gain … although not as large as in
        // March" (restrictions were lifting).
        let march = fig().working_hours_growth(VpnMethod::Domain, "february", "march");
        let april = fig().working_hours_growth(VpnMethod::Domain, "february", "april");
        assert!(april > 1.3, "April domain gain {april:.2}");
        assert!(
            april < march,
            "April {april:.2} must trail March {march:.2}"
        );
    }

    #[test]
    fn weekend_increase_less_pronounced() {
        let f = fig();
        let (_, d_feb) = f.week("february");
        let (_, d_mar) = f.week("march");
        let weekend_growth = d_mar.weekend_bytes() as f64 / d_feb.weekend_bytes().max(1) as f64;
        let work_growth = f.working_hours_growth(VpnMethod::Domain, "february", "march");
        assert!(
            weekend_growth < work_growth,
            "weekend {weekend_growth:.2} must trail working hours {work_growth:.2}"
        );
    }

    #[test]
    fn renders() {
        assert!(fig().render().contains("domain-based"));
    }
}
