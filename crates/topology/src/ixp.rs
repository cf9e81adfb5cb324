//! IXP peering-fabric model: members, physical ports, capacity upgrades.
//!
//! The paper's Fig. 5 plots the ECDF of per-customer *port utilization*
//! (traffic relative to physical port capacity) at IXP-CE before and during
//! the lockdown, and §3.1 reports "port capacity increases of 1,500 Gbps
//! across many IXP members at IXP-CE and 1,300 Gbps for IXP-SE and IXP-US
//! combined". Reproducing those requires a member model that carries
//! physical port capacity over time, which this module provides.

use crate::asn::{AsCategory, Asn};
use crate::registry::Registry;
use crate::vantage::VantagePoint;
use lockdown_base::hash::{fold, SplitMix};
use lockdown_flow::time::Date;

/// Initial constant of the fabric-stream fold (√3's fractional digits).
const FABRIC_INIT: u64 = 0xBB67_AE85_84CA_A73B;

/// One IXP member: an AS connected to the peering fabric through physical
/// ports of a given aggregate capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct IxpMember {
    /// Member AS number.
    pub asn: Asn,
    /// Member business category.
    pub category: AsCategory,
    /// Aggregate physical port capacity before any pandemic upgrade, Gbps.
    pub base_capacity_gbps: f64,
    /// Capacity added during the pandemic (0 for most members), Gbps.
    pub upgrade_gbps: f64,
    /// Date the upgrade went live, if any.
    pub upgrade_date: Option<Date>,
    /// Baseline average utilization of the port (fraction of capacity) in
    /// the February base week — drawn per member, heavy spread, as the
    /// Fig. 5 ECDF shows utilizations from a few percent to >90%.
    pub base_utilization: f64,
}

impl IxpMember {
    /// Physical capacity in effect on `date`.
    pub fn capacity_gbps(&self, date: Date) -> f64 {
        match self.upgrade_date {
            Some(up) if date >= up => self.base_capacity_gbps + self.upgrade_gbps,
            _ => self.base_capacity_gbps,
        }
    }
}

/// A synthesized IXP fabric.
#[derive(Debug, Clone)]
pub struct IxpFabric {
    /// Which IXP this fabric models.
    pub vantage: VantagePoint,
    /// Connected members.
    pub members: Vec<IxpMember>,
}

impl IxpFabric {
    /// Synthesize the member base of one of the paper's IXPs.
    ///
    /// Member counts follow §2 (900 / 170 / 250); port capacities are drawn
    /// from the discrete ladder real IXPs sell (1/10/40/100 Gbps, with a few
    /// multi-100G hypergiant ports); pandemic upgrades are assigned so the
    /// fabric-wide added capacity matches §3.1 (≈1,500 Gbps at IXP-CE;
    /// ≈1,300 Gbps for IXP-SE and IXP-US combined, split ∝ size).
    pub fn synthesize(vantage: VantagePoint, registry: &Registry, seed: u64) -> IxpFabric {
        let (member_count, upgrade_budget_gbps) = match vantage {
            VantagePoint::IxpCe => (900usize, 1_500.0f64),
            VantagePoint::IxpSe => (170, 500.0),
            VantagePoint::IxpUs => (250, 800.0),
            other => panic!("{other} is not an IXP vantage point"),
        };
        let mut rng = SplitMix::new(fold(FABRIC_INIT, [seed, vantage as u64]));

        // Candidate member ASes: everything in the registry, weighted so
        // content networks and eyeballs dominate (an IXP's member list).
        let candidates: Vec<(Asn, AsCategory)> = registry
            .ases()
            .iter()
            .map(|a| (a.asn, a.category))
            .collect();

        let mut members = Vec::with_capacity(member_count);
        for i in 0..member_count {
            // Cycle through real registry ASes first so every hypergiant and
            // provider is connected; pad with synthetic small members.
            let (asn, category) = if i < candidates.len() {
                candidates[i]
            } else {
                (Asn(70_000 + i as u32), AsCategory::Enterprise)
            };
            let base_capacity_gbps = draw_capacity(&mut rng, category);
            // Fig. 5: utilizations spread widely; draw a Beta-ish shape by
            // squaring a uniform (mass toward low utilization, long tail).
            let u = rng.next_f64();
            let base_utilization = 0.05 + 0.75 * u * u;
            members.push(IxpMember {
                asn,
                category,
                base_capacity_gbps,
                upgrade_gbps: 0.0,
                upgrade_date: None,
                base_utilization,
            });
        }

        // Assign pandemic upgrades: "across many IXP members" — pick members
        // at random, step each by one port-size, until the budget is spent.
        let mut remaining = upgrade_budget_gbps;
        let mut order: Vec<usize> = (0..members.len()).collect();
        rng.shuffle(&mut order);
        for idx in order {
            if remaining <= 0.0 {
                break;
            }
            let m = &mut members[idx];
            let step = m.base_capacity_gbps.clamp(10.0, 100.0);
            m.upgrade_gbps = step;
            // Upgrades rolled out through late March / April.
            let offset = rng.below(30) as i64;
            m.upgrade_date = Some(Date::new(2020, 3, 20).add_days(offset));
            remaining -= step;
        }

        IxpFabric { vantage, members }
    }

    /// Total fabric capacity on a date, Gbps.
    pub fn total_capacity_gbps(&self, date: Date) -> f64 {
        self.members.iter().map(|m| m.capacity_gbps(date)).sum()
    }

    /// Total capacity added by pandemic upgrades, Gbps.
    pub fn total_upgrade_gbps(&self) -> f64 {
        self.members.iter().map(|m| m.upgrade_gbps).sum()
    }

    /// Number of members holding an upgrade.
    pub fn upgraded_members(&self) -> usize {
        self.members.iter().filter(|m| m.upgrade_gbps > 0.0).count()
    }
}

/// Draw a port capacity from the discrete ladder, weighted by category.
fn draw_capacity(rng: &mut SplitMix, category: AsCategory) -> f64 {
    let ladder: &[(f64, f64)] = match category {
        // Hypergiants run multi-100G LAGs.
        AsCategory::Hypergiant => &[(100.0, 0.3), (200.0, 0.4), (400.0, 0.3)],
        AsCategory::Cdn | AsCategory::VodProvider | AsCategory::EyeballIsp => {
            &[(10.0, 0.2), (40.0, 0.3), (100.0, 0.5)]
        }
        AsCategory::CloudProvider | AsCategory::GamingProvider | AsCategory::SocialMedia => {
            &[(10.0, 0.3), (40.0, 0.4), (100.0, 0.3)]
        }
        _ => &[(1.0, 0.3), (10.0, 0.5), (40.0, 0.2)],
    };
    let total: f64 = ladder.iter().map(|(_, w)| w).sum();
    let mut x = rng.next_f64() * total;
    for (cap, w) in ladder {
        if x < *w {
            return *cap;
        }
        x -= w;
    }
    ladder.last().expect("ladder non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(v: VantagePoint) -> IxpFabric {
        let registry = Registry::synthesize();
        IxpFabric::synthesize(v, &registry, 1)
    }

    #[test]
    fn member_counts_follow_paper() {
        assert_eq!(fabric(VantagePoint::IxpCe).members.len(), 900);
        assert_eq!(fabric(VantagePoint::IxpSe).members.len(), 170);
        assert_eq!(fabric(VantagePoint::IxpUs).members.len(), 250);
    }

    #[test]
    #[should_panic(expected = "not an IXP")]
    fn non_ixp_rejected() {
        fabric(VantagePoint::IspCe);
    }

    #[test]
    fn upgrade_budget_respected() {
        let f = fabric(VantagePoint::IxpCe);
        let total = f.total_upgrade_gbps();
        // Budget 1500, last step may overshoot by one port (≤100G).
        assert!((1_500.0..=1_600.0).contains(&total), "upgrades = {total}");
        assert!(f.upgraded_members() > 10, "upgrades must span many members");
    }

    #[test]
    fn capacity_steps_on_upgrade_date() {
        let f = fabric(VantagePoint::IxpSe);
        let m = f
            .members
            .iter()
            .find(|m| m.upgrade_gbps > 0.0)
            .expect("some member upgraded");
        let before = m.upgrade_date.unwrap().add_days(-1);
        let after = m.upgrade_date.unwrap();
        assert!(m.capacity_gbps(after) > m.capacity_gbps(before));
        assert_eq!(m.capacity_gbps(before), m.base_capacity_gbps);
    }

    #[test]
    fn total_capacity_grows_over_pandemic() {
        let f = fabric(VantagePoint::IxpCe);
        let feb = f.total_capacity_gbps(Date::new(2020, 2, 19));
        let may = f.total_capacity_gbps(Date::new(2020, 5, 17));
        assert!(may > feb + 1_400.0);
    }

    #[test]
    fn utilizations_in_range() {
        let f = fabric(VantagePoint::IxpUs);
        for m in &f.members {
            assert!(m.base_utilization > 0.0 && m.base_utilization < 1.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let registry = Registry::synthesize();
        let a = IxpFabric::synthesize(VantagePoint::IxpCe, &registry, 9);
        let b = IxpFabric::synthesize(VantagePoint::IxpCe, &registry, 9);
        assert_eq!(a.members, b.members);
        let c = IxpFabric::synthesize(VantagePoint::IxpCe, &registry, 10);
        assert_ne!(a.members, c.members);
    }

    #[test]
    fn hypergiants_connected() {
        let f = fabric(VantagePoint::IxpCe);
        for hg in crate::hypergiants::HYPERGIANTS {
            assert!(
                f.members.iter().any(|m| m.asn == hg.asn),
                "{} missing from fabric",
                hg.name
            );
        }
    }
}
