//! The calibrated traffic demand model.
//!
//! For every `(vantage point, application class, date, hour)` this model
//! yields the *expected* traffic volume in Gbps. It composes five factors:
//!
//! 1. the vantage point's nominal peak and the class's base share of its
//!    traffic mix (§4: TCP/443+80 ≈ 80% at the ISP, ≈ 60% at IXP-CE);
//! 2. a diurnal shape per class, morphing from the workday to the
//!    weekend-like lockdown shape as stay-at-home intensity rises (Fig. 2);
//! 3. a per-class COVID growth multiplier keyed on region, lockdown
//!    intensity, day type and hour — calibrated to every growth figure the
//!    paper reports (§4, §5, Fig. 9's heatmaps);
//! 4. a vantage-level factor (mobile dips, roaming collapses — Fig. 1);
//! 5. discrete events: the EU streaming resolution reduction of Mar 19
//!    (§1, §3.2) and the gaming-provider outage in the first lockdown week
//!    at IXP-SE (§5, Fig. 8).
//!
//! The generator draws flows from these expectations; the analysis pipeline
//! recovers the paper's figures from the flows. Nothing in the *analysis*
//! reads this model — calibration numbers flow only through generated
//! traffic.

use crate::apps::AppClass;
use crate::calendar::{day_type, DayType};
use crate::diurnal::{blend, shape, DiurnalProfile};
use crate::measures::{MeasureEvent, RegionMeasures, ScenarioSpec};
use lockdown_flow::time::Date;
use lockdown_topology::asn::Region;
use lockdown_topology::vantage::{VantageKind, VantagePoint};

/// The demand model: an interpreter over one scenario's regions, events
/// and baseline drift. Its share table is built at construction, so build
/// one per pass (as the generator does) and ask it for a [`DayDemand`] per
/// cell, not for a volume per flow.
#[derive(Debug, Clone)]
pub struct DemandModel {
    regions: [RegionMeasures; 3],
    events: Vec<MeasureEvent>,
    organic_anchor: Date,
    organic_weekly: f64,
    /// Normalized mix per vantage kind, `[kind as usize][class as usize]`.
    shares: [[f64; AppClass::ALL.len()]; 5],
}

/// What the model knows about one `(vantage point, date)` before any hour
/// or class is named: every factor of [`DemandModel::volume_gbps`] that is
/// a fact of the day. A cell's 23 classes share one.
#[derive(Debug)]
pub struct DayDemand<'a> {
    vp: VantagePoint,
    date: Date,
    day_type: DayType,
    /// [`DemandModel::effective_intensity`] on this day.
    intensity: f64,
    /// Days since the region's lockdown began (negative before).
    since_lockdown: i64,
    vantage_factor: f64,
    organic_factor: f64,
    event_factors: [f64; AppClass::ALL.len()],
    shares: &'a [f64; AppClass::ALL.len()],
}

impl Default for DemandModel {
    fn default() -> Self {
        Self::new()
    }
}

impl DemandModel {
    /// Build the standard model with the paper's shipped calibration.
    pub fn new() -> DemandModel {
        DemandModel::from_spec(&ScenarioSpec::covid_spring_2020())
    }

    /// Build a model interpreting an arbitrary scenario.
    pub fn from_spec(spec: &ScenarioSpec) -> DemandModel {
        use VantageKind::*;
        let mut shares = [[0.0; AppClass::ALL.len()]; 5];
        for kind in [Isp, Ixp, Edu, Mobile, Roaming] {
            shares[kind as usize] = share_row(kind);
        }
        DemandModel {
            regions: [
                *spec.region(Region::CentralEurope),
                *spec.region(Region::SouthernEurope),
                *spec.region(Region::UsEast),
            ],
            events: spec.events.clone(),
            organic_anchor: spec.baseline.organic_anchor,
            organic_weekly: spec.baseline.organic_weekly,
            shares,
        }
    }

    /// The measures for a region.
    pub(crate) fn measures(&self, region: Region) -> &RegionMeasures {
        match region {
            Region::CentralEurope => &self.regions[0],
            Region::SouthernEurope => &self.regions[1],
            Region::UsEast => &self.regions[2],
        }
    }

    /// Stay-at-home intensity at a vantage point's region on a date.
    pub fn intensity(&self, vp: VantagePoint, date: Date) -> f64 {
        self.measures(vp.region()).intensity(date)
    }

    /// Intensity as *experienced by this vantage point's traffic*.
    ///
    /// §3.1: once restrictions relax, ISP-CE growth falls back to ~6%
    /// while the IXPs' gains persist — residential behaviour reverts
    /// faster than the wholesale traffic mix. Residential-facing vantage
    /// points therefore discount intensity during the relaxation phase.
    pub fn effective_intensity(&self, vp: VantagePoint, date: Date) -> f64 {
        let m = self.measures(vp.region());
        let i = m.intensity(date);
        match vp.kind() {
            VantageKind::Isp | VantageKind::Mobile | VantageKind::Roaming | VantageKind::Edu => {
                if date >= m.reopening {
                    let days = m.reopening.days_until(date) as f64;
                    i * (1.0 - m.reversion * (days / m.reversion_days).min(1.0))
                } else {
                    i
                }
            }
            _ => i,
        }
    }

    /// The day's facts at one vantage point: what every class and hour of
    /// a cell shares.
    pub fn day(&self, vp: VantagePoint, date: Date) -> DayDemand<'_> {
        let intensity = self.effective_intensity(vp, date);
        DayDemand {
            vp,
            date,
            day_type: day_type(date, vp.region()),
            intensity,
            since_lockdown: self.measures(vp.region()).stay_home.days_until(date),
            // Mobile traffic dips while people sit on home Wi-Fi; roaming
            // collapses with travel (Fig. 1's bottom curves).
            vantage_factor: match vp.kind() {
                VantageKind::Mobile => 1.0 - 0.30 * intensity,
                VantageKind::Roaming => 1.0 - 0.60 * intensity,
                // The EDU vantage's drastic volume drop is modelled by the
                // dedicated EDU model (crate module `edu`); at the demand level
                // the campus factor removes the on-premise population.
                VantageKind::Edu => 1.0 - 0.52 * intensity,
                _ => 1.0,
            },
            organic_factor: self.organic_factor(date),
            event_factors: self.event_factors(vp, date),
            shares: &self.shares[vp.kind() as usize],
        }
    }

    /// Expected volume in Gbps for one class at one vantage point and hour.
    pub fn volume_gbps(&self, vp: VantagePoint, app: AppClass, date: Date, hour: u8) -> f64 {
        self.day(vp, date).volume_gbps(app, hour)
    }

    /// Combined multiplier of the scenario's discrete events on this
    /// (vantage, date) for every class, by `class as usize` — events
    /// multiply in file order.
    fn event_factors(&self, vp: VantagePoint, date: Date) -> [f64; AppClass::ALL.len()] {
        let mut factors = [1.0; AppClass::ALL.len()];
        // Most events are out of force on most days: ask that once.
        for e in self.events.iter().filter(|e| e.covers(vp, date)) {
            for app in AppClass::ALL {
                if e.applies(vp, app, date) {
                    factors[app as usize] *= e.factor;
                }
            }
        }
        factors
    }

    /// The scenario's organic week-over-week baseline drift.
    pub(crate) fn organic_factor(&self, date: Date) -> f64 {
        let weeks = self.organic_anchor.days_until(date) as f64 / 7.0;
        self.organic_weekly.powf(weeks)
    }

    /// Expected total volume (all classes) in Gbps.
    pub fn total_volume_gbps(&self, vp: VantagePoint, date: Date, hour: u8) -> f64 {
        self.day(vp, date).total_volume_gbps(hour)
    }

    /// The diurnal weight of a class at an hour, after lockdown morphing.
    pub fn diurnal_weight(&self, vp: VantagePoint, app: AppClass, date: Date, hour: u8) -> f64 {
        self.day(vp, date).diurnal_weight(app, hour)
    }

    /// COVID growth multiplier for a class. 1.0 = no change vs. baseline.
    pub fn growth(&self, vp: VantagePoint, app: AppClass, date: Date, hour: u8) -> f64 {
        self.day(vp, date).growth(app, hour)
    }
}

impl DayDemand<'_> {
    /// The vantage point these facts hold at.
    pub fn vantage(&self) -> VantagePoint {
        self.vp
    }

    /// The day these facts hold on.
    pub fn date(&self) -> Date {
        self.date
    }

    /// Expected volume in Gbps for one class at one hour of this day.
    pub fn volume_gbps(&self, app: AppClass, hour: u8) -> f64 {
        let share = self.shares[app as usize];
        if share == 0.0 {
            return 0.0;
        }
        let base = self.vp.peak_gbps() * 0.55; // mean level relative to peak
        let level = if self.day_type.is_weekend_like() {
            weekend_level(app)
        } else {
            1.0
        };
        base * share
            * level
            * self.diurnal_weight(app, hour)
            * self.growth(app, hour)
            * self.vantage_factor
            * self.organic_factor
            * self.event_factors[app as usize]
    }

    /// Expected total volume (all classes) in Gbps.
    pub fn total_volume_gbps(&self, hour: u8) -> f64 {
        AppClass::ALL
            .iter()
            .map(|&a| self.volume_gbps(a, hour))
            .sum()
    }

    /// The diurnal weight of a class at an hour, after lockdown morphing.
    pub fn diurnal_weight(&self, app: AppClass, hour: u8) -> f64 {
        let (workday_profile, weekend_profile) = class_profiles(app);
        match self.day_type {
            DayType::Workday => {
                // Under lockdown, workday shapes morph toward the weekend-
                // like lockdown shape (Fig. 2b/2c: almost all days classify
                // as weekend-like from mid-March).
                let lockdown_profile = lockdown_profile_for(app);
                blend(workday_profile, lockdown_profile, self.intensity, hour)
            }
            DayType::Weekend | DayType::Holiday => shape(weekend_profile, hour),
        }
    }

    /// COVID growth multiplier for a class. 1.0 = no change vs. baseline.
    pub fn growth(&self, app: AppClass, hour: u8) -> f64 {
        let (vp, date, i) = (self.vp, self.date, self.intensity);
        let region = vp.region();
        if i == 0.0 {
            return 1.0;
        }
        let workday = self.day_type == DayType::Workday;
        let work_hours = (9..17).contains(&hour);
        let kind = vp.kind();
        let eu = region != Region::UsEast;

        match app {
            AppClass::Web => 1.0 + 0.15 * i,
            // §4: alternative HTTP ports and Cloudflare's load balancer
            // stay flat in *absolute* volume while total traffic rises.
            // This multiplier scales absolute volume, so flat is 1.0 (their
            // share of the growing aggregate falls by itself).
            AppClass::AltHttp | AppClass::CloudflareLb => 1.0,
            // §4: QUIC +30–80% at the ISP (morning hours largest), ~+50% at
            // the IXP-CE.
            AppClass::Quic => {
                // The morning boost is the families-at-home effect: a
                // lockdown-workday phenomenon.
                let morning = if workday && (8..13).contains(&hour) {
                    1.0
                } else {
                    0.0
                };
                match kind {
                    // §3.2: the other-AS curve dominates the hypergiants'
                    // in every day part after the lockdown — QUIC (all
                    // hypergiant-served) keeps its morning peak but its
                    // baseline stays below the aggregate's growth.
                    VantageKind::Isp => 1.0 + i * (0.30 + 0.55 * morning),
                    _ => 1.0 + 0.50 * i,
                }
            }
            // §5: Web conferencing "more than 200% during business hours" at
            // all vantage points; weekends too at ISP-CE/IXP-SE/IXP-US.
            AppClass::WebConf => {
                if workday && work_hours {
                    1.0 + 3.2 * i
                } else if workday {
                    1.0 + 1.6 * i
                } else if vp == VantagePoint::IxpCe {
                    1.0 + 0.8 * i
                } else {
                    1.0 + 2.2 * i
                }
            }
            // §5: VoD +~100% at European IXPs, ~+30% at the ISP, decline in
            // the US (traffic-engineering of a large AS).
            AppClass::Vod => match (eu, kind) {
                (true, VantageKind::Ixp) => 1.0 + 1.0 * i,
                // Gross growth; the Mar-19 resolution reduction (event
                // factor) nets this out to the paper's ~+30% at the ISP.
                (true, _) => 1.0 + 0.50 * i,
                (false, VantageKind::Ixp) => 1.0 - 0.25 * i,
                (false, _) => 1.0 + 0.1 * i,
            },
            // §4: TV streaming spreads across the day and grows on weekends
            // in March; a phenomenon of the IXP-CE's international base.
            AppClass::TvStreaming => {
                if vp == VantagePoint::IxpCe {
                    if workday && (9..20).contains(&hour) {
                        1.0 + 0.9 * i
                    } else {
                        1.0 + 0.5 * i
                    }
                } else {
                    1.0 + 0.15 * i
                }
            }
            // §5: strong coherent gaming growth at all three IXPs,
            // throughout the day; only ~10% at the ISP.
            AppClass::Gaming => match kind {
                VantageKind::Ixp => 1.0 + 1.3 * i,
                _ => 1.0 + 0.10 * i,
            },
            // §5: social media spikes in stage 1 and flattens in stage 2
            // (people allowed outside again); ISP-CE sees +70% in stage 1.
            AppClass::SocialMedia => {
                let since = self.since_lockdown.max(0) as f64;
                // The novelty pulse decays fast enough that the stage-2
                // analysis week (Apr 9 at the ISP) sits clearly below
                // stage 1 even as overall demand keeps rising (Fig. 9).
                let pulse = (-since / 12.0).exp2();
                1.0 + i * (0.22 + 0.58 * pulse)
            }
            // §5: Europe prefers messaging (>+200%), the US email — and
            // vice versa each *falls* on the other side of the Atlantic.
            AppClass::Messaging => {
                if eu {
                    1.0 + i * if work_hours { 2.5 } else { 2.2 }
                } else {
                    1.0 - 0.50 * i
                }
            }
            AppClass::Email => {
                if eu {
                    // §4: TCP/993 +60% during working hours at the ISP-CE.
                    1.0 + i * if workday && work_hours { 0.65 } else { 0.2 }
                } else {
                    1.0 + i * if work_hours { 1.7 } else { 0.8 }
                }
            }
            // §5: educational traffic +200% at the ISP-CE (NREN-hosted
            // conferencing used from home), stable/slight growth at IXP-CE,
            // significant decrease in the US.
            AppClass::Educational => match (vp, eu) {
                (VantagePoint::IspCe, _) => 1.0 + 2.2 * i,
                (VantagePoint::IxpUs, _) | (_, false) => 1.0 - 0.5 * i,
                (VantagePoint::IxpCe, _) => 1.0 + 0.15 * i,
                _ => 1.0 + 0.3 * i,
            },
            // §5: collaborative working grows mainly at IXP-SE and IXP-US;
            // at the ISP-CE a Thursday/Friday-morning pattern stands out.
            AppClass::CollabWork => {
                let thu_fri_morning = workday
                    && matches!(
                        date.weekday(),
                        lockdown_flow::time::Weekday::Thursday
                            | lockdown_flow::time::Weekday::Friday
                    )
                    && (8..12).contains(&hour);
                match vp {
                    VantagePoint::IxpSe | VantagePoint::IxpUs => {
                        1.0 + i * if work_hours { 1.6 } else { 0.8 }
                    }
                    VantagePoint::IspCe if thu_fri_morning => 1.0 + 1.9 * i,
                    _ => 1.0 + 0.5 * i,
                }
            }
            // §5: CDN grows in Europe, stagnates/declines in the US.
            // §3.2 attributes much of the other-AS growth to CDNs and
            // entertainment providers outside the hypergiant set.
            AppClass::Cdn => {
                if eu {
                    1.0 + 0.62 * i
                } else {
                    1.0 - 0.15 * i
                }
            }
            // §4: road-warrior VPN ports grow during working hours; weekend
            // growth "almost negligible".
            AppClass::VpnUser => {
                if workday && work_hours {
                    1.0 + 0.9 * i
                } else if workday {
                    1.0 + 0.3 * i
                } else {
                    1.0 + 0.05 * i
                }
            }
            // §4: GRE/ESP *decrease* at the IXP-CE after the lockdown while
            // GRE sees a slight increase at the ISP-CE.
            AppClass::VpnSiteToSite => match kind {
                VantageKind::Ixp => 1.0 - 0.40 * i,
                _ => 1.0 + 0.10 * i,
            },
            // §6: domain-identified VPN over TCP/443 grows >200% during
            // working hours in March; weekends less pronounced.
            AppClass::VpnTls => {
                if workday && work_hours {
                    1.0 + 2.6 * i
                } else if workday {
                    1.0 + 1.2 * i
                } else {
                    1.0 + 0.6 * i
                }
            }
            AppClass::UnknownHosting => 1.0 + 0.40 * i,
            AppClass::PushNotif => 1.0 + 0.2 * i,
            AppClass::RemoteDesktop => {
                if workday && work_hours {
                    1.0 + 1.6 * i
                } else {
                    1.0 + 0.5 * i
                }
            }
            AppClass::Ssh => 1.0 + 0.8 * i,
            AppClass::MusicStreaming => 1.0 + 0.5 * i,
            // The unclassified long tail (smaller ASes) grows with people
            // at home — this is the bulk of Fig. 4's "other" curve lift.
            AppClass::Other => 1.0 + 0.40 * i,
        }
    }
}

/// Weekend volume level of a class relative to its workday level.
///
/// Entertainment runs hotter on weekends, office traffic collapses, the
/// web baseline barely moves — the asymmetry §3.4's workday/weekend-ratio
/// grouping extracts (companies vs. entertainment vs. balanced ASes).
pub(crate) fn weekend_level(app: AppClass) -> f64 {
    use AppClass::*;
    match app {
        Vod | Gaming | TvStreaming | SocialMedia | MusicStreaming => 1.30,
        Email | VpnUser | VpnTls | WebConf | CollabWork | RemoteDesktop | Educational | Ssh => 0.40,
        VpnSiteToSite => 0.55,
        _ => 0.95,
    }
}

/// Base share (relative weight) of a class in a vantage point's mix.
/// Weights are normalized so shares sum to 1 per vantage point.
pub fn app_share(vp: VantagePoint, app: AppClass) -> f64 {
    share_row(vp.kind())[app as usize]
}

/// A vantage kind's normalized mix, indexed by `class as usize`.
fn share_row(kind: VantageKind) -> [f64; AppClass::ALL.len()] {
    let weights = share_weights(kind);
    let total: f64 = AppClass::ALL.iter().map(|&a| raw_weight(weights, a)).sum();
    AppClass::ALL.map(|a| raw_weight(weights, a) / total)
}

fn raw_weight(weights: &[(AppClass, f64)], app: AppClass) -> f64 {
    weights
        .iter()
        .find(|(a, _)| *a == app)
        .map(|(_, w)| *w)
        .unwrap_or(0.0)
}

/// Raw mix weights per vantage kind. ISP: §4 "TCP/443 and TCP/80 …
/// making up 80% … in traffic at the ISP-CE" (Web + the 443-riding
/// classes); IXP: 60%, with a much longer tail of member traffic.
fn share_weights(kind: VantageKind) -> &'static [(AppClass, f64)] {
    use AppClass::*;
    match kind {
        VantageKind::Isp => &[
            (Web, 0.465),
            (Quic, 0.130),
            (Vod, 0.090),
            (SocialMedia, 0.050),
            (Cdn, 0.070),
            (Gaming, 0.035),
            (TvStreaming, 0.002),
            (WebConf, 0.006),
            (Messaging, 0.012),
            (Email, 0.008),
            (Educational, 0.008),
            (CollabWork, 0.010),
            (VpnUser, 0.012),
            (VpnSiteToSite, 0.008),
            (VpnTls, 0.010),
            (AltHttp, 0.020),
            (CloudflareLb, 0.004),
            (UnknownHosting, 0.010),
            (PushNotif, 0.004),
            (RemoteDesktop, 0.004),
            (Ssh, 0.002),
            (MusicStreaming, 0.012),
            (Other, 0.038),
        ],
        VantageKind::Ixp => &[
            (Web, 0.370),
            (Quic, 0.100),
            (Vod, 0.080),
            (Cdn, 0.100),
            (Gaming, 0.050),
            (TvStreaming, 0.015),
            (SocialMedia, 0.050),
            (WebConf, 0.012),
            (Messaging, 0.010),
            (Email, 0.008),
            (Educational, 0.012),
            (CollabWork, 0.010),
            (VpnUser, 0.012),
            (VpnSiteToSite, 0.040),
            (VpnTls, 0.015),
            (AltHttp, 0.025),
            (CloudflareLb, 0.006),
            (UnknownHosting, 0.020),
            (PushNotif, 0.004),
            (RemoteDesktop, 0.005),
            (Ssh, 0.003),
            (MusicStreaming, 0.010),
            (Other, 0.043),
        ],
        VantageKind::Edu => &[
            (Web, 0.500),
            (Quic, 0.090),
            (Educational, 0.090),
            (Email, 0.040),
            (Ssh, 0.020),
            (RemoteDesktop, 0.012),
            (VpnUser, 0.020),
            (PushNotif, 0.012),
            (MusicStreaming, 0.020),
            (Cdn, 0.050),
            (SocialMedia, 0.030),
            (Vod, 0.030),
            (Gaming, 0.015),
            (Messaging, 0.008),
            (CollabWork, 0.008),
            (VpnTls, 0.008),
            (Other, 0.047),
        ],
        VantageKind::Mobile | VantageKind::Roaming => &[
            (Web, 0.430),
            (Quic, 0.200),
            (Vod, 0.090),
            (SocialMedia, 0.120),
            (Messaging, 0.030),
            (PushNotif, 0.020),
            (Gaming, 0.030),
            (MusicStreaming, 0.020),
            (Email, 0.010),
            (Cdn, 0.020),
            (Other, 0.030),
        ],
    }
}

/// Workday/weekend diurnal profile pair per class.
fn class_profiles(app: AppClass) -> (DiurnalProfile, DiurnalProfile) {
    use DiurnalProfile::*;
    match app {
        AppClass::Web | AppClass::Quic | AppClass::Cdn | AppClass::SocialMedia => {
            (ResidentialWorkday, ResidentialWeekend)
        }
        AppClass::Vod | AppClass::TvStreaming | AppClass::MusicStreaming => {
            (EveningEntertainment, ResidentialWeekend)
        }
        AppClass::Gaming => (GamingEvening, ResidentialWeekend),
        AppClass::WebConf
        | AppClass::CollabWork
        | AppClass::Email
        | AppClass::VpnUser
        | AppClass::VpnTls
        | AppClass::RemoteDesktop => (BusinessHours, ResidentialWeekend),
        AppClass::Educational | AppClass::Ssh => (Campus, ResidentialWeekend),
        AppClass::VpnSiteToSite | AppClass::CloudflareLb | AppClass::PushNotif => (Flat, Flat),
        AppClass::AltHttp | AppClass::UnknownHosting | AppClass::Messaging | AppClass::Other => {
            (ResidentialWorkday, ResidentialWeekend)
        }
    }
}

/// Profile a class's *workday* shape morphs toward under lockdown.
fn lockdown_profile_for(app: AppClass) -> DiurnalProfile {
    use DiurnalProfile::*;
    match app {
        // Business-hours classes keep business hours (people still work,
        // just from home) — their shape is not weekend-morphing.
        AppClass::WebConf
        | AppClass::CollabWork
        | AppClass::Email
        | AppClass::VpnUser
        | AppClass::VpnTls
        | AppClass::RemoteDesktop => BusinessHours,
        AppClass::Educational | AppClass::Ssh => BusinessHours,
        AppClass::VpnSiteToSite | AppClass::CloudflareLb | AppClass::PushNotif => Flat,
        // Entertainment and general residential traffic spreads across the
        // day: the Fig. 2a/3a lockdown shape.
        _ => ResidentialLockdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DemandModel {
        DemandModel::new()
    }

    /// Mean daily volume of a vantage point on a date.
    fn daily(m: &DemandModel, vp: VantagePoint, date: Date) -> f64 {
        (0..24)
            .map(|h| m.total_volume_gbps(vp, date, h))
            .sum::<f64>()
            / 24.0
    }

    /// Weekly mean centred on a Wednesday.
    fn weekly(m: &DemandModel, vp: VantagePoint, wednesday: Date) -> f64 {
        (-2..5)
            .map(|d| daily(m, vp, wednesday.add_days(d)))
            .sum::<f64>()
            / 7.0
    }

    #[test]
    fn shares_sum_to_one() {
        for vp in VantagePoint::ALL {
            let sum: f64 = AppClass::ALL.iter().map(|&a| app_share(vp, a)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{vp}: shares sum to {sum}");
        }
    }

    #[test]
    fn web_dominates_everywhere() {
        // §4: TCP/443+80 ≈ 80% at the ISP (Web + VoD + social + CDN all ride
        // those ports), ≈ 60% at the IXP.
        let isp_web: f64 = [
            AppClass::Web,
            AppClass::Vod,
            AppClass::SocialMedia,
            AppClass::Cdn,
            AppClass::Educational,
            AppClass::CollabWork,
            AppClass::VpnTls,
        ]
        .iter()
        .map(|&a| app_share(VantagePoint::IspCe, a))
        .sum();
        assert!(
            isp_web > 0.60 && isp_web < 0.80,
            "ISP web-port share {isp_web}"
        );
    }

    #[test]
    fn isp_lockdown_growth_matches_paper() {
        // §3.1: ISP-CE grows >20% after the lockdown (stage 1/2)…
        let m = model();
        let base = weekly(&m, VantagePoint::IspCe, Date::new(2020, 2, 19));
        let stage1 = weekly(&m, VantagePoint::IspCe, Date::new(2020, 3, 25));
        let growth = stage1 / base - 1.0;
        assert!(
            (0.15..0.40).contains(&growth),
            "ISP stage-1 growth = {:.3}",
            growth
        );
        // …and relaxes to ~6% by mid-May.
        let stage3 = weekly(&m, VantagePoint::IspCe, Date::new(2020, 5, 13));
        let late = stage3 / base - 1.0;
        assert!(
            late < growth * 0.75,
            "ISP growth must decay: {late} vs {growth}"
        );
    }

    #[test]
    fn ixp_ce_growth_persists() {
        let m = model();
        let base = weekly(&m, VantagePoint::IxpCe, Date::new(2020, 2, 19));
        let stage1 = weekly(&m, VantagePoint::IxpCe, Date::new(2020, 3, 25));
        let stage3 = weekly(&m, VantagePoint::IxpCe, Date::new(2020, 5, 13));
        let g1 = stage1 / base - 1.0;
        let g3 = stage3 / base - 1.0;
        assert!(g1 > 0.18, "IXP-CE stage-1 growth = {g1}");
        assert!(g3 > 0.12, "IXP-CE growth must persist, got {g3}");
    }

    #[test]
    fn ixp_us_growth_is_delayed() {
        let m = model();
        let base = weekly(&m, VantagePoint::IxpUs, Date::new(2020, 2, 19));
        let march = weekly(&m, VantagePoint::IxpUs, Date::new(2020, 3, 18));
        let april = weekly(&m, VantagePoint::IxpUs, Date::new(2020, 4, 22));
        let g_mar = march / base - 1.0;
        let g_apr = april / base - 1.0;
        assert!(g_mar < 0.12, "US March growth should be small: {g_mar}");
        assert!(
            g_apr > g_mar + 0.03,
            "US April must exceed March: {g_apr} vs {g_mar}"
        );
    }

    #[test]
    fn mobile_dips_roaming_collapses() {
        let m = model();
        let base = weekly(&m, VantagePoint::MobileCe, Date::new(2020, 2, 19));
        let apr = weekly(&m, VantagePoint::MobileCe, Date::new(2020, 4, 1));
        assert!(apr < base, "mobile traffic should dip");
        let rbase = weekly(&m, VantagePoint::RoamingIpx, Date::new(2020, 2, 19));
        let rapr = weekly(&m, VantagePoint::RoamingIpx, Date::new(2020, 4, 1));
        assert!(
            rapr / rbase < 0.75,
            "roaming should collapse: {}",
            rapr / rbase
        );
    }

    #[test]
    fn webconf_exceeds_200_percent_in_business_hours() {
        let m = model();
        let g = m.growth(
            VantagePoint::IxpCe,
            AppClass::WebConf,
            Date::new(2020, 4, 1),
            11,
        );
        assert!(g > 3.0, "Webconf growth {g} must exceed 200%");
        // Weekend growth at IXP-CE is much smaller.
        let gw = m.growth(
            VantagePoint::IxpCe,
            AppClass::WebConf,
            Date::new(2020, 4, 4),
            11,
        );
        assert!(gw < g / 2.0);
    }

    #[test]
    fn messaging_email_antipattern() {
        let m = model();
        let d = Date::new(2020, 4, 1);
        let eu_msg = m.growth(VantagePoint::IxpCe, AppClass::Messaging, d, 11);
        let us_msg = m.growth(VantagePoint::IxpUs, AppClass::Messaging, d, 11);
        let eu_mail = m.growth(VantagePoint::IxpCe, AppClass::Email, d, 11);
        let us_mail = m.growth(VantagePoint::IxpUs, AppClass::Email, d, 11);
        assert!(
            eu_msg > 3.0 && us_msg < 1.0,
            "messaging: EU {eu_msg}, US {us_msg}"
        );
        assert!(
            us_mail > 2.0 && eu_mail < 1.8,
            "email: EU {eu_mail}, US {us_mail}"
        );
    }

    #[test]
    fn vod_resolution_reduction_dips_then_lifts() {
        let m = model();
        let d_pre = Date::new(2020, 3, 18);
        let d_in = Date::new(2020, 4, 1);
        let d_post = Date::new(2020, 5, 13);
        let vod = |vp, d| m.event_factors(vp, d)[AppClass::Vod as usize];
        assert_eq!(vod(VantagePoint::IxpCe, d_pre), 1.0);
        assert!(vod(VantagePoint::IxpCe, d_in) < 1.0);
        assert_eq!(vod(VantagePoint::IxpCe, d_post), 1.0);
        // US streams were not degraded.
        assert_eq!(vod(VantagePoint::IxpUs, d_in), 1.0);
    }

    #[test]
    fn gaming_outage_at_ixp_se_only() {
        let m = model();
        let d = Date::new(2020, 3, 16);
        let gaming = |vp, d| m.event_factors(vp, d)[AppClass::Gaming as usize];
        assert!(gaming(VantagePoint::IxpSe, d) < 0.2);
        assert_eq!(gaming(VantagePoint::IxpCe, d), 1.0);
        assert_eq!(gaming(VantagePoint::IxpSe, Date::new(2020, 3, 20)), 1.0);
    }

    #[test]
    fn social_media_pulse_decays() {
        let m = model();
        let g_early = m.growth(
            VantagePoint::IspCe,
            AppClass::SocialMedia,
            Date::new(2020, 3, 24),
            20,
        );
        let g_late = m.growth(
            VantagePoint::IspCe,
            AppClass::SocialMedia,
            Date::new(2020, 4, 28),
            20,
        );
        assert!(g_early > 1.4, "stage-1 social growth {g_early}");
        assert!(g_late < g_early, "social pulse must decay");
        assert!(g_late > 1.05, "some growth persists");
    }

    #[test]
    fn vpn_tls_grows_port_vpn_mixed() {
        let m = model();
        let d = Date::new(2020, 3, 25);
        let tls = m.growth(VantagePoint::IxpCe, AppClass::VpnTls, d, 11);
        assert!(tls > 3.0, "domain-identified VPN {tls}");
        // Port-based aggregate ≈ flat at the IXP: user VPN up, GRE/ESP down.
        let user = m.growth(VantagePoint::IxpCe, AppClass::VpnUser, d, 11);
        let s2s = m.growth(VantagePoint::IxpCe, AppClass::VpnSiteToSite, d, 11);
        assert!(user > 1.5);
        assert!(s2s < 0.9);
        let user_share = app_share(VantagePoint::IxpCe, AppClass::VpnUser);
        let s2s_share = app_share(VantagePoint::IxpCe, AppClass::VpnSiteToSite);
        let agg = (user * user_share + s2s * s2s_share) / (user_share + s2s_share);
        assert!((0.8..1.35).contains(&agg), "port-based aggregate {agg}");
    }

    #[test]
    fn diurnal_morphs_to_weekend_like() {
        let m = model();
        // Pre-lockdown workday at 10:00: low. Lockdown workday: high.
        let pre = m.diurnal_weight(
            VantagePoint::IspCe,
            AppClass::Web,
            Date::new(2020, 2, 19),
            10,
        );
        let post = m.diurnal_weight(
            VantagePoint::IspCe,
            AppClass::Web,
            Date::new(2020, 3, 25),
            10,
        );
        assert!(
            post > 1.3 * pre,
            "morning weight must rise: {pre} -> {post}"
        );
        // Evening peaks comparable.
        let pre_e = m.diurnal_weight(
            VantagePoint::IspCe,
            AppClass::Web,
            Date::new(2020, 2, 19),
            21,
        );
        let post_e = m.diurnal_weight(
            VantagePoint::IspCe,
            AppClass::Web,
            Date::new(2020, 3, 25),
            21,
        );
        // Shapes are mean-normalized, so the evening weight of the flatter
        // lockdown profile sits a bit below the workday one; Fig. 2a's
        // "roughly the same volume during evening" comes from growth ×
        // shape, checked in the integration tests.
        assert!((post_e / pre_e - 1.0).abs() < 0.25);
    }

    #[test]
    fn volume_positive_and_finite() {
        let m = model();
        for vp in VantagePoint::ALL {
            for d in [
                Date::new(2020, 1, 10),
                Date::new(2020, 3, 25),
                Date::new(2020, 5, 15),
            ] {
                for h in [0u8, 6, 12, 18, 23] {
                    let v = m.total_volume_gbps(vp, d, h);
                    assert!(v.is_finite() && v > 0.0, "{vp} {d:?} {h}: {v}");
                }
            }
        }
    }

    #[test]
    fn organic_growth_is_mild() {
        let m = model();
        let g = m.organic_factor(Date::new(2020, 5, 17));
        assert!(g > 1.0 && g < 1.10, "organic growth to May = {g}");
        assert!(m.organic_factor(Date::new(2020, 1, 1)) < 1.0);
    }
}
