//! The educational-network (§7) behavioural model.
//!
//! The EDU vantage point is "antagonistic, yet complementary" to the
//! residential ones: when campuses close (Mar 11), on-campus demand — and
//! with it the *incoming* content volume — collapses, while *incoming
//! connections* from users working at home surge. This module models the
//! per-class, per-direction expected volumes and connection counts the §7
//! analysis recovers, including:
//!
//! * workday volume drop of up to 55%, slight weekend increase (Fig. 11a);
//! * ingress/egress volume ratio collapsing from ~15× (Fig. 11b);
//! * median daily connections +24%; incoming ×2, outgoing ×½;
//! * per-class incoming connection growth: web 1.7×, email 1.8×, VPN 4.8×,
//!   remote desktop 5.9×, SSH 9.1× (Fig. 12);
//! * outgoing collapses: push notifications −65%, Spotify −83%,
//!   hypergiant web and QUIC below pre-COVID weekend levels;
//! * night/overseas access patterns (Latin-American students, 3–4 am peak).

use crate::calendar::{day_type, DayType};
use crate::diurnal::{shape, DiurnalProfile};
use crate::measures::{EduSpec, ScenarioSpec};
use lockdown_flow::time::Date;

/// Traffic classes tracked in the §7 connection-level analysis
/// (Appendix B, condensed to the classes Fig. 12 plots plus the ones the
/// prose quotes growth factors for).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EduClass {
    /// Web served *by* the universities (incoming from eyeballs).
    WebIn,
    /// Web fetched by on-campus clients (outgoing).
    WebOut,
    /// Outgoing web to hypergiants specifically.
    HypergiantWebOut,
    /// Outgoing QUIC.
    QuicOut,
    /// Incoming email connections.
    EmailIn,
    /// Incoming VPN connections.
    VpnIn,
    /// Incoming remote-desktop connections.
    RemoteDesktopIn,
    /// Incoming SSH connections.
    SshIn,
    /// Outgoing push-notification/mobile-services connections.
    PushNotifOut,
    /// Outgoing Spotify connections.
    SpotifyOut,
}

impl EduClass {
    /// All tracked classes.
    pub const ALL: [EduClass; 10] = [
        EduClass::WebIn,
        EduClass::WebOut,
        EduClass::HypergiantWebOut,
        EduClass::QuicOut,
        EduClass::EmailIn,
        EduClass::VpnIn,
        EduClass::RemoteDesktopIn,
        EduClass::SshIn,
        EduClass::PushNotifOut,
        EduClass::SpotifyOut,
    ];

    /// Whether this class counts *incoming* connections.
    pub fn is_incoming(self) -> bool {
        matches!(
            self,
            EduClass::WebIn
                | EduClass::EmailIn
                | EduClass::VpnIn
                | EduClass::RemoteDesktopIn
                | EduClass::SshIn
        )
    }

    /// Baseline median daily connections (relative units; only ratios
    /// matter for Fig. 12, which normalizes to Feb 27).
    pub(crate) fn base_daily_connections(self) -> f64 {
        match self {
            EduClass::WebIn => 900_000.0,
            EduClass::WebOut => 4_000_000.0,
            EduClass::HypergiantWebOut => 1_800_000.0,
            EduClass::QuicOut => 900_000.0,
            EduClass::EmailIn => 300_000.0,
            EduClass::VpnIn => 25_000.0,
            EduClass::RemoteDesktopIn => 8_000.0,
            EduClass::SshIn => 30_000.0,
            EduClass::PushNotifOut => 500_000.0,
            EduClass::SpotifyOut => 120_000.0,
        }
    }

    /// Asymptotic growth factor once fully in the online-lecturing regime
    /// (§7's quoted medians).
    pub(crate) fn lockdown_factor(self) -> f64 {
        match self {
            EduClass::WebIn => 1.7,
            EduClass::WebOut => 0.45,
            EduClass::HypergiantWebOut => 0.30,
            EduClass::QuicOut => 0.28,
            EduClass::EmailIn => 1.8,
            EduClass::VpnIn => 4.8,
            EduClass::RemoteDesktopIn => 5.9,
            EduClass::SshIn => 9.1,
            EduClass::PushNotifOut => 0.35,
            EduClass::SpotifyOut => 0.17,
        }
    }
}

/// The EDU behavioural model: an interpreter over a scenario's
/// educational-system measures.
#[derive(Debug, Clone)]
pub struct EduModel {
    /// The campus closure, its wind-down and the region whose calendar
    /// the campus follows.
    edu: EduSpec,
}

impl Default for EduModel {
    fn default() -> Self {
        Self::new()
    }
}

impl EduModel {
    /// Standard model (Southern-Europe timeline, Mar 11 closure).
    pub fn new() -> EduModel {
        EduModel::from_spec(&ScenarioSpec::covid_spring_2020())
    }

    /// Build a model interpreting an arbitrary scenario's `[edu]` block.
    pub fn from_spec(spec: &ScenarioSpec) -> EduModel {
        EduModel { edu: spec.edu }
    }

    /// Campus-presence factor in `[0, 1]`: 1 = normal occupancy.
    /// Only critical-maintenance staff remain after the closure.
    pub fn campus_presence(&self, date: Date) -> f64 {
        let e = &self.edu;
        if date < e.closure {
            1.0
        } else {
            // Sharp wind-down to the skeleton crew.
            let days = e.closure.days_until(date) as f64;
            (1.0 - e.winddown_per_day * days).max(e.presence_floor)
        }
    }

    /// Remote-activity factor: 0 before closure, ramping to 1 as teaching
    /// moves online over the ramp window.
    pub fn remote_activity(&self, date: Date) -> f64 {
        let e = &self.edu;
        if date < e.closure {
            0.0
        } else {
            (e.closure.days_until(date) as f64 / e.remote_ramp_days).min(1.0)
        }
    }

    /// Expected (ingress, egress) volume in Gbps for one hour.
    ///
    /// Ingress is content flowing *into* the network — pre-COVID this is
    /// campus users fetching the Internet, up to 15× egress on workdays.
    /// Egress is content served out of the universities, which grows with
    /// remote access.
    pub fn volume_gbps(&self, date: Date, hour: u8) -> (f64, f64) {
        let dt = day_type(date, self.edu.region);
        let presence = self.campus_presence(date);
        let remote = self.remote_activity(date);

        // On-campus demand follows the campus profile on workdays; weekends
        // were always low-occupancy.
        let campus_shape = match dt {
            DayType::Workday => shape(DiurnalProfile::Campus, hour),
            _ => 0.25 * shape(DiurnalProfile::ResidentialWeekend, hour),
        };
        // Remote users hit the campus servers on a spread-out schedule:
        // national users by day/evening, overseas students overnight
        // (§7: Latin-American peak from midnight to 7 am).
        let remote_shape = 0.65 * shape(DiurnalProfile::BusinessHours, hour)
            + 0.15 * shape(DiurnalProfile::ResidentialLockdown, hour)
            + 0.20 * shape(DiurnalProfile::OverseasNight, hour);
        // Weekend remote work runs below workday levels.
        let remote_scale = if dt == DayType::Workday { 1.0 } else { 0.9 };

        let campus_in = 22.0 * campus_shape * presence; // content pulled in
        let campus_out = 1.5 * campus_shape * presence; // campus serving out
        let remote_in = 1.5 * remote_shape * remote * remote_scale; // uploads, VPN in
        let remote_out = 5.5 * remote_shape * remote * remote_scale; // material out
        let infra_in = 1.2; // automated systems keep running
        let infra_out = 0.4;

        (
            campus_in + remote_in + infra_in,
            campus_out + remote_out + infra_out,
        )
    }

    /// Expected daily total volume in Gbps-days (mean of hourly volumes).
    pub fn daily_volume_gbps(&self, date: Date) -> f64 {
        (0..24)
            .map(|h| {
                let (i, e) = self.volume_gbps(date, h);
                i + e
            })
            .sum::<f64>()
            / 24.0
    }

    /// Expected daily connection count for one class (Fig. 12's unit,
    /// before normalization to Feb 27).
    pub fn daily_connections(&self, class: EduClass, date: Date) -> f64 {
        let dt = day_type(date, self.edu.region);
        let base = class.base_daily_connections();
        // Weekends always ran at a fraction of workday activity.
        let weekend_scale = if dt.is_weekend_like() { 0.45 } else { 1.0 };
        let presence = self.campus_presence(date);
        let remote = self.remote_activity(date);

        let factor = class.lockdown_factor();
        let level = if class.is_incoming() {
            // Incoming connections: campus-era level plus the remote surge.
            presence + remote * factor
        } else {
            // Outgoing connections track people on campus, with a floor
            // from automated systems; the lockdown factor is the asymptote.
            presence * (1.0 - factor).max(0.0) + factor
        };
        base * weekend_scale * level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EduModel {
        EduModel::new()
    }

    #[test]
    fn presence_collapses_after_closure() {
        let m = model();
        assert_eq!(m.campus_presence(Date::new(2020, 3, 10)), 1.0);
        assert!(m.campus_presence(Date::new(2020, 3, 20)) < 0.1);
    }

    #[test]
    fn workday_volume_drops_by_half() {
        // Fig. 11a: up to −55% on Tue/Wed between base and later weeks.
        let m = model();
        let base = m.daily_volume_gbps(Date::new(2020, 3, 3)); // Tue base week
        let online = m.daily_volume_gbps(Date::new(2020, 4, 21)); // Tue online
        let drop = 1.0 - online / base;
        assert!(
            (0.40..0.65).contains(&drop),
            "workday volume drop = {drop:.3}"
        );
    }

    #[test]
    fn weekend_volume_rises_slightly() {
        let m = model();
        let base = m.daily_volume_gbps(Date::new(2020, 2, 29)); // Sat base
        let online = m.daily_volume_gbps(Date::new(2020, 4, 18)); // Sat online
        let change = online / base - 1.0;
        assert!(
            (0.0..0.40).contains(&change),
            "weekend volume change = {change:.3}"
        );
    }

    #[test]
    fn in_out_ratio_collapses() {
        // Fig. 11b: ~15× on workdays before, far smaller after.
        let m = model();
        let ratio = |d: Date| {
            let (i, e): (f64, f64) = (0..24)
                .map(|h| m.volume_gbps(d, h))
                .fold((0.0, 0.0), |(a, b), (i, e)| (a + i, b + e));
            i / e
        };
        let before = ratio(Date::new(2020, 3, 3));
        let after = ratio(Date::new(2020, 4, 21));
        assert!(before > 10.0, "pre-closure in/out ratio = {before:.1}");
        assert!(after < before / 3.0, "ratio must collapse: {after:.1}");
    }

    #[test]
    fn night_hours_gain() {
        // §7: +11% to +24% between 9 pm and 7 am (overseas students).
        let m = model();
        let night_sum = |d: Date| -> f64 {
            (0..24)
                .filter(|h| *h >= 21 || *h < 7)
                .map(|h| {
                    let (i, e) = m.volume_gbps(d, h);
                    i + e
                })
                .sum()
        };
        let base = night_sum(Date::new(2020, 3, 3));
        let online = night_sum(Date::new(2020, 4, 21));
        let change = online / base - 1.0;
        assert!(change > 0.0 && change < 0.6, "night change = {change:.3}");
    }

    #[test]
    fn connection_growth_factors() {
        let m = model();
        let base = Date::new(2020, 2, 27); // §7 baseline day (Thu)
        let online = Date::new(2020, 4, 23); // Thu, online regime
        for (class, lo, hi) in [
            (EduClass::WebIn, 1.4, 2.0),
            (EduClass::EmailIn, 1.5, 2.1),
            (EduClass::VpnIn, 3.5, 5.5),
            (EduClass::RemoteDesktopIn, 4.5, 6.5),
            (EduClass::SshIn, 7.0, 10.0),
        ] {
            let g = m.daily_connections(class, online) / m.daily_connections(class, base);
            assert!(
                (lo..hi).contains(&g),
                "{class:?}: growth {g:.2} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn outgoing_collapses() {
        let m = model();
        let base = Date::new(2020, 2, 27);
        let online = Date::new(2020, 4, 23);
        let g = |c: EduClass| m.daily_connections(c, online) / m.daily_connections(c, base);
        assert!(
            g(EduClass::SpotifyOut) < 0.30,
            "Spotify {}",
            g(EduClass::SpotifyOut)
        );
        assert!(
            g(EduClass::PushNotifOut) < 0.50,
            "push {}",
            g(EduClass::PushNotifOut)
        );
        assert!(
            g(EduClass::WebOut) < 0.65,
            "web out {}",
            g(EduClass::WebOut)
        );
    }

    #[test]
    fn incoming_doubles_outgoing_halves() {
        // §7: median incoming ×2, outgoing ×½ after the state of emergency.
        let m = model();
        // Total daily connections across classes, split (incoming, outgoing).
        let totals = |date| {
            EduClass::ALL.iter().fold((0.0, 0.0), |(inc, out), &c| {
                let n = m.daily_connections(c, date);
                if c.is_incoming() {
                    (inc + n, out)
                } else {
                    (inc, out + n)
                }
            })
        };
        let (bi, bo) = totals(Date::new(2020, 3, 4));
        let (oi, oo) = totals(Date::new(2020, 4, 22));
        let gi = oi / bi;
        let go = oo / bo;
        assert!((1.5..2.6).contains(&gi), "incoming growth {gi:.2}");
        assert!((0.3..0.7).contains(&go), "outgoing shrink {go:.2}");
    }

    #[test]
    fn hypergiant_out_below_precovid_weekend() {
        // §7: outgoing hypergiant web/QUIC fall below pre-COVID *weekend*
        // levels.
        let m = model();
        let pre_weekend = m.daily_connections(EduClass::HypergiantWebOut, Date::new(2020, 2, 29));
        let online_workday =
            m.daily_connections(EduClass::HypergiantWebOut, Date::new(2020, 4, 21));
        assert!(online_workday < pre_weekend);
        let q_pre = m.daily_connections(EduClass::QuicOut, Date::new(2020, 2, 29));
        let q_post = m.daily_connections(EduClass::QuicOut, Date::new(2020, 4, 21));
        assert!(q_post < q_pre);
    }
}
