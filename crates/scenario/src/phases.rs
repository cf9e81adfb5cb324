//! Lockdown phases per region, with the dates the paper anchors on.
//!
//! The demand model needs to know, for every (region, date), how far into
//! the lockdown a population is: traffic growth tracks the *behavioural*
//! intensity of stay-at-home measures, ramping up over the first lockdown
//! week and relaxing gradually from late April (Central Europe: shop
//! re-openings mid-April, school openings in May, §1; Southern Europe:
//! school closure Mar 11, state of emergency Mar 14, §7; US East Coast:
//! lockdown "later", §3.1).
//!
//! Since the scenario DSL landed, this module is an *interpreter*: the
//! dates and curve parameters live in [`crate::measures`] (authorable as
//! TOML), and [`RegionTimeline`] merely evaluates the piecewise intensity
//! curve they describe. [`RegionTimeline::for_region`] returns the shipped
//! COVID spring-2020 calibration.

use lockdown_flow::time::Date;
use lockdown_topology::asn::Region;

/// Coarse phase of the pandemic response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockdownPhase {
    /// Before the outbreak influenced behaviour.
    PreCovid,
    /// Outbreak known, behaviour beginning to change (Europe: from late
    /// January, week 4–5 in Fig. 1).
    Outbreak,
    /// Initial responses: advisories, event cancellations, first closures.
    InitialResponse,
    /// Full stay-at-home lockdown.
    Lockdown,
    /// Gradual relaxation ("containment" in Fig. 1): shops, later schools.
    Relaxation,
}

/// Parameters of the piecewise behavioural-intensity curve.
///
/// Every constant of the old hard-coded curve is a field here, so a
/// scenario file can re-shape the response without touching code — and so
/// the shipped COVID calibration ([`IntensityCurve::paper`]) evaluates
/// *bit-identically* to the pre-DSL literals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntensityCurve {
    /// Intensity reached as awareness builds (end of the outbreak phase).
    pub awareness_gain: f64,
    /// Additional intensity gained across the initial-response window.
    pub restrictions_gain: f64,
    /// Intensity on the first day of the stay-at-home order.
    pub stay_home_from: f64,
    /// Additional intensity gained over the stay-at-home ramp.
    pub stay_home_gain: f64,
    /// Days the stay-at-home ramp takes to saturate.
    pub stay_home_ramp_days: f64,
    /// Intensity released (from 1.0) across the reopening window.
    pub reopening_release: f64,
    /// Days the reopening decay runs before flooring.
    pub reopening_days: f64,
    /// Intensity floor during reopening (behaviour only partially reverts).
    pub reopening_floor: f64,
    /// Residential reversion fraction applied by the demand model once
    /// reopening starts (§3.1: ISP growth falls back faster than IXPs').
    pub reversion: f64,
    /// Days over which the residential reversion saturates.
    pub reversion_days: f64,
}

impl IntensityCurve {
    /// The paper's calibration (identical to the pre-DSL constants).
    pub const fn paper() -> IntensityCurve {
        IntensityCurve {
            awareness_gain: 0.10,
            restrictions_gain: 0.30,
            stay_home_from: 0.40,
            stay_home_gain: 0.60,
            stay_home_ramp_days: 4.0,
            reopening_release: 0.55,
            reopening_days: 42.0,
            reopening_floor: 0.45,
            reversion: 0.70,
            reversion_days: 28.0,
        }
    }
}

/// The date anchors of one region's timeline, plus its intensity curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionTimeline {
    /// The region this timeline describes.
    pub region: Region,
    /// Outbreak becomes publicly salient.
    pub outbreak: Date,
    /// First closures/advisories.
    pub initial_response: Date,
    /// Stay-at-home lockdown in force.
    pub lockdown: Date,
    /// First relaxation steps.
    pub relaxation: Date,
    /// Parameters of the behavioural-intensity curve.
    pub curve: IntensityCurve,
}

impl RegionTimeline {
    /// The timeline for a region, from the paper's narrative — the shipped
    /// COVID spring-2020 calibration (see
    /// [`crate::measures::ScenarioSpec::covid_spring_2020`] for the
    /// narrative behind each date).
    pub fn for_region(region: Region) -> RegionTimeline {
        crate::measures::ScenarioSpec::covid_spring_2020()
            .region(region)
            .timeline()
    }

    /// Phase in force on a date.
    pub fn phase(&self, date: Date) -> LockdownPhase {
        if date < self.outbreak {
            LockdownPhase::PreCovid
        } else if date < self.initial_response {
            LockdownPhase::Outbreak
        } else if date < self.lockdown {
            LockdownPhase::InitialResponse
        } else if date < self.relaxation {
            LockdownPhase::Lockdown
        } else {
            LockdownPhase::Relaxation
        }
    }

    /// Behavioural stay-at-home intensity in `[0, 1]`.
    ///
    /// 0 = normal life, 1 = full lockdown compliance. Ramps linearly over
    /// the first week of each escalation and decays slowly during
    /// relaxation (the paper: "once the lockdown was further relaxed …
    /// the growth decreased to 6% for the ISP-CE but persisted for the
    /// IXP-CE", i.e. behaviour only partially reverts within the window).
    pub fn intensity(&self, date: Date) -> f64 {
        let c = &self.curve;
        match self.phase(date) {
            LockdownPhase::PreCovid => 0.0,
            LockdownPhase::Outbreak => {
                // Slow drift up to the awareness gain as awareness builds.
                let total = self.outbreak.days_until(self.initial_response) as f64;
                let done = self.outbreak.days_until(date) as f64;
                c.awareness_gain * (done / total.max(1.0)).clamp(0.0, 1.0)
            }
            LockdownPhase::InitialResponse => {
                // awareness → awareness + restrictions across the window.
                let total = self.initial_response.days_until(self.lockdown) as f64;
                let done = self.initial_response.days_until(date) as f64;
                c.awareness_gain + c.restrictions_gain * (done / total.max(1.0)).clamp(0.0, 1.0)
            }
            LockdownPhase::Lockdown => {
                // Ramp to 1.0 over the first days, then hold (the paper's
                // week-over-week jump at the lockdown is sharp).
                let done = self.lockdown.days_until(date) as f64;
                (c.stay_home_from + c.stay_home_gain * (done / c.stay_home_ramp_days))
                    .clamp(0.0, 1.0)
            }
            LockdownPhase::Relaxation => {
                // Decay from 1.0 toward the floor: much of the behaviour
                // change persists within the study window.
                let done = self.relaxation.days_until(date) as f64;
                (1.0 - c.reopening_release * (done / c.reopening_days))
                    .clamp(c.reopening_floor, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_progression_central_europe() {
        let t = RegionTimeline::for_region(Region::CentralEurope);
        assert_eq!(t.phase(Date::new(2020, 1, 15)), LockdownPhase::PreCovid);
        assert_eq!(t.phase(Date::new(2020, 2, 10)), LockdownPhase::Outbreak);
        assert_eq!(
            t.phase(Date::new(2020, 3, 10)),
            LockdownPhase::InitialResponse
        );
        assert_eq!(t.phase(Date::new(2020, 3, 25)), LockdownPhase::Lockdown);
        assert_eq!(t.phase(Date::new(2020, 5, 1)), LockdownPhase::Relaxation);
    }

    #[test]
    fn us_lockdown_trails_europe() {
        let ce = RegionTimeline::for_region(Region::CentralEurope);
        let us = RegionTimeline::for_region(Region::UsEast);
        assert!(us.lockdown > ce.lockdown);
        // Mid-April: US still in full lockdown while CE is about to relax.
        let apr25 = Date::new(2020, 4, 25);
        assert_eq!(us.phase(apr25), LockdownPhase::Lockdown);
        assert_eq!(ce.phase(apr25), LockdownPhase::Relaxation);
    }

    #[test]
    fn intensity_monotone_through_lockdown() {
        let t = RegionTimeline::for_region(Region::CentralEurope);
        let mut last = -1.0;
        let mut d = Date::new(2020, 1, 1);
        while d <= t.relaxation {
            let i = t.intensity(d);
            assert!(i >= last - 1e-9, "intensity dipped at {}", d.iso());
            assert!((0.0..=1.0).contains(&i));
            last = i;
            d = d.add_days(1);
        }
    }

    #[test]
    fn intensity_saturates_and_relaxes() {
        let t = RegionTimeline::for_region(Region::CentralEurope);
        assert_eq!(t.intensity(Date::new(2020, 1, 10)), 0.0);
        assert!((t.intensity(Date::new(2020, 4, 1)) - 1.0).abs() < 1e-9);
        let may = t.intensity(Date::new(2020, 5, 15));
        assert!(may < 1.0 && may > 0.45, "relaxation intensity = {may}");
    }

    #[test]
    fn southern_europe_locks_down_before_central() {
        let se = RegionTimeline::for_region(Region::SouthernEurope);
        let ce = RegionTimeline::for_region(Region::CentralEurope);
        assert!(se.lockdown < ce.lockdown);
    }

    #[test]
    fn intensity_is_bit_identical_to_the_pre_dsl_literals() {
        // The old hard-coded curve, kept verbatim as the safety rail.
        fn old_intensity(t: &RegionTimeline, date: Date) -> f64 {
            match t.phase(date) {
                LockdownPhase::PreCovid => 0.0,
                LockdownPhase::Outbreak => {
                    let total = t.outbreak.days_until(t.initial_response) as f64;
                    let done = t.outbreak.days_until(date) as f64;
                    0.10 * (done / total.max(1.0)).clamp(0.0, 1.0)
                }
                LockdownPhase::InitialResponse => {
                    let total = t.initial_response.days_until(t.lockdown) as f64;
                    let done = t.initial_response.days_until(date) as f64;
                    0.10 + 0.30 * (done / total.max(1.0)).clamp(0.0, 1.0)
                }
                LockdownPhase::Lockdown => {
                    let done = t.lockdown.days_until(date) as f64;
                    (0.40 + 0.60 * (done / 4.0)).clamp(0.0, 1.0)
                }
                LockdownPhase::Relaxation => {
                    let done = t.relaxation.days_until(date) as f64;
                    (1.0 - 0.55 * (done / 42.0)).clamp(0.45, 1.0)
                }
            }
        }
        for region in Region::ALL {
            let t = RegionTimeline::for_region(region);
            let mut d = Date::new(2020, 1, 1);
            while d <= Date::new(2020, 6, 30) {
                assert_eq!(
                    t.intensity(d).to_bits(),
                    old_intensity(&t, d).to_bits(),
                    "{region:?} {}",
                    d.iso()
                );
                d = d.add_days(1);
            }
        }
    }
}
