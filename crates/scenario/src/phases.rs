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
//! This module is an *interpreter*: the dates and curve parameters are a
//! scenario file's [`RegionMeasures`], and the methods here evaluate the
//! piecewise intensity curve they describe.

use crate::measures::RegionMeasures;
use lockdown_flow::time::Date;

/// Coarse phase of the pandemic response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LockdownPhase {
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

impl RegionMeasures {
    /// Phase in force on a date.
    pub(crate) fn phase(&self, date: Date) -> LockdownPhase {
        if date < self.awareness {
            LockdownPhase::PreCovid
        } else if date < self.restrictions {
            LockdownPhase::Outbreak
        } else if date < self.stay_home {
            LockdownPhase::InitialResponse
        } else if date < self.reopening {
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
        match self.phase(date) {
            LockdownPhase::PreCovid => 0.0,
            LockdownPhase::Outbreak => {
                // Slow drift up to the awareness gain as awareness builds.
                let total = self.awareness.days_until(self.restrictions) as f64;
                let done = self.awareness.days_until(date) as f64;
                self.awareness_gain * (done / total.max(1.0)).clamp(0.0, 1.0)
            }
            LockdownPhase::InitialResponse => {
                // awareness → awareness + restrictions across the window.
                let total = self.restrictions.days_until(self.stay_home) as f64;
                let done = self.restrictions.days_until(date) as f64;
                self.awareness_gain
                    + self.restrictions_gain * (done / total.max(1.0)).clamp(0.0, 1.0)
            }
            LockdownPhase::Lockdown => {
                // Ramp to 1.0 over the first days, then hold (the paper's
                // week-over-week jump at the lockdown is sharp).
                let done = self.stay_home.days_until(date) as f64;
                (self.stay_home_from + self.stay_home_gain * (done / self.stay_home_ramp_days))
                    .clamp(0.0, 1.0)
            }
            LockdownPhase::Relaxation => {
                // Decay from 1.0 toward the floor: much of the behaviour
                // change persists within the study window.
                let done = self.reopening.days_until(date) as f64;
                (1.0 - self.reopening_release * (done / self.reopening_days))
                    .clamp(self.reopening_floor, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::ScenarioSpec;
    use lockdown_topology::asn::Region;

    fn measures(region: Region) -> RegionMeasures {
        *ScenarioSpec::covid_spring_2020().region(region)
    }

    #[test]
    fn phase_progression_central_europe() {
        let t = measures(Region::CentralEurope);
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
        let ce = measures(Region::CentralEurope);
        let us = measures(Region::UsEast);
        assert!(us.stay_home > ce.stay_home);
        // Mid-April: US still in full lockdown while CE is about to relax.
        let apr25 = Date::new(2020, 4, 25);
        assert_eq!(us.phase(apr25), LockdownPhase::Lockdown);
        assert_eq!(ce.phase(apr25), LockdownPhase::Relaxation);
    }

    #[test]
    fn intensity_monotone_through_lockdown() {
        let t = measures(Region::CentralEurope);
        let mut last = -1.0;
        let mut d = Date::new(2020, 1, 1);
        while d <= t.reopening {
            let i = t.intensity(d);
            assert!(i >= last - 1e-9, "intensity dipped at {}", d.iso());
            assert!((0.0..=1.0).contains(&i));
            last = i;
            d = d.add_days(1);
        }
    }

    #[test]
    fn intensity_saturates_and_relaxes() {
        let t = measures(Region::CentralEurope);
        assert_eq!(t.intensity(Date::new(2020, 1, 10)), 0.0);
        assert!((t.intensity(Date::new(2020, 4, 1)) - 1.0).abs() < 1e-9);
        let may = t.intensity(Date::new(2020, 5, 15));
        assert!(may < 1.0 && may > 0.45, "relaxation intensity = {may}");
    }

    #[test]
    fn southern_europe_locks_down_before_central() {
        let se = measures(Region::SouthernEurope);
        let ce = measures(Region::CentralEurope);
        assert!(se.stay_home < ce.stay_home);
    }

    #[test]
    fn intensity_is_bit_identical_to_the_pre_dsl_literals() {
        // The old hard-coded curve, kept verbatim as the safety rail.
        fn old_intensity(t: &RegionMeasures, date: Date) -> f64 {
            match t.phase(date) {
                LockdownPhase::PreCovid => 0.0,
                LockdownPhase::Outbreak => {
                    let total = t.awareness.days_until(t.restrictions) as f64;
                    let done = t.awareness.days_until(date) as f64;
                    0.10 * (done / total.max(1.0)).clamp(0.0, 1.0)
                }
                LockdownPhase::InitialResponse => {
                    let total = t.restrictions.days_until(t.stay_home) as f64;
                    let done = t.restrictions.days_until(date) as f64;
                    0.10 + 0.30 * (done / total.max(1.0)).clamp(0.0, 1.0)
                }
                LockdownPhase::Lockdown => {
                    let done = t.stay_home.days_until(date) as f64;
                    (0.40 + 0.60 * (done / 4.0)).clamp(0.0, 1.0)
                }
                LockdownPhase::Relaxation => {
                    let done = t.reopening.days_until(date) as f64;
                    (1.0 - 0.55 * (done / 42.0)).clamp(0.45, 1.0)
                }
            }
        }
        for region in Region::ALL {
            let t = measures(region);
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
