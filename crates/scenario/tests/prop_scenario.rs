//! Property tests for the scenario model's invariants: demand is always
//! positive and finite, intensity stays in [0, 1], shapes stay normalized,
//! the calendar's day types partition every date, and the scenario parser
//! answers any mangled file with a spec or a line-numbered error.

use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::time::Date;
use lockdown_scenario::apps::AppClass;
use lockdown_scenario::calendar::{day_type, DayType};
use lockdown_scenario::demand::{app_share, DemandModel};
use lockdown_scenario::diurnal::{blend, shape, DiurnalProfile};
use lockdown_scenario::edu::{EduClass, EduModel};
use lockdown_scenario::measures::ScenarioSpec;
use lockdown_topology::asn::Region;
use lockdown_topology::vantage::VantagePoint;

/// A date in the study window plus margins.
fn date(rng: &mut SplitMix) -> Date {
    Date::new(2019, 12, 15).add_days(rng.below(200) as i64)
}

fn hour(rng: &mut SplitMix) -> u8 {
    rng.below(24) as u8
}

/// Demand is finite and non-negative for every cell in the window.
#[test]
fn demand_finite_nonnegative() {
    let m = DemandModel::new();
    cases(256, |rng, _| {
        let (vp, app) = (rng.pick(&VantagePoint::ALL), rng.pick(&AppClass::ALL));
        let v = m.volume_gbps(vp, app, date(rng), hour(rng));
        assert!(v.is_finite());
        assert!(v >= 0.0);
    });
}

/// One `DayDemand`, asked for many classes and hours, answers bit for bit
/// what the one-shot forms answer — under both shipped scenarios.
#[test]
fn day_demand_equals_the_one_shot_form() {
    let outage = include_str!("../../../scenarios/hypergiant-outage.toml");
    let outage = ScenarioSpec::parse_toml(outage).expect("shipped counterfactual parses");
    for spec in [ScenarioSpec::covid_spring_2020(), outage] {
        let m = DemandModel::from_spec(&spec);
        cases(128, |rng, _| {
            let (vp, d) = (rng.pick(&VantagePoint::ALL), date(rng));
            let day = m.day(vp, d);
            assert_eq!((day.vantage(), day.date()), (vp, d));
            for _ in 0..8 {
                let (app, h) = (rng.pick(&AppClass::ALL), hour(rng));
                let bits = |x: f64| x.to_bits();
                assert_eq!(
                    bits(day.volume_gbps(app, h)),
                    bits(m.volume_gbps(vp, app, d, h))
                );
                assert_eq!(bits(day.growth(app, h)), bits(m.growth(vp, app, d, h)));
                assert_eq!(
                    bits(day.diurnal_weight(app, h)),
                    bits(m.diurnal_weight(vp, app, d, h))
                );
                assert_eq!(
                    bits(day.total_volume_gbps(h)),
                    bits(m.total_volume_gbps(vp, d, h))
                );
            }
        });
    }
}

/// Growth multipliers are positive and bounded (nothing grows 100×,
/// nothing goes negative — the clamps the paper's ±[100, 200]% range
/// presumes).
#[test]
fn growth_bounded() {
    let m = DemandModel::new();
    cases(256, |rng, _| {
        let (vp, app) = (rng.pick(&VantagePoint::ALL), rng.pick(&AppClass::ALL));
        let d = date(rng);
        let g = m.growth(vp, app, d, hour(rng));
        assert!(g > 0.0, "{vp}/{app} {d:?}: growth {g}");
        assert!(g < 6.0, "{vp}/{app} {d:?}: growth {g}");
    });
}

/// Intensity (raw and effective) stays in [0, 1], and effective never
/// exceeds raw.
#[test]
fn intensity_bounds() {
    let m = DemandModel::new();
    cases(256, |rng, _| {
        let (vp, d) = (rng.pick(&VantagePoint::ALL), date(rng));
        let raw = m.intensity(vp, d);
        let eff = m.effective_intensity(vp, d);
        assert!((0.0..=1.0).contains(&raw));
        assert!((0.0..=1.0).contains(&eff));
        assert!(eff <= raw + 1e-12);
    });
}

/// Phase timelines are monotone: intensity never decreases before the
/// relaxation date.
#[test]
fn intensity_monotone_until_relaxation() {
    cases(256, |rng, _| {
        let spec = ScenarioSpec::covid_spring_2020();
        let t = spec.region(rng.pick(&Region::ALL));
        let d = Date::new(2020, 1, 1).add_days(rng.below(120) as i64);
        if d.add_days(1) < t.reopening {
            assert!(t.intensity(d.add_days(1)) >= t.intensity(d) - 1e-12);
        }
    });
}

/// Day types partition every date (calendar totality).
#[test]
fn day_types_total() {
    cases(256, |rng, _| {
        let d = date(rng);
        let dt = day_type(d, rng.pick(&Region::ALL));
        // Weekends are weekend-typed or holiday-typed, never workdays.
        if d.weekday().is_weekend() {
            assert!(dt != DayType::Workday);
        }
    });
}

/// Blending any two profiles stays within their pointwise envelope.
#[test]
fn blend_envelope() {
    cases(256, |rng, _| {
        let (t, h) = (rng.next_f64(), hour(rng));
        for (a, b) in [
            (
                DiurnalProfile::ResidentialWorkday,
                DiurnalProfile::ResidentialLockdown,
            ),
            (DiurnalProfile::BusinessHours, DiurnalProfile::Flat),
        ] {
            let lo = shape(a, h).min(shape(b, h));
            let hi = shape(a, h).max(shape(b, h));
            let v = blend(a, b, t, h);
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    });
}

/// App shares form a probability distribution per vantage point.
#[test]
fn shares_are_distribution() {
    for vp in VantagePoint::ALL {
        let sum: f64 = AppClass::ALL.iter().map(|&a| app_share(vp, a)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for app in AppClass::ALL {
            assert!((0.0..=1.0).contains(&app_share(vp, app)));
        }
    }
}

/// EDU model: volumes and connection counts are finite and positive,
/// presence/remote stay in [0, 1].
#[test]
fn edu_model_bounds() {
    let m = EduModel::new();
    cases(256, |rng, _| {
        let (d, h) = (date(rng), hour(rng));
        assert!((0.0..=1.0).contains(&m.campus_presence(d)));
        assert!((0.0..=1.0).contains(&m.remote_activity(d)));
        let (i, e) = m.volume_gbps(d, h);
        assert!(i.is_finite() && i >= 0.0);
        assert!(e.is_finite() && e > 0.0);
        for c in EduClass::ALL {
            let n = m.daily_connections(c, d);
            assert!(n.is_finite() && n >= 0.0);
        }
    });
}

/// A mangled scenario file — a flipped byte, a truncation, a deleted or
/// duplicated line, or one shipped file's head spliced onto the other's
/// tail — parses to a spec or to an error naming a line of the input; the
/// parser never panics.
#[test]
fn parser_answers_mangled_files_with_a_line() {
    let files = [
        include_str!("../../../scenarios/covid-spring-2020.toml"),
        include_str!("../../../scenarios/hypergiant-outage.toml"),
    ];
    cases(512, |rng, _| {
        let which = rng.below(2) as usize;
        let bytes = files[which].as_bytes();
        let at = |rng: &mut SplitMix, len: usize| rng.below(len as u64 + 1) as usize;
        let text = match rng.below(4) {
            0 => {
                let mut b = bytes.to_vec();
                let i = rng.below(b.len() as u64) as usize;
                b[i] ^= 1 << rng.below(8);
                String::from_utf8_lossy(&b).into_owned()
            }
            1 => String::from_utf8_lossy(&bytes[..at(rng, bytes.len())]).into_owned(),
            2 => {
                let mut lines: Vec<&str> = files[which].lines().collect();
                let i = rng.below(lines.len() as u64) as usize;
                if rng.chance(0.5) {
                    lines.remove(i);
                } else {
                    lines.insert(i, lines[i]);
                }
                lines.join("\n")
            }
            _ => {
                let tail = files[1 - which].as_bytes();
                let mut b = bytes[..at(rng, bytes.len())].to_vec();
                b.extend_from_slice(&tail[at(rng, tail.len())..]);
                String::from_utf8_lossy(&b).into_owned()
            }
        };
        if let Err(e) = ScenarioSpec::parse_toml(&text) {
            let lines = text.lines().count().max(1);
            assert!(
                (1..=lines).contains(&e.line),
                "error line {} outside 1..={lines}: {e}",
                e.line
            );
        }
    });
}
