//! Diurnal (hour-of-day) traffic shape profiles.
//!
//! The paper's core observation about *patterns* (Fig. 2, Fig. 3a): workday
//! residential traffic peaks in the evening; weekend traffic "gains
//! significant momentum at about 9 to 10 am already"; under lockdown,
//! workdays morph into a weekend-like shape with a strong morning rise, a
//! small lunch dip, and an unchanged evening peak. These shapes are encoded
//! as 24-bucket profiles normalized to mean 1.0, plus a blending operator
//! the demand model uses to morph workdays toward the lockdown shape as
//! stay-at-home intensity rises.

/// A named hour-of-day profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiurnalProfile {
    /// Pre-pandemic residential workday: quiet day, evening peak 20–22h.
    ResidentialWorkday,
    /// Residential weekend: activity from 9–10 am, sustained, evening peak.
    ResidentialWeekend,
    /// Lockdown workday at a residential network: weekend-like morning
    /// rise, small lunch dip, evening peak (Fig. 2a, Mar 25).
    ResidentialLockdown,
    /// Business traffic: 9–17h plateau with a lunch dip.
    BusinessHours,
    /// On-campus educational network: teaching-hours heavy.
    Campus,
    /// Entertainment (VoD/TV): strongly evening-centric.
    EveningEntertainment,
    /// Gaming, pre-pandemic: after-school/evening heavy.
    GamingEvening,
    /// Flat profile (infrastructure chatter, e.g. Cloudflare LB probes).
    Flat,
    /// Overseas access into the EDU network (Latin-American time zones,
    /// §7: "peak from midnight until 7 am, peak hours are 3 and 4 am").
    OverseasNight,
}

/// Raw (un-normalized) 24-hour templates. Values are relative weights;
/// [`shape`] normalizes them to mean 1.0 at compile-time-fixed precision.
fn template(profile: DiurnalProfile) -> [f64; 24] {
    match profile {
        // Hours:            0    1    2    3    4    5    6    7    8    9   10   11   12   13   14   15   16   17   18   19   20   21   22   23
        DiurnalProfile::ResidentialWorkday => [
            0.45, 0.32, 0.25, 0.22, 0.20, 0.22, 0.30, 0.42, 0.52, 0.58, 0.62, 0.66, 0.68, 0.66,
            0.68, 0.72, 0.82, 0.98, 1.18, 1.42, 1.62, 1.68, 1.40, 0.90,
        ],
        DiurnalProfile::ResidentialWeekend => [
            0.55, 0.40, 0.30, 0.25, 0.22, 0.22, 0.26, 0.36, 0.55, 0.85, 1.05, 1.15, 1.18, 1.12,
            1.10, 1.12, 1.18, 1.25, 1.35, 1.50, 1.62, 1.65, 1.40, 0.95,
        ],
        DiurnalProfile::ResidentialLockdown => [
            0.55, 0.40, 0.30, 0.25, 0.22, 0.24, 0.30, 0.48, 0.80, 1.08, 1.22, 1.26, 1.15, 1.20,
            1.25, 1.28, 1.30, 1.32, 1.38, 1.50, 1.62, 1.66, 1.42, 0.98,
        ],
        DiurnalProfile::BusinessHours => [
            0.25, 0.20, 0.18, 0.18, 0.18, 0.22, 0.35, 0.65, 1.20, 1.75, 1.90, 1.85, 1.45, 1.65,
            1.85, 1.80, 1.60, 1.25, 0.85, 0.60, 0.50, 0.45, 0.38, 0.30,
        ],
        DiurnalProfile::Campus => [
            0.12, 0.10, 0.08, 0.08, 0.08, 0.10, 0.25, 0.70, 1.40, 1.95, 2.10, 2.05, 1.70, 1.80,
            2.00, 1.95, 1.75, 1.45, 1.05, 0.70, 0.45, 0.30, 0.20, 0.15,
        ],
        DiurnalProfile::EveningEntertainment => [
            0.50, 0.32, 0.22, 0.18, 0.15, 0.15, 0.18, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.75,
            0.78, 0.85, 1.00, 1.25, 1.60, 2.00, 2.30, 2.25, 1.75, 1.00,
        ],
        DiurnalProfile::GamingEvening => [
            0.60, 0.40, 0.25, 0.18, 0.15, 0.15, 0.18, 0.25, 0.40, 0.55, 0.70, 0.85, 0.95, 1.00,
            1.10, 1.25, 1.50, 1.75, 1.95, 2.05, 2.00, 1.80, 1.40, 0.90,
        ],
        DiurnalProfile::Flat => [1.0; 24],
        DiurnalProfile::OverseasNight => [
            1.90, 1.95, 2.00, 2.10, 2.10, 1.95, 1.70, 1.30, 0.80, 0.50, 0.40, 0.35, 0.35, 0.40,
            0.45, 0.50, 0.60, 0.80, 1.00, 1.15, 1.25, 1.35, 1.55, 1.75,
        ],
    }
}

/// The profile's weight at a given hour, normalized so the 24-hour mean of
/// every profile is exactly 1.0 (volume scaling stays orthogonal to shape).
pub fn shape(profile: DiurnalProfile, hour: u8) -> f64 {
    assert!(hour < 24, "hour out of range: {hour}");
    let t = template(profile);
    let mean: f64 = t.iter().sum::<f64>() / 24.0;
    t[hour as usize] / mean
}

/// Linear blend of two profiles at one hour: `(1-t)·a + t·b` with
/// `t ∈ [0, 1]`. Used to morph workday shapes toward the lockdown shape as
/// stay-at-home intensity rises.
pub fn blend(a: DiurnalProfile, b: DiurnalProfile, t: f64, hour: u8) -> f64 {
    let t = t.clamp(0.0, 1.0);
    (1.0 - t) * shape(a, hour) + t * shape(b, hour)
}

/// Hour of the evening peak for a profile (argmax of the template).
pub fn peak_hour(profile: DiurnalProfile) -> u8 {
    let t = template(profile);
    let mut best = 0usize;
    for h in 1..24 {
        if t[h] > t[best] {
            best = h;
        }
    }
    best as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [DiurnalProfile; 9] = [
        DiurnalProfile::ResidentialWorkday,
        DiurnalProfile::ResidentialWeekend,
        DiurnalProfile::ResidentialLockdown,
        DiurnalProfile::BusinessHours,
        DiurnalProfile::Campus,
        DiurnalProfile::EveningEntertainment,
        DiurnalProfile::GamingEvening,
        DiurnalProfile::Flat,
        DiurnalProfile::OverseasNight,
    ];

    #[test]
    fn all_profiles_mean_one() {
        for p in ALL {
            let mean: f64 = (0..24).map(|h| shape(p, h)).sum::<f64>() / 24.0;
            assert!((mean - 1.0).abs() < 1e-12, "{p:?} mean = {mean}");
        }
    }

    #[test]
    fn workday_peaks_in_evening() {
        let peak = peak_hour(DiurnalProfile::ResidentialWorkday);
        assert!((20..=22).contains(&peak), "peak at {peak}");
    }

    #[test]
    fn weekend_has_morning_momentum() {
        // Fig. 2: weekend pattern "gains significant momentum at about
        // 9 to 10 am" — 10 am weekend level far exceeds workday 10 am.
        let wd = shape(DiurnalProfile::ResidentialWorkday, 10);
        let we = shape(DiurnalProfile::ResidentialWeekend, 10);
        assert!(we > 1.3 * wd, "weekend {we} vs workday {wd}");
    }

    #[test]
    fn lockdown_shape_is_weekend_like_with_lunch_dip() {
        let l = DiurnalProfile::ResidentialLockdown;
        // Morning rise like a weekend.
        assert!(shape(l, 10) > 1.0);
        // Small dip at lunch relative to its neighbours (Fig. 3a narrative:
        // "a small dip at lunchtime").
        assert!(shape(l, 12) < shape(l, 11));
        assert!(shape(l, 12) < shape(l, 14));
        // Evening still spikes.
        assert!(shape(l, 21) > shape(l, 12));
    }

    #[test]
    fn business_hours_daytime_heavy() {
        let b = DiurnalProfile::BusinessHours;
        assert!(shape(b, 10) > 2.0 * shape(b, 21));
        assert!(shape(b, 12) < shape(b, 10), "lunch dip expected");
    }

    #[test]
    fn overseas_peaks_at_night() {
        let p = peak_hour(DiurnalProfile::OverseasNight);
        assert!(p <= 7, "overseas peak at {p}, expected small hours");
    }

    #[test]
    fn blend_endpoints_and_midpoint() {
        let a = DiurnalProfile::ResidentialWorkday;
        let b = DiurnalProfile::ResidentialLockdown;
        for h in 0..24u8 {
            assert!((blend(a, b, 0.0, h) - shape(a, h)).abs() < 1e-12);
            assert!((blend(a, b, 1.0, h) - shape(b, h)).abs() < 1e-12);
            let mid = blend(a, b, 0.5, h);
            let (lo, hi) = (shape(a, h).min(shape(b, h)), shape(a, h).max(shape(b, h)));
            assert!(mid >= lo - 1e-12 && mid <= hi + 1e-12);
        }
    }

    #[test]
    fn blend_clamps_t() {
        let a = DiurnalProfile::Flat;
        let b = DiurnalProfile::BusinessHours;
        assert_eq!(blend(a, b, -3.0, 10), shape(a, 10));
        assert_eq!(blend(a, b, 9.0, 10), shape(b, 10));
    }

    #[test]
    #[should_panic(expected = "hour out of range")]
    fn bad_hour_panics() {
        shape(DiurnalProfile::Flat, 24);
    }
}
