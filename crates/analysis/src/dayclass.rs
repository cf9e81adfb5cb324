//! The workday-like / weekend-like day classifier (Fig. 2b, 2c).
//!
//! From §1: "we call a traffic pattern a *workday pattern* if the traffic
//! spikes in the evening hours and a *weekend pattern* if its main activity
//! gains significant momentum at about 9 to 10 am … For our classification,
//! we use baseline data from Feb 2020 at the aggregation level of 6 hours.
//! Then we apply this classification to all days."
//!
//! Implementation: each day is reduced to its four 6-hour volume shares
//! (00–06, 06–12, 12–18, 18–24). The February baseline yields a workday
//! centroid and a weekend centroid; a day is classified by the nearer
//! centroid (Euclidean distance on shares). The 6-hour granularity is the
//! paper's choice; the `ablation_dayclass_granularity` bench compares it
//! against 1-, 2-, 3-, 4-, 8- and 12-hour variants.

use crate::timeseries::HourlyVolume;
use lockdown_flow::time::Date;
use lockdown_scenario::calendar::{day_type, DayType};
use lockdown_topology::asn::Region;

/// Classifier verdict for one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayPattern {
    /// Evening-peaked: a pre-pandemic working day.
    WorkdayLike,
    /// Morning-momentum: a weekend (or a lockdown workday).
    WeekendLike,
}

/// One classified day, with the ground-truth calendar day type so the
/// Fig. 2b/2c match/mismatch coloring can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifiedDay {
    /// The date.
    pub date: Date,
    /// Classifier verdict.
    pub pattern: DayPattern,
    /// Calendar day type (workday/weekend/holiday).
    pub calendar: DayType,
    /// Normalized total volume that day (units chosen by the caller).
    pub volume: f64,
}

impl ClassifiedDay {
    /// Whether the verdict matches the calendar (blue vs. orange bars in
    /// Fig. 2b/2c). Holidays count as weekend days, per §4.
    pub(crate) fn matches_calendar(&self) -> bool {
        match self.pattern {
            DayPattern::WorkdayLike => self.calendar == DayType::Workday,
            DayPattern::WeekendLike => self.calendar.is_weekend_like(),
        }
    }
}

/// A day reduced to its `buckets` coarse volume shares (summing to 1).
fn day_shares(volume: &HourlyVolume, date: Date, buckets: usize) -> Option<Vec<f64>> {
    assert!(
        buckets > 0 && 24 % buckets == 0,
        "bucket count must divide 24"
    );
    let span = 24 / buckets;
    let profile = volume.day_profile(date);
    let total: u64 = profile.iter().sum();
    if total == 0 {
        return None;
    }
    Some(
        (0..buckets)
            .map(|b| {
                let sum: u64 = profile[b * span..(b + 1) * span].iter().sum();
                sum as f64 / total as f64
            })
            .collect(),
    )
}

fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The trained classifier.
#[derive(Debug, Clone)]
pub struct DayClassifier {
    workday_centroid: Vec<f64>,
    weekend_centroid: Vec<f64>,
    buckets: usize,
    region: Region,
}

impl DayClassifier {
    /// The paper's aggregation level.
    pub(crate) const PAPER_BUCKETS: usize = 4; // 24h / 6h

    /// Train from February baseline data at the paper's 6-hour level.
    pub fn train_february(volume: &HourlyVolume, region: Region) -> DayClassifier {
        Self::train(
            volume,
            region,
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 29),
            Self::PAPER_BUCKETS,
        )
    }

    /// Train from an arbitrary baseline window and bucket count (the
    /// ablation bench varies `buckets`).
    pub(crate) fn train(
        volume: &HourlyVolume,
        region: Region,
        start: Date,
        end: Date,
        buckets: usize,
    ) -> DayClassifier {
        let mut workday: Vec<Vec<f64>> = Vec::new();
        let mut weekend: Vec<Vec<f64>> = Vec::new();
        for date in start.range_inclusive(end) {
            let Some(shares) = day_shares(volume, date, buckets) else {
                continue;
            };
            match day_type(date, region) {
                DayType::Workday => workday.push(shares),
                _ => weekend.push(shares),
            }
        }
        assert!(
            !workday.is_empty() && !weekend.is_empty(),
            "baseline window must contain both workdays and weekends with traffic"
        );
        DayClassifier {
            workday_centroid: centroid(&workday),
            weekend_centroid: centroid(&weekend),
            buckets,
            region,
        }
    }

    /// Classify one day; `None` if the day carries no traffic.
    pub fn classify(&self, volume: &HourlyVolume, date: Date) -> Option<DayPattern> {
        let shares = day_shares(volume, date, self.buckets)?;
        let dw = distance(&shares, &self.workday_centroid);
        let de = distance(&shares, &self.weekend_centroid);
        Some(if dw <= de {
            DayPattern::WorkdayLike
        } else {
            DayPattern::WeekendLike
        })
    }

    /// Classify an inclusive range, normalizing volumes by the range max
    /// (the Fig. 2b/2c presentation).
    pub fn classify_range(
        &self,
        volume: &HourlyVolume,
        start: Date,
        end: Date,
    ) -> Vec<ClassifiedDay> {
        let max = start
            .range_inclusive(end)
            .map(|d| volume.daily_total(d))
            .max()
            .unwrap_or(0)
            .max(1) as f64;
        start
            .range_inclusive(end)
            .filter_map(|date| {
                self.classify(volume, date).map(|pattern| ClassifiedDay {
                    date,
                    pattern,
                    calendar: day_type(date, self.region),
                    volume: volume.daily_total(date) as f64 / max,
                })
            })
            .collect()
    }
}

fn centroid(rows: &[Vec<f64>]) -> Vec<f64> {
    let dims = rows[0].len();
    let mut out = vec![0.0; dims];
    for row in rows {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    for o in &mut out {
        *o /= rows.len() as f64;
    }
    out
}

/// Summary of a classified range: how many days landed in each verdict,
/// and how many match the calendar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassificationSummary {
    /// Days classified workday-like.
    pub workday_like: usize,
    /// Days classified weekend-like.
    pub weekend_like: usize,
    /// Days whose verdict matches the calendar.
    pub matches: usize,
    /// Days whose verdict contradicts the calendar.
    pub mismatches: usize,
}

impl ClassificationSummary {
    /// Summarize classified days.
    pub fn of(days: &[ClassifiedDay]) -> ClassificationSummary {
        let mut s = ClassificationSummary::default();
        for d in days {
            match d.pattern {
                DayPattern::WorkdayLike => s.workday_like += 1,
                DayPattern::WeekendLike => s.weekend_like += 1,
            }
            if d.matches_calendar() {
                s.matches += 1;
            } else {
                s.mismatches += 1;
            }
        }
        s
    }

    /// Fraction of days matching the calendar.
    pub fn accuracy(&self) -> f64 {
        let total = self.matches + self.mismatches;
        if total == 0 {
            0.0
        } else {
            self.matches as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_scenario::diurnal::{shape, DiurnalProfile};

    /// Build synthetic hourly volume following a diurnal profile per day.
    fn synthetic(start: Date, end: Date, pick: impl Fn(Date) -> DiurnalProfile) -> HourlyVolume {
        let mut v = HourlyVolume::new();
        for date in start.range_inclusive(end) {
            let p = pick(date);
            for h in 0..24u8 {
                v.add_bytes(date.at_hour(h), (shape(p, h) * 1e9) as u64);
            }
        }
        v
    }

    fn calendar_profiles(date: Date) -> DiurnalProfile {
        if day_type(date, Region::CentralEurope).is_weekend_like() {
            DiurnalProfile::ResidentialWeekend
        } else {
            DiurnalProfile::ResidentialWorkday
        }
    }

    #[test]
    fn classifies_clean_february_perfectly() {
        let v = synthetic(
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 29),
            calendar_profiles,
        );
        let c = DayClassifier::train_february(&v, Region::CentralEurope);
        let days = c.classify_range(&v, Date::new(2020, 2, 1), Date::new(2020, 2, 29));
        let s = ClassificationSummary::of(&days);
        assert_eq!(s.mismatches, 0, "clean data must classify perfectly");
        assert!(s.workday_like >= 20);
    }

    #[test]
    fn lockdown_days_become_weekend_like() {
        // February: normal. From Mar 16: every day follows the lockdown
        // profile. The classifier (trained on Feb) must flag lockdown
        // workdays as weekend-like — the Fig. 2 result.
        let v = synthetic(Date::new(2020, 2, 1), Date::new(2020, 4, 30), |d| {
            if d >= Date::new(2020, 3, 16) {
                DiurnalProfile::ResidentialLockdown
            } else {
                calendar_profiles(d)
            }
        });
        let c = DayClassifier::train_february(&v, Region::CentralEurope);
        let april = c.classify_range(&v, Date::new(2020, 4, 1), Date::new(2020, 4, 30));
        let weekend_like = april
            .iter()
            .filter(|d| d.pattern == DayPattern::WeekendLike)
            .count();
        assert_eq!(weekend_like, april.len(), "all lockdown days weekend-like");
        // Workdays now mismatch the calendar (the orange bars).
        let mismatched_workdays = april
            .iter()
            .filter(|d| d.calendar == DayType::Workday && !d.matches_calendar())
            .count();
        assert!(mismatched_workdays >= 18);
    }

    #[test]
    fn empty_days_are_skipped() {
        let v = synthetic(
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 29),
            calendar_profiles,
        );
        let c = DayClassifier::train_february(&v, Region::CentralEurope);
        assert_eq!(c.classify(&v, Date::new(2020, 6, 1)), None);
        let days = c.classify_range(&v, Date::new(2020, 5, 30), Date::new(2020, 6, 2));
        assert!(days.is_empty());
    }

    #[test]
    fn volumes_normalized_to_range_max() {
        let v = synthetic(
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 29),
            calendar_profiles,
        );
        let c = DayClassifier::train_february(&v, Region::CentralEurope);
        let days = c.classify_range(&v, Date::new(2020, 2, 1), Date::new(2020, 2, 29));
        let max = days.iter().map(|d| d.volume).fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        assert!(days.iter().all(|d| d.volume > 0.0 && d.volume <= 1.0));
    }

    #[test]
    fn ablation_granularities_all_work() {
        let v = synthetic(
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 29),
            calendar_profiles,
        );
        for buckets in [2usize, 3, 4, 6, 8, 12, 24] {
            let c = DayClassifier::train(
                &v,
                Region::CentralEurope,
                Date::new(2020, 2, 1),
                Date::new(2020, 2, 29),
                buckets,
            );
            let days = c.classify_range(&v, Date::new(2020, 2, 1), Date::new(2020, 2, 29));
            let s = ClassificationSummary::of(&days);
            assert!(
                s.accuracy() > 0.9,
                "buckets={buckets}: accuracy {}",
                s.accuracy()
            );
        }
    }

    #[test]
    #[should_panic(expected = "divide 24")]
    fn invalid_bucket_count_panics() {
        let v = synthetic(
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 29),
            calendar_profiles,
        );
        DayClassifier::train(
            &v,
            Region::CentralEurope,
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 29),
            5,
        );
    }

    #[test]
    fn summary_counts() {
        let days = vec![
            ClassifiedDay {
                date: Date::new(2020, 2, 3),
                pattern: DayPattern::WorkdayLike,
                calendar: DayType::Workday,
                volume: 1.0,
            },
            ClassifiedDay {
                date: Date::new(2020, 2, 8),
                pattern: DayPattern::WorkdayLike,
                calendar: DayType::Weekend,
                volume: 0.8,
            },
        ];
        let s = ClassificationSummary::of(&days);
        assert_eq!(s.workday_like, 2);
        assert_eq!(s.matches, 1);
        assert_eq!(s.accuracy(), 0.5);
        assert!(!days[1].matches_calendar());
    }
}
