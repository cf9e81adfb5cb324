//! The 2020 study calendar: day types, holidays, and the exact analysis
//! weeks the paper selects.

use lockdown_flow::time::Date;
use lockdown_topology::asn::Region;

/// Classification of a civil day for traffic purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayType {
    /// Monday–Friday, not a holiday.
    Workday,
    /// Saturday/Sunday.
    Weekend,
    /// Public holiday — traffic behaves weekend-like. The paper explicitly
    /// categorizes the Easter holidays (April 10–13) as weekend days (§4).
    Holiday,
}

impl DayType {
    /// Whether traffic on this day follows the weekend regime.
    pub fn is_weekend_like(self) -> bool {
        !matches!(self, DayType::Workday)
    }
}

/// First day of the study window (the paper's plots start Jan 1).
pub fn study_start() -> Date {
    Date::new(2020, 1, 1)
}

/// Public holidays observed in the study regions during the window.
///
/// Only holidays that shape the paper's figures are modelled: the New Year
/// period (the "Christmas holiday effect" that makes week 1 unusable as a
/// baseline) and Easter (categorized as weekend days in §4's ISP analysis;
/// visible as a shaded break in Fig. 12).
pub(crate) fn is_holiday(date: Date, region: Region) -> bool {
    const fn day(month: u8, day: u8) -> Date {
        Date {
            year: 2020,
            month,
            day,
        }
    }
    // New Year / Christmas-break tail: Jan 1–6 (Epiphany Jan 6 is a holiday
    // in parts of Central and Southern Europe; US only Jan 1).
    const NEW_YEAR: Date = day(1, 1);
    const EPIPHANY: Date = day(1, 6);
    // Easter 2020: Good Friday Apr 10 – Easter Monday Apr 13 (Europe).
    // The US markets do not observe Easter Monday.
    const GOOD_FRIDAY: Date = day(4, 10);
    const EASTER_SUNDAY: Date = day(4, 12);
    const EASTER_MONDAY: Date = day(4, 13);

    let (new_year_end, easter_end) = match region {
        Region::UsEast => (NEW_YEAR, EASTER_SUNDAY),
        _ => (EPIPHANY, EASTER_MONDAY),
    };
    (NEW_YEAR..=new_year_end).contains(&date) || (GOOD_FRIDAY..=easter_end).contains(&date)
}

/// Day type of a date in a region.
pub fn day_type(date: Date, region: Region) -> DayType {
    if is_holiday(date, region) {
        DayType::Holiday
    } else if date.weekday().is_weekend() {
        DayType::Weekend
    } else {
        DayType::Workday
    }
}

/// One of the paper's selected analysis weeks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalysisWeek {
    /// The paper's name for the week ("base", "stage1", …).
    pub label: &'static str,
    /// First day of the 7-day window.
    pub start: Date,
}

impl AnalysisWeek {
    /// The 7 dates of this week, starting at `start`.
    pub fn dates(&self) -> Vec<Date> {
        (0..7).map(|i| self.start.add_days(i)).collect()
    }

    /// Inclusive end date.
    pub fn end(&self) -> Date {
        self.start.add_days(6)
    }
}

/// Fig. 3 week selection: "February 19–26 … March 18–25 … April 23–29 …
/// May 10–17" (base / stage 1 / stage 2 / stage 3). The figure legends for
/// the ISP run Thu–Wed starting Feb 19 (a Wednesday); we anchor each week
/// at the paper's first named day.
pub const FIG3_WEEKS: [AnalysisWeek; 4] = [
    AnalysisWeek {
        label: "base",
        start: Date {
            year: 2020,
            month: 2,
            day: 19,
        },
    },
    AnalysisWeek {
        label: "stage1",
        start: Date {
            year: 2020,
            month: 3,
            day: 18,
        },
    },
    AnalysisWeek {
        label: "stage2",
        start: Date {
            year: 2020,
            month: 4,
            day: 22,
        },
    },
    AnalysisWeek {
        label: "stage3",
        start: Date {
            year: 2020,
            month: 5,
            day: 10,
        },
    },
];

/// §4 port-analysis weeks at the ISP-CE: Feb 20–26, Mar 19–25, Apr 9–15.
pub const PORTS_ISP_WEEKS: [AnalysisWeek; 3] = [
    AnalysisWeek {
        label: "february",
        start: Date {
            year: 2020,
            month: 2,
            day: 20,
        },
    },
    AnalysisWeek {
        label: "march",
        start: Date {
            year: 2020,
            month: 3,
            day: 19,
        },
    },
    AnalysisWeek {
        label: "april",
        start: Date {
            year: 2020,
            month: 4,
            day: 9,
        },
    },
];

/// §4/§5 weeks at the IXPs: Feb 20–26, Mar 19–25 (§5 uses Mar 12), Apr 23–29.
pub const PORTS_IXP_WEEKS: [AnalysisWeek; 3] = [
    AnalysisWeek {
        label: "february",
        start: Date {
            year: 2020,
            month: 2,
            day: 20,
        },
    },
    AnalysisWeek {
        label: "march",
        start: Date {
            year: 2020,
            month: 3,
            day: 19,
        },
    },
    AnalysisWeek {
        label: "april",
        start: Date {
            year: 2020,
            month: 4,
            day: 23,
        },
    },
];

/// §5 application-class weeks for the IXPs: "Feb 20, Mar 12, Apr 23".
pub const APPCLASS_IXP_WEEKS: [AnalysisWeek; 3] = [
    AnalysisWeek {
        label: "base",
        start: Date {
            year: 2020,
            month: 2,
            day: 20,
        },
    },
    AnalysisWeek {
        label: "stage1",
        start: Date {
            year: 2020,
            month: 3,
            day: 12,
        },
    },
    AnalysisWeek {
        label: "stage2",
        start: Date {
            year: 2020,
            month: 4,
            day: 23,
        },
    },
];

/// §5 application-class weeks for the ISP: "Feb 20, Mar 19, Apr 9".
pub const APPCLASS_ISP_WEEKS: [AnalysisWeek; 3] = [
    AnalysisWeek {
        label: "base",
        start: Date {
            year: 2020,
            month: 2,
            day: 20,
        },
    },
    AnalysisWeek {
        label: "stage1",
        start: Date {
            year: 2020,
            month: 3,
            day: 19,
        },
    },
    AnalysisWeek {
        label: "stage2",
        start: Date {
            year: 2020,
            month: 4,
            day: 9,
        },
    },
];

/// §7 EDU weeks: baseline Feb 27–Mar 4, transition Mar 12–18,
/// online-lecturing Apr 16–22.
pub const EDU_WEEKS: [AnalysisWeek; 3] = [
    AnalysisWeek {
        label: "base",
        start: Date {
            year: 2020,
            month: 2,
            day: 27,
        },
    },
    AnalysisWeek {
        label: "transition",
        start: Date {
            year: 2020,
            month: 3,
            day: 12,
        },
    },
    AnalysisWeek {
        label: "online-lecturing",
        start: Date {
            year: 2020,
            month: 4,
            day: 16,
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::time::Weekday;

    #[test]
    fn easter_is_holiday_in_europe() {
        for d in [10, 11, 12, 13] {
            assert_eq!(
                day_type(Date::new(2020, 4, d), Region::CentralEurope),
                DayType::Holiday
            );
        }
        // Easter Monday is a workday in the US model.
        assert_eq!(
            day_type(Date::new(2020, 4, 13), Region::UsEast),
            DayType::Workday
        );
    }

    #[test]
    fn ordinary_days() {
        assert_eq!(
            day_type(Date::new(2020, 2, 19), Region::CentralEurope),
            DayType::Workday
        );
        assert_eq!(
            day_type(Date::new(2020, 2, 22), Region::CentralEurope),
            DayType::Weekend
        );
    }

    #[test]
    fn new_year_week() {
        assert_eq!(
            day_type(Date::new(2020, 1, 1), Region::UsEast),
            DayType::Holiday
        );
        assert_eq!(
            day_type(Date::new(2020, 1, 6), Region::SouthernEurope),
            DayType::Holiday
        );
        assert_eq!(
            day_type(Date::new(2020, 1, 6), Region::UsEast),
            DayType::Workday // Monday, not a US holiday
        );
    }

    #[test]
    fn weekend_like() {
        assert!(DayType::Holiday.is_weekend_like());
        assert!(DayType::Weekend.is_weekend_like());
        assert!(!DayType::Workday.is_weekend_like());
    }

    #[test]
    fn analysis_week_shape() {
        let w = FIG3_WEEKS[0];
        assert_eq!(w.label, "base");
        assert_eq!(w.start.weekday(), Weekday::Wednesday);
        assert_eq!(w.dates().len(), 7);
        assert_eq!(w.end(), Date::new(2020, 2, 25)); // Feb 19 + 6
    }

    #[test]
    fn edu_weeks_match_paper() {
        assert_eq!(EDU_WEEKS[0].start, Date::new(2020, 2, 27));
        assert_eq!(EDU_WEEKS[1].end(), Date::new(2020, 3, 18));
        assert_eq!(EDU_WEEKS[2].start, Date::new(2020, 4, 16));
    }
}
