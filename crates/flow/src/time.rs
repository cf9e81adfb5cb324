//! Minimal civil-time substrate.
//!
//! Flow records carry Unix timestamps and the paper's analyses are organized
//! around civil dates in 2020 (ISO weeks, workdays vs. weekends, specific
//! lockdown dates). No external date crate is in the approved dependency
//! set, so this module implements the small amount of proleptic-Gregorian
//! calendar arithmetic the pipeline needs. The conversion algorithms are the
//! classic `days_from_civil`/`civil_from_days` routines (Howard Hinnant's
//! public-domain derivation), which are exact for the full `i64` day range.
//!
//! All times in this workspace are UTC; the paper's vantage points span time
//! zones but its plots are drawn in local time per vantage point, which the
//! scenario layer models by shifting demand curves, not by carrying zone
//! data in timestamps.

/// Seconds in one hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds in one civil day.
pub(crate) const SECS_PER_DAY: u64 = 86_400;

/// A Unix timestamp (seconds since 1970-01-01T00:00:00Z).
///
/// Wrapped in a newtype so that flow timestamps, durations and bucket
/// indices cannot be mixed up silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Construct from raw Unix seconds.
    pub const fn from_unix(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Raw Unix seconds.
    pub const fn unix(self) -> u64 {
        self.0
    }

    /// Whole days since the Unix epoch — [`Date::day_number`] of
    /// [`Timestamp::date`] without the trip through the civil calendar.
    pub(crate) const fn day_number(self) -> i64 {
        (self.0 / SECS_PER_DAY) as i64
    }

    /// The civil date (UTC) containing this instant.
    pub fn date(self) -> Date {
        Date::from_day_number(self.day_number())
    }

    /// Hour of day in `0..24`.
    pub fn hour(self) -> u8 {
        ((self.0 % SECS_PER_DAY) / SECS_PER_HOUR) as u8
    }

    /// This instant truncated down to the start of its hour.
    pub fn floor_hour(self) -> Timestamp {
        Timestamp(self.0 - self.0 % SECS_PER_HOUR)
    }

    /// Add a whole number of seconds.
    pub const fn add_secs(self, secs: u64) -> Timestamp {
        Timestamp(self.0 + secs)
    }

    /// Add a whole number of hours.
    pub const fn add_hours(self, hours: u64) -> Timestamp {
        Timestamp(self.0 + hours * SECS_PER_HOUR)
    }
}

/// Day of the week. `Monday` is day 0 so that ISO week arithmetic is direct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the seven variants are self-describing
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// From an index where Monday = 0 … Sunday = 6.
    pub(crate) fn from_monday0(idx: u8) -> Weekday {
        use Weekday::*;
        match idx % 7 {
            0 => Monday,
            1 => Tuesday,
            2 => Wednesday,
            3 => Thursday,
            4 => Friday,
            5 => Saturday,
            _ => Sunday,
        }
    }

    /// Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

/// A proleptic-Gregorian civil date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Gregorian year.
    pub year: i32,
    /// 1-based month.
    pub month: u8,
    /// 1-based day of month.
    pub day: u8,
}

impl Date {
    /// Construct a date; panics on an out-of-range month/day (this substrate
    /// is driven by literals and generated values, so invalid dates are
    /// programming errors, not runtime conditions).
    pub fn new(year: i32, month: u8, day: u8) -> Date {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day out of range: {year}-{month}-{day}"
        );
        Date { year, month, day }
    }

    /// Days since the Unix epoch (can be negative before 1970).
    pub fn day_number(self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }

    /// Inverse of [`Date::day_number`].
    pub fn from_day_number(z: i64) -> Date {
        let (year, month, day) = civil_from_days(z);
        Date { year, month, day }
    }

    /// Midnight UTC at the start of this date.
    ///
    /// Panics for dates before 1970 (the pipeline only handles 2015–2020).
    pub fn midnight(self) -> Timestamp {
        let z = self.day_number();
        assert!(z >= 0, "pre-epoch date has no Unix timestamp: {self:?}");
        Timestamp(z as u64 * SECS_PER_DAY)
    }

    /// Timestamp at `hour:00:00` UTC on this date.
    pub fn at_hour(self, hour: u8) -> Timestamp {
        assert!(hour < 24, "hour out of range: {hour}");
        self.midnight().add_hours(hour as u64)
    }

    /// Day of week.
    pub fn weekday(self) -> Weekday {
        // 1970-01-01 was a Thursday (= Monday-based index 3).
        let z = self.day_number();
        Weekday::from_monday0(((z + 3).rem_euclid(7)) as u8)
    }

    /// The date `n` days later (or earlier for negative `n`).
    pub fn add_days(self, n: i64) -> Date {
        Date::from_day_number(self.day_number() + n)
    }

    /// Days from `self` to `other` (positive if `other` is later).
    pub fn days_until(self, other: Date) -> i64 {
        other.day_number() - self.day_number()
    }

    /// ISO-8601 week number (1–53) together with the ISO week-year.
    ///
    /// The paper indexes 2020 by calendar week ("normalized by 3rd week of
    /// Jan", "week 10", …); those references follow ISO numbering, where
    /// week 1 is the week containing the first Thursday of the year.
    pub fn iso_week(self) -> (i32, u8) {
        // Thursday of the current ISO week decides the ISO year.
        let z = self.day_number();
        let weekday = (z + 3).rem_euclid(7); // Monday = 0
        let thursday = z - weekday + 3;
        let (ty, _, _) = civil_from_days(thursday);
        let jan1 = days_from_civil(ty, 1, 1);
        let week = ((thursday - jan1) / 7 + 1) as u8;
        (ty, week)
    }

    /// `YYYY-MM-DD` rendering.
    pub fn iso(self) -> String {
        format!("{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }

    /// Parse a `YYYY-MM-DD` date, validating the calendar: the one
    /// checked entry for dates from outside the program (CLI flags,
    /// query strings, scenario files), so [`Date::new`]'s range
    /// assertions are never reached by input. Unpadded fields
    /// (`2020-3-5`) are accepted; callers with a stricter surface check
    /// the width themselves.
    pub fn parse_iso(s: &str) -> Result<Date, String> {
        // Digits only: `i32::from_str` alone would admit a sign.
        let mut fields = s.split('-').map(|p| {
            let digits = !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit());
            digits.then(|| p.parse::<i32>().ok()).flatten()
        });
        let (Some(Some(y)), Some(Some(m)), Some(Some(d)), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("bad date (want YYYY-MM-DD): {s}"));
        };
        if !(1..=12).contains(&m) || d < 1 || d > i32::from(days_in_month(y, m as u8)) {
            return Err(format!("impossible calendar date: {s}"));
        }
        Ok(Date::new(y, m as u8, d as u8))
    }

    /// Iterate all dates in `[self, end]`.
    pub fn range_inclusive(self, end: Date) -> impl Iterator<Item = Date> {
        let start = self.day_number();
        let stop = end.day_number();
        (start..=stop).map(Date::from_day_number)
    }
}

/// True for Gregorian leap years.
pub(crate) fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in a month.
pub(crate) fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("month out of range: {month}"),
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's algorithm).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m as i32 + 9) % 12); // March = 0
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// Wrap-aware arithmetic for the NetFlow `SysUptime` clock.
///
/// v5/v9 headers carry the exporter's uptime as u32 *milliseconds*, which
/// wraps every `2^32` ms — about 49.7 days. Routers routinely stay up far
/// longer, so encoders must treat the field as modular and decoders must
/// never reconstruct a "boot time" by subtracting the wrapped field from the
/// export clock: timestamps that straddle a wrap would land ~49.7 days in
/// the future (and flows spanning the wrap would appear to end before they
/// start). Instead, every decode resolves a field against the *export-time
/// anchor* carried in the same header, using serial-number (RFC 1982 style)
/// disambiguation within half a wrap period.
pub mod uptime {
    /// The uptime clock's period: `2^32` ms, about 49.7 days.
    pub(crate) const WRAP_MS: u64 = 1 << 32;
    /// Half the wrap period. Offsets within this window are unambiguous
    /// under serial-number comparison.
    pub(crate) const HALF_WRAP_MS: u64 = 1 << 31;

    /// Encode an absolute Unix-millisecond instant as the wrapped u32
    /// uptime of an exporter booted at `boot_unix_ms`. Pure modular
    /// arithmetic: instants before boot wrap backwards, which decodes
    /// correctly as long as they stay within half a wrap of the anchor.
    pub(crate) fn to_wire(unix_ms: u64, boot_unix_ms: u64) -> u32 {
        unix_ms.wrapping_sub(boot_unix_ms) as u32
    }

    /// Wire uptime for a record timestamp, clamped into `[boot, export]`
    /// before wrapping: exporters emit records for flows still in progress
    /// (clamped to the export instant) and may see pre-boot timestamps
    /// under clock skew (clamped to boot), and the encoding must stay
    /// within half a wrap of the export anchor to decode unambiguously.
    pub(crate) fn record_field(unix_ms: u64, boot_unix_ms: u64, export_unix_ms: u64) -> u32 {
        debug_assert!(boot_unix_ms <= export_unix_ms, "export before boot");
        to_wire(unix_ms.clamp(boot_unix_ms, export_unix_ms), boot_unix_ms)
    }

    /// Decode a wrapped uptime `field` back to absolute Unix milliseconds
    /// against the export-time anchor `(export_uptime_ms, export_unix_ms)`
    /// taken from the same packet header. Fields up to [`HALF_WRAP_MS`]
    /// behind the anchor resolve into the past — across any number of
    /// wraps — and fields ahead of it resolve (slightly) into the future,
    /// covering exporter clock skew.
    pub(crate) fn from_wire(field: u32, export_uptime_ms: u32, export_unix_ms: u64) -> u64 {
        let behind = u64::from(export_uptime_ms.wrapping_sub(field));
        if behind <= HALF_WRAP_MS {
            export_unix_ms.saturating_sub(behind)
        } else {
            export_unix_ms + u64::from(field.wrapping_sub(export_uptime_ms))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_thursday() {
        let d = Date::new(1970, 1, 1);
        assert_eq!(d.day_number(), 0);
        assert_eq!(d.weekday(), Weekday::Thursday);
    }

    #[test]
    fn known_2020_weekdays() {
        // Dates named in the paper.
        assert_eq!(Date::new(2020, 2, 19).weekday(), Weekday::Wednesday);
        assert_eq!(Date::new(2020, 2, 22).weekday(), Weekday::Saturday);
        assert_eq!(Date::new(2020, 3, 25).weekday(), Weekday::Wednesday);
        assert_eq!(Date::new(2020, 3, 11).weekday(), Weekday::Wednesday);
        assert_eq!(Date::new(2020, 4, 12).weekday(), Weekday::Sunday); // Easter
        assert_eq!(Date::new(2020, 1, 1).weekday(), Weekday::Wednesday);
    }

    #[test]
    fn leap_year_2020() {
        assert!(is_leap_year(2020));
        assert!(!is_leap_year(2019));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2000));
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2019, 2), 28);
    }

    #[test]
    fn roundtrip_day_numbers() {
        for z in [-1_000_000i64, -1, 0, 1, 18_262, 18_322, 20_000, 1_000_000] {
            let d = Date::from_day_number(z);
            assert_eq!(d.day_number(), z, "roundtrip failed at {z} ({d:?})");
        }
    }

    #[test]
    fn parse_iso_validates_the_calendar() {
        for d in [Date::new(2020, 2, 29), Date::new(1969, 12, 31)] {
            assert_eq!(Date::parse_iso(&d.iso()), Ok(d));
        }
        assert_eq!(Date::parse_iso("2020-3-5"), Ok(Date::new(2020, 3, 5)));
        for (bad, needle) in [
            ("2020-02-31", "impossible calendar date"),
            ("2019-02-29", "impossible calendar date"),
            ("2020-13-01", "impossible calendar date"),
            ("2020-00-10", "impossible calendar date"),
            ("2020-01-00", "impossible calendar date"),
            ("2020-01-300", "impossible calendar date"),
            ("2020-01", "want YYYY-MM-DD"),
            ("2020-01-01-01", "want YYYY-MM-DD"),
            ("2020--01", "want YYYY-MM-DD"),
            ("-2020-01-01", "want YYYY-MM-DD"),
            ("2020-+1-01", "want YYYY-MM-DD"),
            ("20x0-01-01", "want YYYY-MM-DD"),
            ("99999999999-01-01", "want YYYY-MM-DD"),
            ("", "want YYYY-MM-DD"),
        ] {
            let err = Date::parse_iso(bad).unwrap_err();
            assert!(err.contains(needle) && err.contains(bad), "{bad:?}: {err}");
        }
    }

    #[test]
    fn iso_week_2020() {
        // 2020-01-01 was a Wednesday, so it belongs to ISO week 1 of 2020.
        assert_eq!(Date::new(2020, 1, 1).iso_week(), (2020, 1));
        // The paper's "third calendar week of Jan" baseline: Jan 13–19.
        assert_eq!(Date::new(2020, 1, 15).iso_week(), (2020, 3));
        // Lockdown week (week 12 starts Mar 16).
        assert_eq!(Date::new(2020, 3, 16).iso_week(), (2020, 12));
        assert_eq!(Date::new(2020, 3, 22).iso_week(), (2020, 12));
        // Week 10 (first lockdowns "early March", week of Mar 2).
        assert_eq!(Date::new(2020, 3, 2).iso_week(), (2020, 10));
        // Year boundary: 2019-12-30 is ISO week 1 of 2020.
        assert_eq!(Date::new(2019, 12, 30).iso_week(), (2020, 1));
        // 2021-01-01 is ISO week 53 of 2020.
        assert_eq!(Date::new(2021, 1, 1).iso_week(), (2020, 53));
    }

    #[test]
    fn timestamp_fields() {
        let t = Date::new(2020, 3, 25).at_hour(13).add_secs(45 * 60 + 7);
        assert_eq!(t.date(), Date::new(2020, 3, 25));
        assert_eq!(t.hour(), 13);
        assert_eq!(t.floor_hour(), Date::new(2020, 3, 25).at_hour(13));
    }

    #[test]
    fn day_number_is_the_civil_round_trip() {
        // Every day of the study window (and the weeks the figures reach
        // around it), first and last second.
        for date in Date::new(2019, 12, 15).range_inclusive(Date::new(2020, 6, 30)) {
            for t in [date.midnight(), date.at_hour(23).add_secs(3_599)] {
                assert_eq!(t.day_number(), t.date().day_number(), "{date:?}");
                assert_eq!(t.day_number(), date.day_number(), "{date:?}");
            }
        }
        assert_eq!(Timestamp(0).day_number(), 0);
        assert_eq!(Timestamp(SECS_PER_DAY - 1).day_number(), 0);
    }

    #[test]
    fn date_arithmetic() {
        let d = Date::new(2020, 2, 27);
        assert_eq!(d.add_days(3), Date::new(2020, 3, 1)); // leap February
        assert_eq!(d.add_days(-27), Date::new(2020, 1, 31));
        assert_eq!(
            Date::new(2020, 1, 1).days_until(Date::new(2020, 5, 11)),
            131
        );
        let count = Date::new(2020, 2, 28)
            .range_inclusive(Date::new(2020, 5, 8))
            .count();
        assert_eq!(count, 71); // EDU capture window: "72 days" per the paper counts both endpoints loosely
    }

    #[test]
    fn iso_rendering() {
        assert_eq!(Date::new(2020, 3, 5).iso(), "2020-03-05");
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn invalid_date_panics() {
        Date::new(2019, 2, 29);
    }

    #[test]
    fn uptime_roundtrip_within_first_epoch() {
        let boot_ms = Date::new(2020, 2, 1).midnight().unix() * 1000;
        let export_ms = boot_ms + 5 * 3_600 * 1000;
        let export_field = uptime::to_wire(export_ms, boot_ms);
        for t in [boot_ms, boot_ms + 1, export_ms - 60_000, export_ms] {
            let field = uptime::to_wire(t, boot_ms);
            assert_eq!(uptime::from_wire(field, export_field, export_ms), t);
        }
    }

    #[test]
    fn uptime_roundtrip_across_the_wrap() {
        // Boot ~49.7 days before export so the uptime clock wraps between
        // a flow's start and the export instant.
        let boot_ms = Date::new(2020, 2, 1).midnight().unix() * 1000;
        let export_ms = boot_ms + uptime::WRAP_MS + 5_000; // just past the wrap
        let export_field = uptime::to_wire(export_ms, boot_ms);
        assert_eq!(u64::from(export_field), 5_000, "uptime field has wrapped");
        // A flow that started 1 s *before* the wrap decodes monotonically.
        let start_ms = boot_ms + uptime::WRAP_MS - 1_000;
        let field = uptime::to_wire(start_ms, boot_ms);
        assert_eq!(uptime::from_wire(field, export_field, export_ms), start_ms);
        // And one just after it.
        let after_ms = boot_ms + uptime::WRAP_MS + 1_000;
        let field = uptime::to_wire(after_ms, boot_ms);
        assert_eq!(uptime::from_wire(field, export_field, export_ms), after_ms);
    }

    #[test]
    fn uptime_resolves_multi_wrap_uptimes() {
        // An exporter up for several wrap periods: fields still resolve
        // exactly because decoding is anchor-relative, not boot-relative.
        let boot_ms = Date::new(2015, 1, 1).midnight().unix() * 1000;
        let export_ms = boot_ms + 3 * uptime::WRAP_MS + 123_456;
        let export_field = uptime::to_wire(export_ms, boot_ms);
        let t = export_ms - 3_599_000; // an hour-old flow
        let field = uptime::to_wire(t, boot_ms);
        assert_eq!(uptime::from_wire(field, export_field, export_ms), t);
    }

    #[test]
    fn uptime_record_field_clamps_into_window() {
        let boot_ms = 1_000_000;
        let export_ms = boot_ms + 10_000;
        // Before boot clamps to boot (field 0), after export to export.
        assert_eq!(uptime::record_field(0, boot_ms, export_ms), 0);
        assert_eq!(
            uptime::record_field(export_ms + 5_000, boot_ms, export_ms),
            uptime::to_wire(export_ms, boot_ms)
        );
    }

    #[test]
    fn uptime_future_skew_resolves_forward() {
        // A field slightly *ahead* of the export anchor (exporter clock
        // skew) resolves into the future instead of 49.7 days back.
        let export_ms = 1_700_000_000_000;
        let export_field = 50_000u32;
        let field = export_field + 2_000;
        assert_eq!(
            uptime::from_wire(field, export_field, export_ms),
            export_ms + 2_000
        );
    }
}
