//! AS-level traffic splits: hypergiants vs. the rest (Fig. 4), remote-work
//! AS grouping (§3.4), and the per-AS residential-shift scatter (Fig. 6).

use crate::slots::Slots;
use lockdown_flow::record::{FlowRecord, HourRun};
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_scenario::calendar::day_type;
use lockdown_topology::asn::{Asn, Region};
use lockdown_topology::hypergiants::is_hypergiant;
use std::collections::{BTreeMap, HashSet};

/// Fig. 4's four time buckets: workday/weekend × working hours
/// (09:00–16:59) / evening (17:00–24:00).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DayPart {
    /// Workday 09:00–16:59.
    WorkdayWork,
    /// Workday 17:00–24:00.
    WorkdayEvening,
    /// Weekend 09:00–16:59.
    WeekendWork,
    /// Weekend 17:00–24:00.
    WeekendEvening,
}

impl DayPart {
    /// All four buckets.
    pub const ALL: [DayPart; 4] = [
        DayPart::WorkdayWork,
        DayPart::WorkdayEvening,
        DayPart::WeekendWork,
        DayPart::WeekendEvening,
    ];

    /// Classify a (date, hour); `None` outside the two windows.
    pub(crate) fn of(date: Date, hour: u8, region: Region) -> Option<DayPart> {
        let weekendish = day_type(date, region).is_weekend_like();
        let work = (9..17).contains(&hour);
        let evening = (17..24).contains(&hour);
        match (weekendish, work, evening) {
            (false, true, _) => Some(DayPart::WorkdayWork),
            (false, _, true) => Some(DayPart::WorkdayEvening),
            (true, true, _) => Some(DayPart::WeekendWork),
            (true, _, true) => Some(DayPart::WeekendEvening),
            _ => None,
        }
    }

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            DayPart::WorkdayWork => "Workday: 09:00-16:59",
            DayPart::WorkdayEvening => "Workday: 17:00-24:00",
            DayPart::WeekendWork => "Weekend: 09:00-16:59",
            DayPart::WeekendEvening => "Weekend: 17:00-24:00",
        }
    }

    /// Shard-codec wire byte: index into [`DayPart::ALL`].
    pub(crate) fn index(self) -> u8 {
        DayPart::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every variant is in ALL") as u8
    }

    /// Inverse of [`DayPart::index`].
    pub(crate) fn from_index(i: u8) -> Option<DayPart> {
        DayPart::ALL.get(i as usize).copied()
    }
}

/// Streaming accumulator for the Fig. 4 hypergiant/other split:
/// bytes per (ISO week, day part, hypergiant?), normalized per
/// contributing day — Fig. 4 plots *daily* traffic growth, and weeks with
/// holidays contribute extra weekend-like days that would otherwise skew
/// weekly sums.
#[derive(Debug, Clone, Default)]
pub struct HypergiantSplit {
    bins: BTreeMap<(u8, DayPart, bool), u64>,
    days: BTreeMap<(u8, DayPart), HashSet<i64>>,
}

impl HypergiantSplit {
    /// An empty accumulator.
    pub(crate) fn new() -> HypergiantSplit {
        HypergiantSplit::default()
    }

    /// Add one hour run observed at a vantage point in `region`: week and
    /// day part are the run's, only the hypergiant/other side is per flow
    /// (a flow's content side is whichever endpoint is not the local
    /// eyeball `eyeball_asn`). A side gets a bin only if a flow of the run
    /// fell on it.
    pub(crate) fn add_run(&mut self, run: &HourRun<'_>, region: Region, eyeball_asn: Asn) {
        let Some(part) = DayPart::of(run.date, run.hour, region) else {
            return;
        };
        let (mut sums, mut seen) = ([0u64; 2], [false; 2]);
        for record in run.records {
            let content_asn = if record.src_as == eyeball_asn.0 {
                record.dst_as
            } else {
                record.src_as
            };
            let side = usize::from(is_hypergiant(Asn(content_asn)));
            sums[side] += record.bytes;
            seen[side] = true;
        }
        self.add_sides(
            run,
            part,
            [0, 1].map(|side| seen[side].then_some(sums[side])),
        );
    }

    /// Add a run's bytes per side, other, then hypergiant (`None` when no
    /// flow fell on it, so the side gets no bin), and count its day.
    pub(crate) fn add_sides(&mut self, run: &HourRun<'_>, part: DayPart, sides: [Option<u64>; 2]) {
        let (_, week) = run.date.iso_week();
        for (hg, bytes) in [false, true].into_iter().zip(sides) {
            if let Some(bytes) = bytes {
                *self.bins.entry((week, part, hg)).or_insert(0) += bytes;
            }
        }
        self.days
            .entry((week, part))
            .or_default()
            .insert(run.day_number);
    }

    /// Total bytes for (week, part, hypergiant?).
    pub(crate) fn get(&self, week: u8, part: DayPart, hypergiant: bool) -> u64 {
        self.bins
            .get(&(week, part, hypergiant))
            .copied()
            .unwrap_or(0)
    }

    /// Mean *daily* bytes for (week, part, hypergiant?) — the unit Fig. 4
    /// plots.
    pub(crate) fn mean_daily(&self, week: u8, part: DayPart, hypergiant: bool) -> f64 {
        let days = self.days.get(&(week, part)).map(HashSet::len).unwrap_or(0);
        if days == 0 {
            0.0
        } else {
            self.get(week, part, hypergiant) as f64 / days as f64
        }
    }

    /// Shard-codec payload: byte bins, then day sets (each set sorted).
    pub(crate) fn encode_split(&self, out: &mut Vec<u8>) {
        out.put_u64_be(self.bins.len() as u64);
        for ((week, part, hg), bytes) in &self.bins {
            out.push(*week);
            out.push(part.index());
            crate::codec::put_bool(out, *hg);
            out.put_u64_be(*bytes);
        }
        out.put_u64_be(self.days.len() as u64);
        for ((week, part), days) in &self.days {
            out.push(*week);
            out.push(part.index());
            let mut sorted: Vec<i64> = days.iter().copied().collect();
            sorted.sort_unstable();
            out.put_u64_be(sorted.len() as u64);
            for d in sorted {
                crate::codec::put_i64(out, d);
            }
        }
    }

    /// Decode a shard-codec payload and merge it (bins add, day sets
    /// union).
    pub(crate) fn merge_split(
        &mut self,
        r: &mut crate::codec::StateReader<'_>,
    ) -> Result<(), crate::codec::CodecError> {
        let read_part = |r: &mut crate::codec::StateReader<'_>| {
            let i = r.u8("day part")?;
            DayPart::from_index(i).ok_or_else(|| r.error(format!("unknown day part {i}")))
        };
        let n = r.len("split bins", 11)?;
        for _ in 0..n {
            let week = r.u8("week")?;
            let part = read_part(r)?;
            let hg = r.bool("hypergiant flag")?;
            let bytes = r.u64("bin bytes")?;
            *self.bins.entry((week, part, hg)).or_insert(0) += bytes;
        }
        let n = r.len("day sets", 10)?;
        for _ in 0..n {
            let week = r.u8("week")?;
            let part = read_part(r)?;
            let days = r.len("day set", 8)?;
            let set = self.days.entry((week, part)).or_default();
            for _ in 0..days {
                set.insert(r.i64("day number")?);
            }
        }
        Ok(())
    }

    /// Growth series over weeks for one group and day part, normalized by
    /// `base_week`'s value. Weeks with no traffic yield `None` entries.
    pub fn growth_series(
        &self,
        part: DayPart,
        hypergiant: bool,
        weeks: impl IntoIterator<Item = u8>,
        base_week: u8,
    ) -> Vec<Option<f64>> {
        let base = self.mean_daily(base_week, part, hypergiant);
        weeks
            .into_iter()
            .map(|w| {
                let v = self.mean_daily(w, part, hypergiant);
                if base == 0.0 || v == 0.0 {
                    None
                } else {
                    Some(v / base)
                }
            })
            .collect()
    }
}

/// §3.4's workday/weekend-ratio grouping of ASes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RatioGroup {
    /// Traffic dominated by workdays (candidate remote-work AS).
    WorkdayDominated,
    /// Roughly balanced.
    Balanced,
    /// Weekend-dominated (entertainment-leaning).
    WeekendDominated,
}

/// Per-AS byte totals split by workday/weekend.
#[derive(Debug, Clone, Default)]
pub struct AsDayTotals {
    /// Slots of the ASNs seen.
    slots: Slots,
    /// `[workday, weekend]` bytes per slot.
    totals: Vec<[u64; 2]>,
    days_seen: (HashSet<i64>, HashSet<i64>),
    region: Option<Region>,
}

impl AsDayTotals {
    /// An empty accumulator for a region's calendar.
    pub(crate) fn new(region: Region) -> AsDayTotals {
        AsDayTotals {
            region: Some(region),
            ..AsDayTotals::default()
        }
    }

    /// The counters of an ASN, zeroed if new.
    #[inline]
    fn entry(&mut self, asn: u32) -> &mut [u64; 2] {
        let slot = self.slots.slot(asn);
        if slot == self.totals.len() {
            self.totals.push([0; 2]);
        }
        &mut self.totals[slot]
    }

    /// The counters of an ASN, if seen.
    fn get(&self, asn: u32) -> Option<&[u64; 2]> {
        self.slots.get(asn).map(|slot| &self.totals[slot])
    }

    /// Add the flows of one hour run that `keep` admits, attributing bytes
    /// to both endpoint ASes (an AS's traffic is what it sends plus what it
    /// receives); the day and its type are the run's, and count as seen
    /// only if a flow was admitted.
    pub(crate) fn add_run(&mut self, run: &HourRun<'_>, keep: impl Fn(&FlowRecord) -> bool) {
        let region = self.region.expect("constructed via new()");
        let weekend = day_type(run.date, region).is_weekend_like();
        let side = usize::from(weekend);
        let mut seen = false;
        for record in run.records.iter().filter(|r| keep(r)) {
            seen = true;
            for asn in [record.src_as, record.dst_as] {
                if asn != 0 {
                    self.entry(asn)[side] += record.bytes;
                }
            }
        }
        if seen {
            let days = if weekend {
                &mut self.days_seen.1
            } else {
                &mut self.days_seen.0
            };
            days.insert(run.day_number);
        }
    }

    /// Merge another accumulator (same region) into this one.
    pub fn merge(&mut self, other: &AsDayTotals) {
        debug_assert_eq!(self.region, other.region, "regions must agree");
        for (&asn, [wd, we]) in other.slots.keys().iter().zip(&other.totals) {
            let entry = self.entry(asn);
            entry[0] += wd;
            entry[1] += we;
        }
        self.days_seen.0.extend(&other.days_seen.0);
        self.days_seen.1.extend(&other.days_seen.1);
    }

    /// Shard-codec payload: per-AS totals sorted by ASN, then the two
    /// day-seen sets sorted. The region is *not* encoded — the receiving
    /// consumer is factory-built with it.
    pub(crate) fn encode_totals(&self, out: &mut Vec<u8>) {
        out.put_u64_be(self.slots.len() as u64);
        for (asn, slot) in self.slots.sorted() {
            let [wd, we] = self.totals[slot];
            out.put_u32_be(asn);
            out.put_u64_be(wd);
            out.put_u64_be(we);
        }
        for set in [&self.days_seen.0, &self.days_seen.1] {
            let mut sorted: Vec<i64> = set.iter().copied().collect();
            sorted.sort_unstable();
            out.put_u64_be(sorted.len() as u64);
            for d in sorted {
                crate::codec::put_i64(out, d);
            }
        }
    }

    /// Decode a shard-codec payload and merge it additively.
    pub(crate) fn merge_totals(
        &mut self,
        r: &mut crate::codec::StateReader<'_>,
    ) -> Result<(), crate::codec::CodecError> {
        let n = r.len("AS totals", 20)?;
        for _ in 0..n {
            let asn = r.u32("asn")?;
            let wd = r.u64("workday bytes")?;
            let we = r.u64("weekend bytes")?;
            let entry = self.entry(asn);
            entry[0] += wd;
            entry[1] += we;
        }
        let wd_days = r.len("workday set", 8)?;
        for _ in 0..wd_days {
            self.days_seen.0.insert(r.i64("workday number")?);
        }
        let we_days = r.len("weekend set", 8)?;
        for _ in 0..we_days {
            self.days_seen.1.insert(r.i64("weekend day number")?);
        }
        Ok(())
    }

    /// Group an AS by its *per-day* workday/weekend ratio. `None` if the
    /// AS was not observed (or one class of days is absent in the window).
    pub(crate) fn group_of(&self, asn: Asn) -> Option<RatioGroup> {
        let &[wd_bytes, we_bytes] = self.get(asn.0)?;
        let wd_days = self.days_seen.0.len() as f64;
        let we_days = self.days_seen.1.len() as f64;
        if wd_days == 0.0 || we_days == 0.0 {
            return None;
        }
        let wd_rate = wd_bytes as f64 / wd_days;
        let we_rate = we_bytes as f64 / we_days;
        if we_rate == 0.0 && wd_rate == 0.0 {
            return None;
        }
        let ratio = if we_rate == 0.0 {
            f64::INFINITY
        } else {
            wd_rate / we_rate
        };
        Some(if ratio > 1.3 {
            RatioGroup::WorkdayDominated
        } else if ratio < 0.8 {
            RatioGroup::WeekendDominated
        } else {
            RatioGroup::Balanced
        })
    }

    /// All ASes in a group.
    pub fn in_group(&self, group: RatioGroup) -> Vec<Asn> {
        let mut out: Vec<Asn> = (self.slots.keys().iter())
            .map(|&a| Asn(a))
            .filter(|&a| self.group_of(a) == Some(group))
            .collect();
        out.sort();
        out
    }

    /// Mean daily bytes of an AS across the whole window.
    pub fn mean_daily_bytes(&self, asn: Asn) -> f64 {
        let Some(&[wd, we]) = self.get(asn.0) else {
            return 0.0;
        };
        let days = (self.days_seen.0.len() + self.days_seen.1.len()).max(1) as f64;
        (wd + we) as f64 / days
    }
}

/// One point of the Fig. 6 scatter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidentialShift {
    /// The AS.
    pub asn: Asn,
    /// Normalized difference in mean total volume (Mar − Feb) in `[-1, 1]`.
    pub total_delta: f64,
    /// Normalized difference in mean residential (eyeball-facing) volume.
    pub residential_delta: f64,
}

/// Compute the Fig. 6 scatter: per AS, the normalized change in mean daily
/// total volume vs. the change in mean daily eyeball-facing volume between
/// a base window and a lockdown window. Normalization is symmetric:
/// `(b - a) / max(a, b)`, which lands in `[-1, 1]` like the paper's axes.
pub fn residential_shift(
    base: &AsDayTotals,
    lockdown: &AsDayTotals,
    base_res: &AsDayTotals,
    lockdown_res: &AsDayTotals,
    ases: impl IntoIterator<Item = Asn>,
) -> Vec<ResidentialShift> {
    fn delta(a: f64, b: f64) -> f64 {
        let m = a.max(b);
        if m == 0.0 {
            0.0
        } else {
            (b - a) / m
        }
    }
    ases.into_iter()
        .filter_map(|asn| {
            let t0 = base.mean_daily_bytes(asn);
            let t1 = lockdown.mean_daily_bytes(asn);
            if t0 == 0.0 && t1 == 0.0 {
                return None;
            }
            let r0 = base_res.mean_daily_bytes(asn);
            let r1 = lockdown_res.mean_daily_bytes(asn);
            Some(ResidentialShift {
                asn,
                total_delta: delta(t0, t1),
                residential_delta: delta(r0, r1),
            })
        })
        .collect()
}

/// Counts per quadrant of the Fig. 6 plane (excluding points on the axes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuadrantCounts {
    /// Total ↑, residential ↑.
    pub both_up: usize,
    /// Total ↓, residential ↑ (companies whose internal traffic collapsed).
    pub total_down_res_up: usize,
    /// Total ↓, residential ↓.
    pub both_down: usize,
    /// Total ↑, residential ↓.
    pub total_up_res_down: usize,
}

impl QuadrantCounts {
    /// Count quadrant membership.
    pub fn of(points: &[ResidentialShift]) -> QuadrantCounts {
        let mut q = QuadrantCounts::default();
        for p in points {
            match (p.total_delta > 0.0, p.residential_delta > 0.0) {
                (true, true) => q.both_up += 1,
                (false, true) => q.total_down_res_up += 1,
                (false, false) => q.both_down += 1,
                (true, false) => q.total_up_res_down += 1,
            }
        }
        q
    }
}

/// Pearson correlation between total and residential deltas (§3.4: "for a
/// majority of the ASes, there is a correlation").
pub fn shift_correlation(points: &[ResidentialShift]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.total_delta).sum::<f64>() / n;
    let my = points.iter().map(|p| p.residential_delta).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for p in points {
        let dx = p.total_delta - mx;
        let dy = p.residential_delta - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::protocol::IpProtocol;
    use lockdown_flow::record::{hour_runs, FlowKey};
    use std::net::Ipv4Addr;

    fn flow(date: Date, hour: u8, src_as: u32, dst_as: u32, bytes: u64) -> FlowRecord {
        let t = date.at_hour(hour);
        FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(192, 0, 2, 1),
                dst_addr: Ipv4Addr::new(192, 0, 2, 2),
                src_port: 443,
                dst_port: 50_000,
                protocol: IpProtocol::Tcp,
            },
            t,
        )
        .end(t.add_secs(1))
        .bytes(bytes)
        .packets(1)
        .asns(src_as, dst_as)
        .build()
    }

    /// The one-record run of `record`.
    fn one_run(record: &FlowRecord) -> HourRun<'_> {
        let mut runs = hour_runs(std::slice::from_ref(record));
        runs.next().expect("a record is a run")
    }

    const EYEBALL: Asn = Asn(64_496);
    const GOOGLE: u32 = 15_169;
    const OTHER: u32 = 65_100;

    #[test]
    fn daypart_classification() {
        let wed = Date::new(2020, 2, 19);
        let sat = Date::new(2020, 2, 22);
        assert_eq!(
            DayPart::of(wed, 10, Region::CentralEurope),
            Some(DayPart::WorkdayWork)
        );
        assert_eq!(
            DayPart::of(wed, 20, Region::CentralEurope),
            Some(DayPart::WorkdayEvening)
        );
        assert_eq!(
            DayPart::of(sat, 10, Region::CentralEurope),
            Some(DayPart::WeekendWork)
        );
        assert_eq!(
            DayPart::of(sat, 23, Region::CentralEurope),
            Some(DayPart::WeekendEvening)
        );
        assert_eq!(DayPart::of(wed, 3, Region::CentralEurope), None);
        // Easter Monday counts as weekend-like.
        assert_eq!(
            DayPart::of(Date::new(2020, 4, 13), 10, Region::CentralEurope),
            Some(DayPart::WeekendWork)
        );
    }

    #[test]
    fn hypergiant_split_growth() {
        let mut split = HypergiantSplit::new();
        // Week 8 (Feb 19 is in ISO week 8): baseline.
        let base_day = Date::new(2020, 2, 19);
        split.add_run(
            &one_run(&flow(base_day, 10, GOOGLE, EYEBALL.0, 100)),
            Region::CentralEurope,
            EYEBALL,
        );
        split.add_run(
            &one_run(&flow(base_day, 10, OTHER, EYEBALL.0, 100)),
            Region::CentralEurope,
            EYEBALL,
        );
        // Week 13 (Mar 25): hypergiants +30%, others +60%.
        let lock_day = Date::new(2020, 3, 25);
        split.add_run(
            &one_run(&flow(lock_day, 10, GOOGLE, EYEBALL.0, 130)),
            Region::CentralEurope,
            EYEBALL,
        );
        split.add_run(
            &one_run(&flow(lock_day, 10, OTHER, EYEBALL.0, 160)),
            Region::CentralEurope,
            EYEBALL,
        );

        let (_, base_week) = base_day.iso_week();
        let (_, lock_week) = lock_day.iso_week();
        let hg = split.growth_series(DayPart::WorkdayWork, true, [lock_week], base_week);
        let other = split.growth_series(DayPart::WorkdayWork, false, [lock_week], base_week);
        assert_eq!(hg[0], Some(1.3));
        assert_eq!(other[0], Some(1.6));
        // Missing weeks yield None.
        assert_eq!(
            split.growth_series(DayPart::WorkdayWork, true, [40u8], base_week)[0],
            None
        );
    }

    #[test]
    fn flow_direction_does_not_matter_for_content_side() {
        let mut split = HypergiantSplit::new();
        let d = Date::new(2020, 2, 19);
        // Upstream flow: eyeball is the source; content side is dst.
        split.add_run(
            &one_run(&flow(d, 10, EYEBALL.0, GOOGLE, 50)),
            Region::CentralEurope,
            EYEBALL,
        );
        let (_, w) = d.iso_week();
        assert_eq!(split.get(w, DayPart::WorkdayWork, true), 50);
    }

    #[test]
    fn ratio_groups() {
        let mut t = AsDayTotals::new(Region::CentralEurope);
        // Workday-heavy AS 1: 100/day on workdays, 10/day weekends.
        // Weekend-heavy AS 2: the reverse. Balanced AS 3.
        for d in Date::new(2020, 2, 3).range_inclusive(Date::new(2020, 2, 9)) {
            let weekend = d.weekday().is_weekend();
            t.add_run(
                &one_run(&flow(d, 12, 1, 0, if weekend { 10 } else { 100 })),
                |_| true,
            );
            t.add_run(
                &one_run(&flow(d, 12, 2, 0, if weekend { 100 } else { 10 })),
                |_| true,
            );
            t.add_run(&one_run(&flow(d, 12, 3, 0, 50)), |_| true);
        }
        assert_eq!(t.group_of(Asn(1)), Some(RatioGroup::WorkdayDominated));
        assert_eq!(t.group_of(Asn(2)), Some(RatioGroup::WeekendDominated));
        assert_eq!(t.group_of(Asn(3)), Some(RatioGroup::Balanced));
        assert_eq!(t.group_of(Asn(99)), None);
        assert_eq!(t.in_group(RatioGroup::WorkdayDominated), vec![Asn(1)]);
    }

    #[test]
    fn residential_shift_quadrants() {
        let region = Region::CentralEurope;
        let feb = Date::new(2020, 2, 19);
        let mar = Date::new(2020, 3, 25);
        let mk = |d: Date, asn: u32, total: u64, res: u64| {
            let mut all = AsDayTotals::new(region);
            let mut resid = AsDayTotals::new(region);
            all.add_run(&one_run(&flow(d, 12, asn, 0, total)), |_| true);
            let r = flow(d, 12, asn, EYEBALL.0, res);
            all.add_run(&one_run(&r), |_| true);
            resid.add_run(&one_run(&r), |_| true);
            (all, resid)
        };
        // AS 10: total down, residential up (top-left quadrant).
        let (b_all, b_res) = mk(feb, 10, 1_000, 50);
        let (l_all, l_res) = mk(mar, 10, 200, 400);
        let pts = residential_shift(&b_all, &l_all, &b_res, &l_res, [Asn(10)]);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].total_delta < 0.0, "total fell");
        assert!(pts[0].residential_delta > 0.0, "residential rose");
        let q = QuadrantCounts::of(&pts);
        assert_eq!(q.total_down_res_up, 1);
    }

    #[test]
    fn deltas_bounded() {
        let region = Region::CentralEurope;
        let mut b = AsDayTotals::new(region);
        let mut l = AsDayTotals::new(region);
        b.add_run(&one_run(&flow(Date::new(2020, 2, 19), 12, 5, 0, 1)), |_| {
            true
        });
        l.add_run(
            &one_run(&flow(Date::new(2020, 3, 25), 12, 5, 0, 1_000_000)),
            |_| true,
        );
        let pts = residential_shift(&b, &l, &b, &l, [Asn(5)]);
        assert!(pts[0].total_delta <= 1.0 && pts[0].total_delta > 0.99);
    }

    #[test]
    fn correlation() {
        let pts: Vec<ResidentialShift> = (0..20)
            .map(|i| ResidentialShift {
                asn: Asn(i),
                total_delta: i as f64 / 20.0 - 0.5,
                residential_delta: (i as f64 / 20.0 - 0.5) * 0.8,
            })
            .collect();
        assert!((shift_correlation(&pts) - 1.0).abs() < 1e-9);
        assert_eq!(shift_correlation(&pts[..1]), 0.0);
    }
}
