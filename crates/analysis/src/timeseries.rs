//! Streaming time-series aggregation and normalization.
//!
//! Every figure in the paper starts from the same primitive: bin flow bytes
//! by hour, roll up to days or ISO weeks, and normalize by a baseline (the
//! third January week for Fig. 1, the minimum for Fig. 3, a February week
//! for the §5 heatmaps). This module provides that primitive as a streaming
//! accumulator so experiments never hold a full trace in memory.

use lockdown_flow::record::HourRun;
use lockdown_flow::time::{Date, Timestamp};
use lockdown_flow::wire::PutBe;
use std::collections::BTreeMap;

/// Hour-binned byte volume accumulator.
#[derive(Debug, Clone, Default)]
pub struct HourlyVolume {
    bins: BTreeMap<Timestamp, u64>,
}

impl HourlyVolume {
    /// An empty accumulator.
    pub fn new() -> HourlyVolume {
        HourlyVolume::default()
    }

    /// Add one hour run: its byte sum into one bin entry, keyed by the
    /// run's start hour (the convention flow pipelines use for hourly
    /// accounting) and created even when the sum is zero.
    pub(crate) fn add_run(&mut self, run: &HourRun<'_>) {
        *self.bins.entry(run.hour_start).or_insert(0) += run.bytes;
    }

    /// Add raw bytes at a time.
    pub(crate) fn add_bytes(&mut self, at: Timestamp, bytes: u64) {
        *self.bins.entry(at.floor_hour()).or_insert(0) += bytes;
    }

    /// Bytes in one hour bin.
    pub fn get(&self, date: Date, hour: u8) -> u64 {
        self.bins.get(&date.at_hour(hour)).copied().unwrap_or(0)
    }

    /// Total bytes on a date.
    pub fn daily_total(&self, date: Date) -> u64 {
        (0..24).map(|h| self.get(date, h)).sum()
    }

    /// The 24 hourly values of a date.
    pub fn day_profile(&self, date: Date) -> [u64; 24] {
        let mut out = [0u64; 24];
        for (h, slot) in out.iter_mut().enumerate() {
            *slot = self.get(date, h as u8);
        }
        out
    }

    /// Hourly series over an inclusive date range, one entry per hour,
    /// including empty bins (value 0).
    pub fn hourly_series(&self, start: Date, end: Date) -> Vec<(Timestamp, u64)> {
        let mut out = Vec::new();
        for date in start.range_inclusive(end) {
            for hour in 0..24 {
                let t = date.at_hour(hour);
                out.push((t, self.bins.get(&t).copied().unwrap_or(0)));
            }
        }
        out
    }

    /// Weekly totals keyed by ISO `(year, week)`.
    pub fn weekly_totals(&self) -> BTreeMap<(i32, u8), u64> {
        let mut out: BTreeMap<(i32, u8), u64> = BTreeMap::new();
        for (t, bytes) in &self.bins {
            let key = t.date().iso_week();
            *out.entry(key).or_insert(0) += bytes;
        }
        out
    }

    /// Shard-codec payload: bin count, then `(timestamp, bytes)` pairs in
    /// key order (`BTreeMap` iteration is already sorted).
    pub(crate) fn encode_bins(&self, out: &mut Vec<u8>) {
        out.put_u64_be(self.bins.len() as u64);
        for (t, b) in &self.bins {
            out.put_u64_be(t.0);
            out.put_u64_be(*b);
        }
    }

    /// Decode a shard-codec payload and merge it additively. A bin key
    /// that is not the start of an hour, which no flow's `floor_hour`
    /// yields, is an error, and merges nothing.
    pub(crate) fn merge_bins(
        &mut self,
        r: &mut crate::codec::StateReader<'_>,
    ) -> Result<(), crate::codec::CodecError> {
        let n = r.len("hour bins", 16)?;
        let mut bins = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Timestamp(r.u64("bin timestamp")?);
            if t.floor_hour() != t {
                return Err(r.error(format!("bin timestamp {} is not the start of an hour", t.0)));
            }
            bins.push((t, r.u64("bin bytes")?));
        }
        for (t, b) in bins {
            *self.bins.entry(t).or_insert(0) += b;
        }
        Ok(())
    }
}

/// Normalize a series by a positive base value.
pub fn normalize(values: &[u64], base: f64) -> Vec<f64> {
    assert!(base > 0.0, "normalization base must be positive");
    values.iter().map(|&v| v as f64 / base).collect()
}

/// Normalize by the series' minimum *positive* value (Fig. 3: "normalized
/// by the respective minimum traffic volume"). Returns `None` for an empty
/// or all-zero series.
pub fn normalize_by_min(values: &[u64]) -> Option<Vec<f64>> {
    let min = values.iter().copied().filter(|&v| v > 0).min()? as f64;
    Some(values.iter().map(|&v| v as f64 / min).collect())
}

/// Mean of a float slice (0 for empty — callers treat empty as "no data").
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of a float slice (0 for empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in medians"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::Crafted;
    use crate::codec::{encode_frame, merge_frame, TAG_EDU_ANALYSIS, TAG_HOURLY_VOLUME};
    use crate::consumer::FlowConsumer;
    use crate::edu::EduAnalysis;
    use lockdown_flow::protocol::IpProtocol;
    use lockdown_flow::record::{FlowKey, FlowRecord};
    use std::net::Ipv4Addr;

    fn flow(at: Timestamp, bytes: u64) -> FlowRecord {
        FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(192, 0, 2, 1),
                dst_addr: Ipv4Addr::new(192, 0, 2, 2),
                src_port: 443,
                dst_port: 50_000,
                protocol: IpProtocol::Tcp,
            },
            at,
        )
        .end(at.add_secs(10))
        .bytes(bytes)
        .packets(1)
        .build()
    }

    #[test]
    fn bins_by_start_hour() {
        let mut v = HourlyVolume::new();
        let d = Date::new(2020, 3, 25);
        v.observe_all(&[
            flow(d.at_hour(9).add_secs(120), 100),
            flow(d.at_hour(9).add_secs(3_599), 50),
            flow(d.at_hour(10), 7),
        ]);
        assert_eq!(v.get(d, 9), 150);
        assert_eq!(v.get(d, 10), 7);
        assert_eq!(v.get(d, 11), 0);
        assert_eq!(v.daily_total(d), 157);
    }

    #[test]
    fn weekly_rollup() {
        let mut v = HourlyVolume::new();
        // Week 12 of 2020 starts Mon Mar 16.
        v.add_bytes(Date::new(2020, 3, 16).at_hour(0), 10);
        v.add_bytes(Date::new(2020, 3, 22).at_hour(23), 20);
        v.add_bytes(Date::new(2020, 3, 23).at_hour(0), 40); // week 13
        let weekly = v.weekly_totals();
        assert_eq!(weekly[&(2020, 12)], 30);
        assert_eq!(weekly[&(2020, 13)], 40);
    }

    #[test]
    fn series_includes_empty_bins() {
        let mut v = HourlyVolume::new();
        let d = Date::new(2020, 2, 1);
        v.add_bytes(d.at_hour(5), 1);
        let series = v.hourly_series(d, d);
        assert_eq!(series.len(), 24);
        assert_eq!(series[5].1, 1);
        assert_eq!(series[6].1, 0);
    }

    #[test]
    fn normalization() {
        assert_eq!(normalize(&[10, 20], 10.0), vec![1.0, 2.0]);
        assert_eq!(
            normalize_by_min(&[0, 4, 2, 8]).unwrap(),
            vec![0.0, 2.0, 1.0, 4.0]
        );
        assert!(normalize_by_min(&[0, 0]).is_none());
        assert!(normalize_by_min(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn normalize_zero_base_panics() {
        normalize(&[1], 0.0);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn daily_totals_sum_hour_bins() {
        let mut v = HourlyVolume::new();
        v.add_bytes(Date::new(2020, 2, 1).at_hour(0), 10);
        v.add_bytes(Date::new(2020, 2, 1).at_hour(23), 5);
        v.add_bytes(Date::new(2020, 2, 2).at_hour(0), 30);
        assert_eq!(v.daily_total(Date::new(2020, 2, 1)), 15);
        assert_eq!(v.daily_total(Date::new(2020, 2, 2)), 30);
    }

    /// Every writer keys a bin by an hour's start, so a frame whose key
    /// falls inside an hour is one no flows made: a named error that
    /// merges nothing, in `HourlyVolume` and in EDU's two volume series.
    #[test]
    fn bin_keys_no_flow_can_produce_are_named_errors() {
        let nine = Date::new(2020, 3, 25).at_hour(9).unix();
        let mut bins = Vec::new();
        bins.put_u64_be(2);
        for (t, bytes) in [(nine, 5), (nine + 1_800, 7)] {
            bins.put_u64_be(t);
            bins.put_u64_be(bytes);
        }
        let named = format!("bin timestamp {} is not the start of an hour", nine + 1_800);

        let frame = encode_frame(&Crafted(TAG_HOURLY_VOLUME, bins.clone()));
        let mut sink = HourlyVolume::new();
        let e = merge_frame(&mut sink, &frame).expect_err("an off-hour key");
        assert_eq!((e.consumer, e.detail.as_str()), ("HourlyVolume", &*named));
        assert!(sink.bins.is_empty(), "merged");

        // No connection bins, then the ingress series.
        let mut edu = vec![0; 8];
        edu.extend_from_slice(&bins);
        let frame = encode_frame(&Crafted(TAG_EDU_ANALYSIS, edu));
        let mut sink = EduAnalysis::new();
        let e = merge_frame(&mut sink, &frame).expect_err("an off-hour key");
        assert_eq!((e.consumer, e.detail.as_str()), ("EduAnalysis", &*named));
        assert!(sink.ingress.bins.is_empty(), "merged");
    }
}
