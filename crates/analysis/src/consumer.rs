//! The multi-consumer aggregation contract used by the single-pass trace
//! engine (`lockdown-core::engine`).
//!
//! Every figure's accumulator observes flow records and can merge a
//! same-typed partial produced by another worker. All implementors bin into
//! integer counters (or sets) whose merges are commutative and associative,
//! so results are independent of both flow fan-out order and worker count —
//! the property the engine's determinism tests assert.
//!
//! Calendar facts are per hour run: an accumulator's one body,
//! [`FlowConsumer::observe_run`], takes an [`HourRun`] and derives day
//! type, ISO week, day part and bin keys from it once. The engine splits
//! each cell into runs once and hands every covering consumer the same
//! runs; `observe_all` walks [`hour_runs`] the same way, and `observe` is
//! the one-record run. The state any path leaves is the same field for
//! field, down to which keys exist — `encode_frame` bytes cross the shard
//! boundary.

use crate::appclass::{Classifier, HourUsage, PaperClass, WeekHeatmap};
use crate::asgroup::{AsDayTotals, HypergiantSplit};
use crate::codec::{self, CodecError, ConsumerTag, StateReader};
use crate::edu::EduAnalysis;
use crate::linkutil::AsHourly;
use crate::ports::{client_addr, PortProfile};
use crate::timeseries::HourlyVolume;
use lockdown_flow::record::{hour_runs, FlowRecord, HourRun};
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_topology::asn::{Asn, Region};
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A streaming flow aggregator that can absorb a same-typed partial.
///
/// `merge` must be commutative and associative so that sharding flows
/// across workers and merging the partials yields the same state as a
/// single sequential pass.
pub trait FlowConsumer {
    /// Observe one flow record.
    fn observe(&mut self, record: &FlowRecord);

    /// Observe one hour run: the engine's hot path, called once per run
    /// of a cell. The default observes each record; the figures'
    /// accumulators implement their one body here and make `observe` the
    /// call with [`HourRun::of`].
    fn observe_run(&mut self, run: &HourRun<'_>) {
        for r in run.records {
            self.observe(r);
        }
    }

    /// Observe a batch of records, an hour run at a time.
    fn observe_all(&mut self, records: &[FlowRecord]) {
        for run in hour_runs(records) {
            self.observe_run(&run);
        }
    }

    /// Absorb another worker's partial state.
    fn merge(&mut self, other: Self)
    where
        Self: Sized;

    /// Stable identity of this consumer's serialized state (the state
    /// codec's tag byte + the name decode errors carry). A consumer that
    /// keeps the default cannot leave the column that built it, so only a
    /// one-thread pass can run it: a pass of more threads, or a worker
    /// process, panics when it encodes that column.
    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_UNSUPPORTED
    }

    /// Append this consumer's mergeable state to `out` in the
    /// deterministic payload encoding ([`codec::encode_frame`] adds the
    /// version/tag/CRC framing). Constructor parameters are not encoded:
    /// the receiving side factory-builds the consumer and merges.
    fn encode_state(&self, _out: &mut Vec<u8>) {
        unimplemented!("a consumer without the state codec runs only in a one-thread pass")
    }

    /// Decode a peer's payload from `r` and merge it into `self` — the
    /// cross-process analogue of [`FlowConsumer::merge`].
    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        Err(r.error("consumer does not implement the state codec"))
    }
}

impl FlowConsumer for HourlyVolume {
    fn observe(&mut self, record: &FlowRecord) {
        self.observe_run(&HourRun::of(record));
    }

    fn observe_run(&mut self, run: &HourRun<'_>) {
        self.add_run(run);
    }

    fn merge(&mut self, other: Self) {
        HourlyVolume::merge(self, &other);
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_HOURLY_VOLUME
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.encode_bins(out);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.merge_bins(r)
    }
}

impl FlowConsumer for EduAnalysis {
    fn observe(&mut self, record: &FlowRecord) {
        self.observe_run(&HourRun::of(record));
    }

    fn observe_run(&mut self, run: &HourRun<'_>) {
        self.add_run(run);
    }

    fn merge(&mut self, other: Self) {
        EduAnalysis::merge(self, &other);
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_EDU_ANALYSIS
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.encode_payload(out);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.merge_payload(r)
    }
}

/// [`PortProfile`] bound to the vantage region its calendar needs.
#[derive(Debug, Clone)]
pub struct PortConsumer {
    /// The accumulated profile.
    pub profile: PortProfile,
    region: Region,
}

impl PortConsumer {
    /// An empty profile for a region's calendar.
    pub fn new(region: Region) -> PortConsumer {
        PortConsumer {
            profile: PortProfile::new(),
            region,
        }
    }
}

impl FlowConsumer for PortConsumer {
    fn observe(&mut self, record: &FlowRecord) {
        self.observe_run(&HourRun::of(record));
    }

    fn observe_run(&mut self, run: &HourRun<'_>) {
        self.profile.add_run(run, self.region);
    }

    fn merge(&mut self, other: Self) {
        self.profile.merge(&other.profile);
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_PORT_CONSUMER
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.profile.encode_profile(out);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.profile.merge_profile(r)
    }
}

/// [`HypergiantSplit`] bound to its region and local eyeball ASN (Fig. 4).
#[derive(Debug, Clone)]
pub struct HypergiantConsumer {
    /// The accumulated split.
    pub split: HypergiantSplit,
    region: Region,
    eyeball: Asn,
}

impl HypergiantConsumer {
    /// An empty split for a vantage in `region` with the given eyeball.
    pub fn new(region: Region, eyeball: Asn) -> HypergiantConsumer {
        HypergiantConsumer {
            split: HypergiantSplit::new(),
            region,
            eyeball,
        }
    }
}

impl FlowConsumer for HypergiantConsumer {
    fn observe(&mut self, record: &FlowRecord) {
        self.observe_run(&HourRun::of(record));
    }

    fn observe_run(&mut self, run: &HourRun<'_>) {
        self.split.add_run(run, self.region, self.eyeball);
    }

    fn merge(&mut self, other: Self) {
        self.split.merge(&other.split);
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_HYPERGIANT_CONSUMER
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.split.encode_split(out);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.split.merge_split(r)
    }
}

/// [`AsDayTotals`] with an optional endpoint-AS gate — `Some(asn)` keeps
/// only flows touching that AS (the "residential" half of Fig. 6/§3.4).
#[derive(Debug, Clone)]
pub struct AsTotalsConsumer {
    /// The accumulated totals.
    pub totals: AsDayTotals,
    require_asn: Option<u32>,
}

impl AsTotalsConsumer {
    /// Accumulate every flow.
    pub fn all(region: Region) -> AsTotalsConsumer {
        AsTotalsConsumer {
            totals: AsDayTotals::new(region),
            require_asn: None,
        }
    }

    /// Accumulate only flows with `asn` as an endpoint.
    pub fn touching(region: Region, asn: Asn) -> AsTotalsConsumer {
        AsTotalsConsumer {
            totals: AsDayTotals::new(region),
            require_asn: Some(asn.0),
        }
    }
}

impl FlowConsumer for AsTotalsConsumer {
    fn observe(&mut self, record: &FlowRecord) {
        self.observe_run(&HourRun::of(record));
    }

    fn observe_run(&mut self, run: &HourRun<'_>) {
        let gate = self.require_asn;
        self.totals
            .add_run(run, |r| gate.is_none_or(|a| r.src_as == a || r.dst_as == a));
    }

    fn merge(&mut self, other: Self) {
        self.totals.merge(&other.totals);
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_AS_TOTALS_CONSUMER
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.totals.encode_totals(out);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.totals.merge_totals(r)
    }
}

/// One Fig. 9 [`WeekHeatmap`] fed flow-by-flow through a shared classifier.
#[derive(Debug, Clone)]
pub struct HeatmapConsumer {
    classifier: Arc<Classifier>,
    /// The accumulated heatmap.
    pub heatmap: WeekHeatmap,
}

impl HeatmapConsumer {
    /// An empty heatmap for the week starting at `start`.
    pub fn new(classifier: Arc<Classifier>, start: Date) -> HeatmapConsumer {
        HeatmapConsumer {
            classifier,
            heatmap: WeekHeatmap::new(start),
        }
    }
}

impl FlowConsumer for HeatmapConsumer {
    fn observe(&mut self, record: &FlowRecord) {
        self.observe_run(&HourRun::of(record));
    }

    fn observe_run(&mut self, run: &HourRun<'_>) {
        self.heatmap.add_run(&self.classifier, run);
    }

    fn merge(&mut self, other: Self) {
        self.heatmap.merge(&other.heatmap);
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_HEATMAP_CONSUMER
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        codec::put_i64(out, self.heatmap.start.day_number());
        out.put_u64_be(self.heatmap.grid.len() as u64);
        for class_grid in &self.heatmap.grid {
            for day in class_grid {
                for v in day {
                    out.put_u64_be(*v);
                }
            }
        }
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let day = r.i64("week start")?;
        if day != self.heatmap.start.day_number() {
            return Err(r.error(format!(
                "week start {day} does not match this heatmap's start {}",
                self.heatmap.start.day_number()
            )));
        }
        let classes = r.u64("class count")?;
        if classes as usize != self.heatmap.grid.len() {
            return Err(r.error(format!(
                "{classes} classes do not match this heatmap's {}",
                self.heatmap.grid.len()
            )));
        }
        for class_grid in &mut self.heatmap.grid {
            for day in class_grid.iter_mut() {
                for v in day.iter_mut() {
                    *v += r.u64("cell bytes")?;
                }
            }
        }
        Ok(())
    }
}

/// Fig. 8's per-hour usage of one application class: bytes plus distinct
/// client addresses per `(day, hour)` bin (flows land in the bin of their
/// start hour).
#[derive(Debug, Clone)]
pub struct ClassUsageConsumer {
    classifier: Arc<Classifier>,
    class: PaperClass,
    bins: BTreeMap<(i64, u8), (u64, HashSet<Ipv4Addr>)>,
}

impl ClassUsageConsumer {
    /// An empty accumulator for one class.
    pub fn new(classifier: Arc<Classifier>, class: PaperClass) -> ClassUsageConsumer {
        ClassUsageConsumer {
            classifier,
            class,
            bins: BTreeMap::new(),
        }
    }

    /// Usage in one hour bin (zeroes when the bin is empty).
    pub fn hour_usage(&self, date: Date, hour: u8) -> HourUsage {
        match self.bins.get(&(date.day_number(), hour)) {
            Some((bytes, ips)) => HourUsage {
                bytes: *bytes,
                unique_ips: ips.len(),
            },
            None => HourUsage::default(),
        }
    }
}

impl FlowConsumer for ClassUsageConsumer {
    fn observe(&mut self, record: &FlowRecord) {
        self.observe_run(&HourRun::of(record));
    }

    fn observe_run(&mut self, run: &HourRun<'_>) {
        let mut matched = run
            .records
            .iter()
            .filter(|r| self.classifier.classify(r) == Some(self.class))
            .peekable();
        // The run's bin exists only once a flow of the class is seen.
        if matched.peek().is_none() {
            return;
        }
        let bin = self
            .bins
            .entry((run.day_number, run.hour))
            .or_insert_with(|| (0, HashSet::new()));
        for record in matched {
            bin.0 += record.bytes;
            bin.1.insert(client_addr(record));
        }
    }

    fn merge(&mut self, other: Self) {
        for (k, (bytes, ips)) in other.bins {
            let bin = self.bins.entry(k).or_insert_with(|| (0, HashSet::new()));
            bin.0 += bytes;
            bin.1.extend(ips);
        }
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_CLASS_USAGE_CONSUMER
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        out.put_u64_be(self.bins.len() as u64);
        for ((day, hour), (bytes, ips)) in &self.bins {
            codec::put_i64(out, *day);
            out.push(*hour);
            out.put_u64_be(*bytes);
            let mut sorted: Vec<u32> = ips.iter().map(|&ip| u32::from(ip)).collect();
            sorted.sort_unstable();
            out.put_u64_be(sorted.len() as u64);
            for ip in sorted {
                out.put_u32_be(ip);
            }
        }
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let n = r.len("usage bins", 25)?;
        for _ in 0..n {
            let day = r.i64("day number")?;
            let hour = r.u8("hour")?;
            if hour >= 24 {
                return Err(r.error(format!("hour {hour} out of range")));
            }
            let bytes = r.u64("bin bytes")?;
            let bin = self
                .bins
                .entry((day, hour))
                .or_insert_with(|| (0, HashSet::new()));
            bin.0 += bytes;
            let ips = r.len("client set", 4)?;
            for _ in 0..ips {
                bin.1.insert(Ipv4Addr::from(r.u32("client address")?));
            }
        }
        Ok(())
    }
}

impl FlowConsumer for AsHourly {
    fn observe(&mut self, record: &FlowRecord) {
        self.observe_run(&HourRun::of(record));
    }

    fn observe_run(&mut self, run: &HourRun<'_>) {
        self.add_run(run);
    }

    fn merge(&mut self, other: Self) {
        AsHourly::merge(self, &other);
    }

    fn state_tag(&self) -> ConsumerTag {
        codec::TAG_AS_HOURLY
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.encode_hourly(out);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.merge_hourly(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::protocol::IpProtocol;
    use lockdown_flow::record::FlowKey;
    use lockdown_flow::time::Timestamp;
    use lockdown_topology::registry::Registry;

    fn flow(at: Timestamp, sport: u16, dport: u16, src_as: u32, dst_as: u32) -> FlowRecord {
        FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(203, 0, 113, 9),
                dst_addr: Ipv4Addr::new(192, 0, 2, 2),
                src_port: sport,
                dst_port: dport,
                protocol: IpProtocol::Tcp,
            },
            at,
        )
        .end(at.add_secs(1))
        .bytes(100)
        .packets(1)
        .asns(src_as, dst_as)
        .build()
    }

    /// Observing a batch split across two consumers then merging equals
    /// one sequential pass — the engine's core invariant, checked here on
    /// a representative consumer of each binning shape.
    #[test]
    fn split_merge_equals_sequential() {
        let d = Date::new(2020, 3, 25);
        let flows: Vec<FlowRecord> = (0..40u16)
            .map(|i| {
                flow(
                    d.at_hour((i % 24) as u8),
                    443,
                    50_000 + i,
                    64_496,
                    65_000 + i as u32 % 3,
                )
            })
            .collect();

        let mut seq = HourlyVolume::new();
        seq.observe_all(&flows);
        let mut a = HourlyVolume::new();
        let mut b = HourlyVolume::new();
        a.observe_all(&flows[..17]);
        b.observe_all(&flows[17..]);
        FlowConsumer::merge(&mut a, b);
        assert_eq!(seq.hourly_series(d, d), a.hourly_series(d, d));

        let mut seq = AsTotalsConsumer::all(Region::CentralEurope);
        seq.observe_all(&flows);
        let mut a = AsTotalsConsumer::all(Region::CentralEurope);
        let mut b = AsTotalsConsumer::all(Region::CentralEurope);
        a.observe_all(&flows[..9]);
        b.observe_all(&flows[9..]);
        FlowConsumer::merge(&mut a, b);
        for asn in [65_000, 65_001, 65_002, 64_496] {
            assert_eq!(
                seq.totals.mean_daily_bytes(Asn(asn)),
                a.totals.mean_daily_bytes(Asn(asn))
            );
        }
    }

    #[test]
    fn filtered_totals_gate_on_endpoint() {
        let d = Date::new(2020, 3, 25);
        let mut c = AsTotalsConsumer::touching(Region::CentralEurope, Asn(64_496));
        c.observe(&flow(d.at_hour(9), 443, 50_000, 64_496, 65_000));
        c.observe(&flow(d.at_hour(9), 443, 50_001, 65_001, 65_000));
        assert!(c.totals.mean_daily_bytes(Asn(64_496)) > 0.0);
        assert_eq!(c.totals.mean_daily_bytes(Asn(65_001)), 0.0);
    }

    #[test]
    fn class_usage_bins_by_start_hour() {
        let registry = Registry::synthesize();
        let classifier = Arc::new(Classifier::from_registry(&registry));
        let d = Date::new(2020, 3, 25);
        // Email flows (TCP/993) across two hours plus unclassified noise.
        let flows = vec![
            flow(d.at_hour(9), 993, 50_000, 1, 2),
            flow(d.at_hour(9), 993, 50_001, 1, 2),
            flow(d.at_hour(10), 993, 50_002, 1, 2),
            flow(d.at_hour(9), 40_000, 50_003, 1, 2),
        ];
        let mut c = ClassUsageConsumer::new(classifier.clone(), PaperClass::Email);
        c.observe_all(&flows);
        let usage = |bytes, unique_ips| HourUsage { bytes, unique_ips };
        assert_eq!(c.hour_usage(d, 9), usage(200, 1));
        assert_eq!(c.hour_usage(d, 10), usage(100, 1));
        assert_eq!(c.hour_usage(d, 11), HourUsage::default());
    }
}
