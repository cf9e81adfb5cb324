//! Predicate-pushdown execution against the archive manifest.
//!
//! [`QueryEngine::execute`] resolves a [`QueryPlan`] in four stages,
//! cheapest first:
//!
//! 1. **Manifest pruning** (no I/O): segments whose stream doesn't match,
//!    whose `[min_start, max_end]` span cannot overlap the time window,
//!    or which hold zero records are skipped outright. A per-stream
//!    index built at open narrows the walk to one slice per stream by
//!    binary search; only that slice is tested entry by entry.
//! 2. **Manifest summary** (no I/O): when the plan's only per-record
//!    predicate is its window, a segment whose `[min_start, max_start]`
//!    the window holds whole, both ends in one clock hour, matches whole.
//!    Its entry's record count and byte and packet sums are the answer,
//!    and its bytes go to that hour's bin: no read, no CRC, no decode and
//!    no cache traffic.
//! 3. **Zone-map pruning** (no column decode): with a port predicate, the
//!    segment footer's `SrcPort`/`DstPort` zone maps are consulted — a
//!    port outside *both* zones proves no record matches (a flow matches
//!    on either end, so only double exclusion prunes). The footer is that
//!    of the one read of the segment: an admitted segment is decoded from
//!    the same bytes.
//! 4. **Decode + filter**: surviving segments are decoded through the
//!    byte-budgeted `SegmentCache` and filtered record-by-record.
//!
//! Every stage is counted in the `query_*` registry, so "pruning is
//! real" is an assertable property, not a code comment.

use crate::cache::SegmentCache;
use crate::metrics::QueryMetrics;
use crate::plan::QueryPlan;
use lockdown_analysis::appclass::Classifier;
use lockdown_flow::record::{hour_runs, FlowRecord};
use lockdown_flow::time::Timestamp;
use lockdown_store::segment::SegmentFooter;
use lockdown_store::{ArchiveReader, Column, SegmentMeta, StoreError, StoreMetrics, TimeRange};
use lockdown_topology::registry::Registry;
use lockdown_traffic::plan::{Cell, Stream};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Default decoded-segment cache budget (bytes).
pub const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// The archive's read-serving face: manifest, cache, classifier and
/// metrics under one roof. All methods take `&self` — one engine serves
/// every HTTP worker concurrently.
pub struct QueryEngine {
    reader: ArchiveReader,
    /// The manifest by stream, in stream order: stage 1's index.
    streams: Vec<StreamRange>,
    store_metrics: Arc<StoreMetrics>,
    metrics: Arc<QueryMetrics>,
    cache: SegmentCache,
    classifier: Classifier,
}

/// One stream's manifest entries in cell order, with two monotone
/// bounds over them. Only the zone-map times are read, never the cell's
/// name, so the slice stays exact whatever hours the cells are named.
struct StreamRange {
    stream: Stream,
    metas: Vec<SegmentMeta>,
    /// `max_end_upto[i]`: the largest `max_end` of `metas[..=i]`.
    max_end_upto: Vec<u64>,
    /// `min_start_from[i]`: the smallest `min_start` of `metas[i..]`.
    min_start_from: Vec<u64>,
}

impl StreamRange {
    /// `metas`: one stream's entries, in cell order.
    fn new(metas: &[SegmentMeta]) -> StreamRange {
        let mut hi = 0;
        let max_end_upto = metas
            .iter()
            .map(|m| {
                hi = hi.max(m.max_end);
                hi
            })
            .collect();
        let mut lo = u64::MAX;
        let mut min_start_from: Vec<u64> = metas
            .iter()
            .rev()
            .map(|m| {
                lo = lo.min(m.min_start);
                lo
            })
            .collect();
        min_start_from.reverse();
        StreamRange {
            stream: metas[0].cell.stream,
            metas: metas.to_vec(),
            max_end_upto,
            min_start_from,
        }
    }

    /// The entries that may overlap `window`: every entry before the
    /// slice ends before `window.from`, every entry after it starts at
    /// or past `window.to`, so `admits_meta` would refuse them all.
    fn candidates(&self, window: TimeRange) -> &[SegmentMeta] {
        let lo = self.max_end_upto.partition_point(|&e| e < window.from);
        let hi = self.min_start_from.partition_point(|&s| s < window.to);
        &self.metas[lo..hi.max(lo)]
    }
}

/// What one query matched, plus what the scan did to find it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOutput {
    /// Flow records matching every predicate.
    pub flows: u64,
    /// Their summed layer-3 bytes.
    pub bytes: u64,
    /// Their summed packets.
    pub packets: u64,
    /// Matched bytes binned by flow-start hour (unix hour-start → bytes),
    /// the same binning every paper figure uses.
    pub hourly: BTreeMap<u64, u64>,
    /// Segments admitted by pushdown (summed, decoded or served from
    /// cache).
    pub segments_scanned: u64,
    /// Segments skipped before decode.
    pub segments_pruned: u64,
    /// Of the scanned segments, how many came from the cache.
    pub segments_cached: u64,
    /// Of the scanned segments, how many were answered from their
    /// manifest entries alone.
    pub segments_summed: u64,
}

impl QueryOutput {
    /// Render as a JSON object (stable key order), into one string sized
    /// for its hourly bins.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        // A bin is at most `[`, two 20-digit numbers, `,` and `],`.
        let mut out = String::with_capacity(256 + 44 * self.hourly.len());
        write!(
            out,
            "{{\"flows\":{},\"bytes\":{},\"packets\":{},\"segments_scanned\":{},\"segments_pruned\":{},\"segments_cached\":{},\"segments_summed\":{},\"hourly\":[",
            self.flows,
            self.bytes,
            self.packets,
            self.segments_scanned,
            self.segments_pruned,
            self.segments_cached,
            self.segments_summed,
        )
        .expect("writing to a String");
        for (i, (h, b)) in self.hourly.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}[{h},{b}]").expect("writing to a String");
        }
        out.push_str("]}");
        out
    }
}

impl QueryEngine {
    /// Open the archive at `dir`. `Ok(None)` when no manifest exists.
    /// The classifier is built against the synthesized registry — the
    /// same deterministic Table 1 inventory every engine run uses.
    pub fn open(dir: &Path, cache_bytes: u64) -> Result<Option<QueryEngine>, StoreError> {
        let store_metrics = StoreMetrics::new();
        let reader = match ArchiveReader::open(dir, Arc::clone(&store_metrics))? {
            Some(r) => r,
            None => return Ok(None),
        };
        let metas: Vec<SegmentMeta> = reader.segments().copied().collect();
        // Manifest order is cell order, stream first: each stream is one run.
        let streams = metas
            .chunk_by(|a, b| a.cell.stream == b.cell.stream)
            .map(StreamRange::new)
            .collect();
        let metrics = QueryMetrics::new();
        Ok(Some(QueryEngine {
            reader,
            streams,
            store_metrics,
            cache: SegmentCache::new(cache_bytes, Arc::clone(&metrics)),
            metrics,
            classifier: Classifier::from_registry(&Registry::synthesize()),
        }))
    }

    /// The query-plane metrics family.
    pub fn metrics(&self) -> &Arc<QueryMetrics> {
        &self.metrics
    }

    /// The underlying manifest reader.
    pub fn reader(&self) -> &ArchiveReader {
        &self.reader
    }

    /// One combined Prometheus snapshot: the `query_*` family followed by
    /// the reader's `store_*` family.
    pub fn render_metrics(&self) -> String {
        let mut out = String::new();
        self.metrics.registry().render_into(&mut out);
        self.store_metrics.registry().render_into(&mut out);
        out
    }

    /// Read one cell through the cache: a hit returns the shared decoded
    /// batch, a miss decodes from disk, counts `query_segments_decoded`,
    /// and retains the batch under the byte budget.
    pub fn read_cell(&self, cell: Cell) -> Result<Arc<Vec<FlowRecord>>, StoreError> {
        self.read_cell_tracked(cell).map(|(records, _)| records)
    }

    /// `read_cell`, also reporting whether the batch came from the cache.
    fn read_cell_tracked(&self, cell: Cell) -> Result<(Arc<Vec<FlowRecord>>, bool), StoreError> {
        if let Some(records) = self.cache.get(cell) {
            return Ok((records, true));
        }
        Ok((self.retain(cell, self.reader.read_cell(cell)?), false))
    }

    /// Count a decoded batch and retain it in the cache.
    fn retain(&self, cell: Cell, records: Vec<FlowRecord>) -> Arc<Vec<FlowRecord>> {
        let records = Arc::new(records);
        self.metrics.segments_decoded.inc();
        self.cache.insert(cell, Arc::clone(&records));
        records
    }

    /// Execute one plan over the whole manifest with predicate pushdown.
    ///
    /// A CRC-failing segment among those the query reads aborts it with an
    /// error naming the segment (the caller degrades per supervisor
    /// conventions); it never poisons the engine — healthy segments keep
    /// serving other queries. A segment answered from its manifest entry
    /// is not read, so it cannot fail the query.
    pub fn execute(&self, plan: &QueryPlan) -> Result<QueryOutput, StoreError> {
        let window = plan.time_range();
        let streams = match plan.stream {
            Some(s) => match self.streams.binary_search_by_key(&s, |r| r.stream) {
                Ok(i) => &self.streams[i..=i],
                Err(_) => &[],
            },
            None => &self.streams[..],
        };
        let mut out = QueryOutput::default();
        let mut walked = 0;
        for range in streams {
            let slice = range.candidates(window);
            walked += slice.len() as u64;
            self.scan(plan, slice, plan.window_only(), &mut out)?;
        }
        out.segments_pruned += self.reader.segment_count() as u64 - walked;
        Ok(self.counted(out))
    }

    /// [`QueryEngine::execute`] by a walk of every manifest entry that
    /// decodes every segment it admits: the reference the ranged,
    /// summing walk must equal.
    #[cfg(test)]
    fn execute_full_walk(&self, plan: &QueryPlan) -> Result<QueryOutput, StoreError> {
        let mut out = QueryOutput::default();
        self.scan(plan, self.reader.segments(), false, &mut out)?;
        Ok(self.counted(out))
    }

    fn counted(&self, out: QueryOutput) -> QueryOutput {
        self.metrics.segments_pruned.add(out.segments_pruned);
        self.metrics.segments_scanned.add(out.segments_scanned);
        self.metrics.segments_summed.add(out.segments_summed);
        out
    }

    /// Run the four stages over `metas`, in their order, into `out`; the
    /// second only when `summed`, which the plan must allow
    /// ([`QueryPlan::window_only`]).
    fn scan<'a>(
        &self,
        plan: &QueryPlan,
        metas: impl IntoIterator<Item = &'a SegmentMeta>,
        summed: bool,
        out: &mut QueryOutput,
    ) -> Result<(), StoreError> {
        let window = plan.time_range();
        // The manifest is iterated without I/O; only survivors touch disk.
        for meta in metas {
            // Stage 1: manifest pruning (stream, time span, emptiness).
            if plan.stream.is_some_and(|s| meta.cell.stream != s) || !window.admits_meta(meta) {
                out.segments_pruned += 1;
                continue;
            }
            // Stage 2: every record of a segment the window holds whole
            // matches, and one that starts in one hour fills one bin.
            let hour = |t| Timestamp::from_unix(t).floor_hour().unix();
            if summed
                && window.admits_start(meta.min_start)
                && window.admits_start(meta.max_start)
                && hour(meta.min_start) == hour(meta.max_start)
            {
                out.segments_scanned += 1;
                out.segments_summed += 1;
                out.flows += meta.records;
                out.bytes = out.bytes.wrapping_add(meta.bytes);
                out.packets = out.packets.wrapping_add(meta.packets);
                let bin = out.hourly.entry(hour(meta.min_start)).or_insert(0);
                *bin = bin.wrapping_add(meta.bytes);
                continue;
            }
            // Stage 3: zone-map pruning for port predicates, on the footer
            // of the one read that decodes the segment if it is admitted.
            // A cached cell skips it — the decoded batch is free anyway.
            // Stage 4: decode (through the cache) and filter.
            let (records, was_hit) = match plan.port {
                Some(port) if !self.cache.contains(meta.cell) => {
                    let admits = |footer: &SegmentFooter| {
                        self.metrics.footer_reads.inc();
                        let excluded = |col: Column| {
                            footer.zone(col).is_some_and(|z| !z.admits(u64::from(port)))
                        };
                        !(excluded(Column::SrcPort) && excluded(Column::DstPort))
                    };
                    let mut records = Vec::new();
                    if !self
                        .reader
                        .read_cell_where(meta.cell, admits, &mut records)?
                    {
                        out.segments_pruned += 1;
                        continue;
                    }
                    (self.retain(meta.cell, records), false)
                }
                _ => self.read_cell_tracked(meta.cell)?,
            };
            out.segments_scanned += 1;
            if was_hit {
                out.segments_cached += 1;
            }
            for run in hour_runs(&records) {
                // The hour's bin exists only once a record of it matched.
                let mut hour_bytes: Option<u64> = None;
                for r in run.records {
                    if !plan.admits_record(r) {
                        continue;
                    }
                    if plan
                        .class
                        .is_some_and(|c| self.classifier.classify(r) != Some(c))
                    {
                        continue;
                    }
                    out.flows += 1;
                    out.packets = out.packets.wrapping_add(r.packets);
                    let sum = hour_bytes.get_or_insert(0);
                    *sum = sum.wrapping_add(r.bytes);
                }
                if let Some(bytes) = hour_bytes {
                    out.bytes = out.bytes.wrapping_add(bytes);
                    let bin = out.hourly.entry(run.hour_start.unix()).or_insert(0);
                    *bin = bin.wrapping_add(bytes);
                }
            }
        }
        Ok(())
    }
}

/// The arbitrary-record generator shared with the consumer tests.
#[cfg(test)]
#[path = "../../analysis/tests/support/mod.rs"]
mod hour_slices;

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_analysis::appclass::PaperClass;
    use lockdown_base::hash::SplitMix;
    use lockdown_flow::record::Direction;
    use lockdown_store::{ArchiveWriter, StoreKey};
    use lockdown_topology::vantage::VantagePoint;

    const STREAMS: [Stream; 4] = [
        Stream::Vantage(VantagePoint::IspCe),
        Stream::Vantage(VantagePoint::IxpCe),
        Stream::IspTransit,
        Stream::Edu,
    ];
    const DAYS: u64 = 10;

    /// A second somewhere in, or a day either side of, the archive's days.
    fn instant(rng: &mut SplitMix) -> u64 {
        let day0 = hour_slices::DAY.midnight().unix();
        day0 - 86_400 + rng.below((DAYS + 2) * 86_400)
    }

    /// An archive of up to `size / 4 + 3` cells whose names (stream,
    /// date, hour) are drawn apart from their records' times, which may
    /// span an hour, cross it or cross midnight; one cell in eight is
    /// empty, and one in eight carries byte and packet counts whose sums
    /// wrap. The last stream of [`STREAMS`] never appears. Returns every
    /// cell's earliest and latest start and latest end.
    fn archive(rng: &mut SplitMix, size: usize, dir: &Path) -> Vec<u64> {
        let _ = std::fs::remove_dir_all(dir);
        let key = StoreKey {
            seed: 1,
            scenario_hash: 2,
            plan_hash: 3,
        };
        let writer = ArchiveWriter::create(dir, key, StoreMetrics::new()).expect("create");
        let mut cells = BTreeMap::new();
        for _ in 0..1 + rng.below(size as u64 / 4 + 3) {
            let cell = Cell {
                stream: rng.pick(&STREAMS[..3]),
                date: hour_slices::DAY.add_days(rng.below(DAYS) as i64),
                hour: rng.below(24) as u8,
            };
            let n = if rng.chance(0.125) {
                0
            } else {
                1 + rng.below(6)
            };
            let widest = if rng.chance(0.5) { 3_600 } else { 3 * 86_400 };
            let span = 1 + rng.below(widest);
            let from = Timestamp::from_unix(instant(rng));
            let mut records = hour_slices::flows(rng, n as usize, from, span);
            if rng.chance(0.125) {
                for r in &mut records {
                    (r.bytes, r.packets) = (u64::MAX - rng.below(1 << 20), u64::MAX / 2);
                }
            }
            cells.insert(cell, records);
        }
        let mut edges = Vec::new();
        for (cell, records) in &cells {
            writer.spill(*cell, records).expect("spill");
            edges.extend(records.iter().map(|r| r.start.unix()).min());
            edges.extend(records.iter().map(|r| r.start.unix()).max());
            edges.extend(records.iter().map(|r| r.end.unix()).max());
        }
        writer.finish().expect("finish");
        edges
    }

    /// A plan with every predicate optional and windows that may be
    /// unbounded on either end, empty or inverted. Half the window ends
    /// sit on, or one second beside, a segment's `edges`.
    fn plan(rng: &mut SplitMix, edges: &[u64]) -> QueryPlan {
        let end = |rng: &mut SplitMix| match edges.len() {
            n if n > 0 && rng.chance(0.5) => edges[rng.below(n as u64) as usize] + rng.below(3) - 1,
            _ => instant(rng),
        };
        let from = rng.chance(0.7).then(|| end(rng));
        let to = match from {
            Some(f) if rng.chance(0.1) => Some(f),
            _ => rng.chance(0.7).then(|| end(rng)),
        };
        QueryPlan {
            from,
            to,
            stream: rng.chance(0.5).then(|| rng.pick(&STREAMS)),
            class: rng.chance(0.2).then(|| rng.pick(&PaperClass::ALL)),
            asn: rng
                .chance(0.2)
                .then(|| rng.pick(&[hour_slices::EYEBALL, 3_320, 15_169])),
            port: rng
                .chance(0.3)
                .then(|| rng.pick(&[22, 443, 8_801, 50_000, 7])),
            direction: rng
                .chance(0.2)
                .then(|| rng.pick(&[Direction::Ingress, Direction::Egress])),
        }
    }

    #[test]
    fn render_json_keeps_its_key_order_and_bins() {
        let mut out = QueryOutput {
            flows: 3,
            bytes: u64::MAX,
            packets: 7,
            segments_scanned: 5,
            segments_pruned: 2,
            segments_cached: 1,
            segments_summed: 4,
            ..QueryOutput::default()
        };
        let head = "{\"flows\":3,\"bytes\":18446744073709551615,\"packets\":7,\
                    \"segments_scanned\":5,\"segments_pruned\":2,\"segments_cached\":1,\
                    \"segments_summed\":4,\"hourly\":[";
        assert_eq!(out.render_json(), format!("{head}]}}"));
        out.hourly = BTreeMap::from([(3_600, 0), (u64::MAX, u64::MAX), (7_200, 9)]);
        assert_eq!(
            out.render_json(),
            format!("{head}[3600,0],[7200,9],[{0},{0}]]}}", u64::MAX)
        );
    }

    /// A port query on a cold cache reads each segment it touches once:
    /// a zone-pruned one for its footer, an admitted one for its footer
    /// and records from the same bytes. `store_bytes_read_total` counts
    /// both, and nothing the window prunes from the manifest.
    #[test]
    fn a_port_query_reads_each_touched_segment_once() {
        let dir = std::env::temp_dir().join(format!("lockdown-query-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = StoreKey {
            seed: 1,
            scenario_hash: 2,
            plan_hash: 3,
        };
        let writer = ArchiveWriter::create(&dir, key, StoreMetrics::new()).expect("create");
        let mut rng = SplitMix::new(0x443);
        // Two days of four hours; an even hour's flows all reach port 443,
        // an odd hour's never do.
        for date in [hour_slices::DAY, hour_slices::DAY.add_days(1)] {
            for hour in 0..4u8 {
                let cell = Cell {
                    stream: STREAMS[0],
                    date,
                    hour,
                };
                let records: Vec<FlowRecord> = (0..20)
                    .map(|_| {
                        let mut r = hour_slices::flow(&mut rng, date.at_hour(hour));
                        r.key.src_port = 40_000;
                        r.key.dst_port = if hour % 2 == 0 { 443 } else { 8_080 };
                        r
                    })
                    .collect();
                writer.spill(cell, &records).expect("spill");
            }
        }
        writer.finish().expect("finish");

        let engine = QueryEngine::open(&dir, 1 << 20).unwrap().unwrap();
        let day = hour_slices::DAY.midnight().unix();
        let plan = QueryPlan {
            from: Some(day),
            to: Some(day + 86_400),
            port: Some(443),
            ..QueryPlan::default()
        };
        let out = engine.execute(&plan).unwrap();
        assert_eq!((out.segments_scanned, out.segments_pruned), (2, 6));
        let touched: u64 = engine
            .reader
            .segments()
            .filter(|m| m.cell.date == hour_slices::DAY)
            .map(|m| m.len)
            .sum();
        assert_eq!(engine.store_metrics.bytes_read.get(), touched);
        assert_eq!(engine.metrics.footer_reads.get(), 4);
        assert_eq!(engine.metrics.segments_decoded.get(), 2);
        assert_eq!(engine.store_metrics.segments_read.get(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `execute` — a ranged walk that answers what it can from manifest
    /// entries — gives the answer of a walk of every entry that decodes
    /// every segment it admits.
    #[test]
    fn ranged_walk_equals_the_full_walk() {
        let dir =
            std::env::temp_dir().join(format!("lockdown-query-ranged-{}", std::process::id()));
        let record = std::mem::size_of::<FlowRecord>() as u64;
        let (mut summed, mut decoded) = (0, 0);
        lockdown_base::prop::cases(64, |rng, size| {
            let edges = archive(rng, size, &dir);
            let budget = rng.pick(&[0, 4 * record, 16 * record, 1 << 20]);
            let open = || QueryEngine::open(&dir, budget).unwrap().unwrap();
            let (ranged, full) = (open(), open());
            let mut seen = ([0; 3], [0; 3]);
            for _ in 0..8 {
                let plan = plan(rng, &edges);
                let got = ranged.execute(&plan).unwrap();
                let want = full.execute_full_walk(&plan).unwrap();
                let answer = |o: &QueryOutput| (o.flows, o.bytes, o.packets, o.hourly.clone());
                assert_eq!(answer(&got), answer(&want), "{plan:?}");
                // A port query zone-prunes a segment only when it is not
                // cached, and a summed segment never is: with a port the
                // two walks split the same total differently.
                let shape = |o: &QueryOutput| match plan.port {
                    None => (o.segments_scanned, o.segments_pruned),
                    Some(_) => (o.segments_scanned + o.segments_pruned, 0),
                };
                assert_eq!(shape(&got), shape(&want), "{plan:?}");
                assert!(got.segments_summed <= got.segments_scanned, "{plan:?}");
                assert_eq!(want.segments_summed, 0, "{plan:?}");
                summed += got.segments_summed;
                decoded += got.segments_scanned - got.segments_summed;
                // Each walk's counters move by its output: then the
                // counters the walks share are equal after every plan
                // without a port.
                for (engine, out, seen) in
                    [(&ranged, &got, &mut seen.0), (&full, &want, &mut seen.1)]
                {
                    let m = &engine.metrics;
                    let now = [&m.segments_scanned, &m.segments_pruned, &m.segments_summed]
                        .map(|c| c.get());
                    let moved: [u64; 3] = std::array::from_fn(|i| now[i] - seen[i]);
                    let shown = [
                        out.segments_scanned,
                        out.segments_pruned,
                        out.segments_summed,
                    ];
                    assert_eq!(moved, shown, "{plan:?}");
                    *seen = now;
                }
            }
        });
        // Both stages answered a share of the scanned segments.
        assert!(
            summed > 0 && decoded > 0,
            "{summed} summed, {decoded} decoded"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
