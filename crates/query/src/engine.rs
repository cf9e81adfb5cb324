//! Predicate-pushdown execution against the archive manifest.
//!
//! [`QueryEngine::execute`] resolves a [`QueryPlan`] in three stages,
//! cheapest first:
//!
//! 1. **Manifest pruning** (no I/O): segments whose stream doesn't match,
//!    whose `[min_start, max_end]` span cannot overlap the time window,
//!    or which hold zero records are skipped outright.
//! 2. **Zone-map pruning** (footer read, no column decode): with a port
//!    predicate, the segment footer's `SrcPort`/`DstPort` zone maps are
//!    consulted — a port outside *both* zones proves no record matches
//!    (a flow matches on either end, so only double exclusion prunes).
//! 3. **Decode + filter**: surviving segments are decoded through the
//!    byte-budgeted [`SegmentCache`] and filtered record-by-record.
//!
//! Every stage is counted in the `query_*` registry, so "pruning is
//! real" is an assertable property, not a code comment.

use crate::cache::SegmentCache;
use crate::metrics::QueryMetrics;
use crate::plan::QueryPlan;
use lockdown_analysis::appclass::Classifier;
use lockdown_flow::record::{hour_runs, FlowRecord};
use lockdown_store::{ArchiveReader, Column, StoreError, StoreMetrics};
use lockdown_topology::registry::Registry;
use lockdown_traffic::plan::Cell;
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
    store_metrics: Arc<StoreMetrics>,
    metrics: Arc<QueryMetrics>,
    cache: SegmentCache,
    classifier: Classifier,
}

/// What one query matched, plus what the scan did to find it.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Segments admitted by pushdown (decoded or served from cache).
    pub segments_scanned: u64,
    /// Segments skipped before decode.
    pub segments_pruned: u64,
    /// Of the scanned segments, how many came from the cache.
    pub segments_cached: u64,
}

impl QueryOutput {
    /// Render as a JSON object (stable key order).
    pub fn render_json(&self) -> String {
        let hourly: Vec<String> = self
            .hourly
            .iter()
            .map(|(h, b)| format!("[{h},{b}]"))
            .collect();
        format!(
            "{{\"flows\":{},\"bytes\":{},\"packets\":{},\"segments_scanned\":{},\"segments_pruned\":{},\"segments_cached\":{},\"hourly\":[{}]}}",
            self.flows,
            self.bytes,
            self.packets,
            self.segments_scanned,
            self.segments_pruned,
            self.segments_cached,
            hourly.join(",")
        )
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
        let metrics = QueryMetrics::new();
        Ok(Some(QueryEngine {
            reader,
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

    /// The store metrics backing the reader (decode I/O accounting).
    pub fn store_metrics(&self) -> &Arc<StoreMetrics> {
        &self.store_metrics
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
        let records = Arc::new(self.reader.read_cell(cell)?);
        self.metrics.segments_decoded.inc();
        self.cache.insert(cell, Arc::clone(&records));
        Ok((records, false))
    }

    /// Execute one plan over the whole manifest with predicate pushdown.
    ///
    /// A CRC-failing segment aborts the query with an error naming the
    /// segment (the caller degrades per supervisor conventions); it never
    /// poisons the engine — healthy segments keep serving other queries.
    pub fn execute(&self, plan: &QueryPlan) -> Result<QueryOutput, StoreError> {
        let window = plan.time_range();
        let mut out = QueryOutput {
            flows: 0,
            bytes: 0,
            packets: 0,
            hourly: BTreeMap::new(),
            segments_scanned: 0,
            segments_pruned: 0,
            segments_cached: 0,
        };
        // The manifest is iterated without I/O; only survivors touch disk.
        for meta in self.reader.segments() {
            // Stage 1: manifest pruning (stream, time span, emptiness).
            if plan.stream.is_some_and(|s| meta.cell.stream != s) || !window.admits_meta(meta) {
                out.segments_pruned += 1;
                continue;
            }
            // Stage 2: zone-map pruning for port predicates. Skip the
            // footer read when the cell is already cached — the decoded
            // batch is free anyway.
            if let Some(port) = plan.port {
                if !self.cache.contains(meta.cell) {
                    let footer = self.reader.read_footer(meta.cell)?;
                    self.metrics.footer_reads.inc();
                    let excluded =
                        |col: Column| footer.zone(col).is_some_and(|z| !z.admits(u64::from(port)));
                    if excluded(Column::SrcPort) && excluded(Column::DstPort) {
                        out.segments_pruned += 1;
                        continue;
                    }
                }
            }
            // Stage 3: decode (through the cache) and filter.
            let (records, was_hit) = self.read_cell_tracked(meta.cell)?;
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
                    out.packets += r.packets;
                    *hour_bytes.get_or_insert(0) += r.bytes;
                }
                if let Some(bytes) = hour_bytes {
                    out.bytes += bytes;
                    *out.hourly.entry(run.hour_start.unix()).or_insert(0) += bytes;
                }
            }
        }
        self.metrics.segments_pruned.add(out.segments_pruned);
        self.metrics.segments_scanned.add(out.segments_scanned);
        Ok(out)
    }
}
