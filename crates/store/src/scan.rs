//! Scan windows: the time predicate a predicate-pushdown scan prunes
//! segments with, before opening them.

use crate::archive::SegmentMeta;

/// A half-open `[from, to)` window over flow *start* seconds, the
/// normalization every predicate-pushdown scan uses.
///
/// The asymmetry is deliberate and matches how the paper bins traffic:
/// hour bins are `[h, h+1)`, so a record starting exactly at `to` belongs
/// to the *next* window. Segment footers, by contrast, record an
/// *inclusive* `[min_start, max_end]` span — `TimeRange::admits_span`
/// translates between the two conventions so boundary segments are never
/// wrongly pruned (a record starting exactly at `from` must survive) and
/// never wrongly scanned (a segment whose earliest start is exactly `to`
/// cannot match).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRange {
    /// First admitted start second (inclusive).
    pub from: u64,
    /// First excluded start second (exclusive).
    pub to: u64,
}

impl TimeRange {
    /// Whether the range admits nothing (`from >= to`).
    pub fn is_empty(&self) -> bool {
        self.from >= self.to
    }

    /// Whether one record start falls inside the window.
    pub fn admits_start(&self, start: u64) -> bool {
        self.from <= start && start < self.to
    }

    /// Whether a segment spanning the *inclusive* `[min_start, max_end]`
    /// footer range may hold a matching record. Conservative in one
    /// direction only: a `true` may still decode to zero matches (the
    /// footer stores `max_end`, not the latest start), but `false` is a
    /// proof — no record in the segment can start inside the window.
    pub(crate) fn admits_span(&self, min_start: u64, max_end: u64) -> bool {
        !self.is_empty() && min_start < self.to && self.from <= max_end
    }

    /// Segment-level pruning decision from a manifest entry alone (no
    /// file I/O): empty segments and segments whose time span cannot
    /// overlap the window are pruned.
    pub fn admits_meta(&self, meta: &SegmentMeta) -> bool {
        meta.records > 0 && self.admits_span(meta.min_start, meta.max_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{ArchiveReader, ArchiveWriter, StoreKey};
    use crate::metrics::StoreMetrics;
    use lockdown_flow::record::{FlowKey, FlowRecord};
    use lockdown_flow::time::Date;
    use lockdown_topology::vantage::VantagePoint;
    use lockdown_traffic::plan::{Cell, Stream};
    use std::net::Ipv4Addr;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lockdown-scan-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell(hour: u8) -> Cell {
        Cell {
            stream: Stream::Vantage(VantagePoint::IxpCe),
            date: Date::new(2020, 3, 25),
            hour,
        }
    }

    fn one_record(cell: Cell) -> Vec<FlowRecord> {
        vec![FlowRecord::builder(
            FlowKey {
                src_addr: Ipv4Addr::new(10, 0, 0, 1),
                dst_addr: Ipv4Addr::new(10, 0, 0, 2),
                src_port: 1,
                dst_port: 2,
                protocol: lockdown_flow::protocol::IpProtocol::Udp,
            },
            cell.date.at_hour(cell.hour),
        )
        .build()]
    }

    #[test]
    fn time_range_boundaries_are_half_open() {
        let t = 1_584_000_000u64; // some instant
        let r = TimeRange { from: t, to: t + 1 };
        // Exactly-at-from is admitted; exactly-at-to is not.
        assert!(r.admits_start(t));
        assert!(!r.admits_start(t + 1));
        assert!(!r.admits_start(t.wrapping_sub(1)));

        // A single-instant segment (min_start == max_end == t, the
        // min==max degenerate case) is admitted only by windows that
        // contain t.
        assert!(r.admits_span(t, t));
        assert!(TimeRange {
            from: t,
            to: u64::MAX
        }
        .admits_span(t, t));
        // Window starting one past the instant: pruned.
        assert!(!TimeRange {
            from: t + 1,
            to: u64::MAX
        }
        .admits_span(t, t));
        // Window ending exactly at the instant (to == t, exclusive):
        // pruned — no start in [from, t) can be t.
        assert!(!TimeRange { from: 0, to: t }.admits_span(t, t));
        // Window ending one past: admitted.
        assert!(TimeRange { from: 0, to: t + 1 }.admits_span(t, t));

        // Predicate edges against a real span [t, t+3600]: from == max_end
        // still admits (a record could start at max_end when duration 0),
        // from == max_end + 1 prunes; to == min_start prunes, to ==
        // min_start + 1 admits.
        let (lo, hi) = (t, t + 3600);
        assert!(TimeRange {
            from: hi,
            to: u64::MAX
        }
        .admits_span(lo, hi));
        assert!(!TimeRange {
            from: hi + 1,
            to: u64::MAX
        }
        .admits_span(lo, hi));
        assert!(!TimeRange { from: 0, to: lo }.admits_span(lo, hi));
        assert!(TimeRange {
            from: 0,
            to: lo + 1
        }
        .admits_span(lo, hi));

        // Empty ranges admit nothing, whatever the span.
        let empty = TimeRange { from: t, to: t };
        assert!(empty.is_empty());
        assert!(!empty.admits_start(t));
        assert!(!empty.admits_span(0, u64::MAX));
        let inverted = TimeRange {
            from: t + 10,
            to: t,
        };
        assert!(inverted.is_empty());
        assert!(!inverted.admits_span(lo, hi));
    }

    #[test]
    fn zone_and_meta_pruning_boundaries() {
        use crate::segment::Column;

        let dir = tmp_dir("zones");
        let metrics = StoreMetrics::new();
        let key = StoreKey {
            seed: 4,
            scenario_hash: 5,
            plan_hash: 6,
        };
        let w = ArchiveWriter::create(&dir, key, Arc::clone(&metrics)).unwrap();
        // cell(0): one record, single-valued columns (src_port == 1,
        // dst_port == 2); cell(1): empty segment.
        w.spill(cell(0), &one_record(cell(0))).unwrap();
        w.spill(cell(1), &[]).unwrap();
        w.finish().unwrap();
        let r = ArchiveReader::open(&dir, Arc::clone(&metrics))
            .unwrap()
            .unwrap();

        // Single-value column: min == max, and the zone admits exactly
        // that value — one below and one above are excluded.
        let footer = r.read_footer(cell(0)).unwrap();
        let src = footer.zone(Column::SrcPort).unwrap();
        assert_eq!((src.min, src.max), (1, 1));
        assert!(src.admits(1));
        assert!(!src.admits(0));
        assert!(!src.admits(2));
        let dst = footer.zone(Column::DstPort).unwrap();
        assert!(dst.admits(2) && !dst.admits(1) && !dst.admits(3));

        // The footer path reports the same counts/span as the manifest.
        let meta = r.meta(cell(0)).unwrap();
        assert_eq!(footer.records, meta.records);
        assert_eq!(footer.min_start, meta.min_start);
        assert_eq!(footer.max_end, meta.max_end);

        // Meta-level pruning: the record starts exactly at the cell hour;
        // a window starting there admits, the empty segment never does.
        let start = cell(0).date.at_hour(0).unix();
        let window = TimeRange {
            from: start,
            to: start + 1,
        };
        assert!(window.admits_meta(meta));
        assert!(!window.admits_meta(r.meta(cell(1)).unwrap()));
        // Even an all-admitting window prunes the empty segment (its
        // zeroed footer span must not be mistaken for the epoch).
        let all = TimeRange {
            from: 0,
            to: u64::MAX,
        };
        assert!(!all.admits_meta(r.meta(cell(1)).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
