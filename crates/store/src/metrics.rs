//! The `store_*` metrics family: archive I/O accounting.
//!
//! Declared over the shared `lockdown_base::metrics` registry so one
//! combined Prometheus-style snapshot can carry query metrics and store
//! metrics side by side (`render_into` composes them).

lockdown_base::metrics_family! {
    /// Counters for archive writes, reads, pruning and corruption.
    pub struct StoreMetrics {
        segments_written: counter("store_segments_written_total", "Segments written"),
        bytes_written: counter("store_bytes_written_total", "Segment bytes written"),
        records_written: counter(
            "store_records_written_total",
            "Flow records spilled into segments"
        ),
        segments_read: counter("store_segments_read_total", "Segments decoded"),
        bytes_read: counter("store_bytes_read_total", "Segment bytes read"),
        records_read: counter("store_records_read_total", "Flow records decoded from segments"),
        segments_pruned: counter(
            "store_segments_pruned_total",
            "Archived segments skipped by zone-map/demand pruning"
        ),
        crc_failures: counter(
            "store_crc_failures_total",
            "Segments rejected for CRC or structural corruption"
        ),
        segments_resumed: counter(
            "store_segments_resumed_total",
            "Segments adopted from a journal or stale manifest during resume"
        ),
        resume_rejected: counter(
            "store_resume_rejected_total",
            "Resume candidates rejected (corrupt index, missing or short file)"
        ),
        journal_checkpoints: counter(
            "store_journal_checkpoints_total",
            "Journal snapshots published"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_base::metrics::MetricKind;

    #[test]
    fn renders_the_store_family() {
        let m = StoreMetrics::new();
        m.segments_written.add(3);
        m.crc_failures.inc();
        let text = m.render();
        assert!(text.contains("store_segments_written_total 3"));
        assert!(text.contains("store_crc_failures_total 1"));
        assert!(text.contains("\nstore_bytes_read_total 0\n"));
        assert_eq!(m.bytes_read.kind(), MetricKind::Counter);
    }
}
