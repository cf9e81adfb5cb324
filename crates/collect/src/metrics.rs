//! The collection plane's metric family: `exporter_*`, `transport_*`,
//! `socket_*`, `queue_*`, `collector_*`, `engine_*` and `audit_*`,
//! declared once over the shared `lockdown_base::metrics` registry.
//!
//! All increments are sums of per-cell, content-derived event counts, so a
//! snapshot taken after an engine run is identical regardless of how many
//! worker threads processed the cells.

lockdown_base::metrics_family! {
    /// The full metric set of the collection plane, grouped by pipeline
    /// layer.
    pub struct CollectMetrics {
        exporter_sessions: counter("exporter_sessions_total", "Per-cell exporter sessions opened"),
        exporter_datagrams: counter("exporter_datagrams_total", "Datagrams emitted"),
        exporter_records: counter("exporter_records_total", "Flow records exported"),
        exporter_restarts: counter("exporter_restarts_total", "Scheduled exporter restarts"),
        exporter_fleet_size: gauge("exporter_fleet_size", "Configured exporters per stream"),
        transport_datagrams_delivered: counter(
            "transport_datagrams_delivered_total",
            "Datagrams delivered (duplicates included)"
        ),
        transport_datagrams_dropped: counter(
            "transport_datagrams_dropped_total",
            "Datagrams dropped in flight"
        ),
        transport_records_dropped: counter(
            "transport_records_dropped_total",
            "Ground-truth records inside dropped datagrams"
        ),
        transport_datagrams_duplicated: counter(
            "transport_datagrams_duplicated_total",
            "Datagrams duplicated in flight"
        ),
        transport_datagrams_reordered: counter(
            "transport_datagrams_reordered_total",
            "Adjacent datagram swaps applied"
        ),
        socket_datagrams_received: counter(
            "socket_datagrams_received_total",
            "Datagrams read off collectd UDP sockets"
        ),
        socket_bytes_received: counter(
            "socket_bytes_received_total",
            "Payload bytes read off collectd UDP sockets"
        ),
        /// (dropped at the socket; counted separately from queue drops).
        socket_datagrams_truncated: counter(
            "socket_datagrams_truncated_total",
            "Datagrams cut by the kernel at recv (never decoded)"
        ),
        socket_records_truncated: counter(
            "socket_records_truncated_total",
            "Header-claimed records inside truncated datagrams"
        ),
        /// (sent minus received, settled at cycle drain).
        socket_datagrams_kernel_dropped: counter(
            "socket_datagrams_kernel_dropped_total",
            "Datagrams dropped by the kernel before recv"
        ),
        /// (at the queue, not the socket: backpressure made explicit).
        queue_datagrams_dropped: counter(
            "queue_datagrams_dropped_total",
            "Datagrams dropped at a full shard queue"
        ),
        queue_capacity: gauge("queue_capacity", "Configured per-shard queue bound"),
        socket_receivers: gauge("socket_receivers", "Bound collectd receive sockets"),
        /// (the kernel default when no `--rcvbuf` tuning was requested).
        socket_rcvbuf_bytes: gauge(
            "socket_rcvbuf_bytes",
            "Kernel-granted SO_RCVBUF per receive socket"
        ),
        collector_datagrams: counter("collector_datagrams_total", "Datagrams presented to shards"),
        collector_records: counter("collector_records_total", "Records accepted by shards"),
        collector_sequence_gaps: counter(
            "collector_sequence_gaps_total",
            "Sequence-gap events observed"
        ),
        collector_records_lost_est: counter(
            "collector_records_lost_est_total",
            "Estimated records lost (sequence accounting)"
        ),
        collector_missing_template_sets: counter(
            "collector_missing_template_sets_total",
            "Data sets skipped for lack of a template"
        ),
        collector_datagrams_buffered: counter(
            "collector_datagrams_buffered_total",
            "Undecodable datagrams buffered awaiting a template"
        ),
        collector_duplicates_rejected: counter(
            "collector_duplicates_rejected_total",
            "Duplicate datagrams rejected"
        ),
        collector_malformed: counter("collector_malformed_total", "Malformed datagrams"),
        collector_restarts_detected: counter(
            "collector_restarts_detected_total",
            "Exporter restarts detected from boot-epoch shifts"
        ),
        collector_records_renormalized: counter(
            "collector_records_renormalized_total",
            "Records scaled by loss-aware renormalization"
        ),
        collector_shards: gauge("collector_shards", "Configured collector shards"),
        engine_cells_wired: counter(
            "engine_cells_wired_total",
            "Engine cells routed through the wire path"
        ),
        engine_flows_wired: counter(
            "engine_flows_wired_total",
            "Generated records entering the wire path"
        ),
        engine_flows_delivered: counter(
            "engine_flows_delivered_total",
            "Records delivered back to the engine"
        ),
        /// — the chaos surface; the supervisor retries the cell.
        exporter_stalls: counter(
            "exporter_stalls_total",
            "Injected exporter stall timeouts (attempt abandoned and retried)"
        ),
        audit_cells: gauge("audit_cells", "Cells covered by the conservation audit"),
        audit_violations: gauge(
            "audit_violations",
            "Conservation-identity violations found by the audit"
        ),
    }
}
