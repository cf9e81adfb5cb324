//! The one stage pipeline both wire planes run.
//!
//! A [`Plane`] pushes every cell through the same export stage and the
//! same collect stage and keeps the same books: metrics and the
//! conservation ledger. The two planes differ only in the
//! transit `T` between the stages: [`crate::Loopback`] (the seeded
//! in-process [`crate::Transport`]) or [`crate::daemon::Sockets`] (real UDP
//! plus a manifest diff), which also posts its own part of the cell's
//! ledger entry.

use std::sync::Arc;

use lockdown_flow::prelude::*;
use lockdown_traffic::plan::Cell;

use crate::audit::{CellLedger, Counts, Ledger, Report};
use crate::fleet::{ExporterFleet, FleetTruth, WireDatagram};
use crate::metrics::CollectMetrics;
use crate::shard::{SequenceUnits, ShardSet};
use crate::WireConfig;

/// The export → transit → collect path for engine cells.
///
/// With `T = Loopback` the plane is `Sync`: per-cell state (fleet,
/// transport, shards) is built inside `process_cell` from the cell's
/// deterministic seed, and the shared metrics are atomic, so engine
/// workers can process disjoint cells concurrently without coordination.
#[derive(Debug)]
pub struct Plane<T> {
    pub(crate) cfg: WireConfig,
    pub(crate) metrics: Arc<CollectMetrics>,
    ledger: Ledger,
    pub(crate) transit: T,
}

/// Export-stage ground truth the collect stage closes sessions (and the
/// ledger) against, snapshotted before the transit consumes the datagrams.
pub(crate) struct Exported {
    truth: FleetTruth,
    volume: Counts,
    datagrams: u64,
    sequence_units: u64,
}

/// The audit key of one engine cell.
fn cell_key(cell: &Cell) -> crate::audit::CellKey {
    crate::audit::CellKey {
        wire_id: cell.stream.wire_id(),
        day_number: cell.date.day_number(),
        hour: cell.hour,
    }
}

/// Record/byte/packet volume of a record slice.
fn volume(records: &[FlowRecord]) -> Counts {
    Counts {
        records: records.len() as u64,
        bytes: records.iter().map(|r| r.bytes).sum(),
        packets: records.iter().map(|r| r.packets).sum(),
    }
}

impl<T> Plane<T> {
    /// A plane over `transit` posting to `metrics` and to a fresh
    /// conservation ledger.
    pub(crate) fn over(cfg: WireConfig, metrics: Arc<CollectMetrics>, transit: T) -> Plane<T> {
        Plane {
            cfg,
            metrics,
            ledger: Ledger::new(),
            transit,
        }
    }

    /// Shared handle to the plane's metrics.
    pub fn metrics(&self) -> Arc<CollectMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Post what the analysis layer actually consumed for one cell. Called
    /// by the engine after `process_cell`, closing the last link of the
    /// conservation chain.
    pub fn note_consumed(&self, cell: &Cell, records: &[FlowRecord]) {
        let consumed = volume(records);
        self.ledger
            .record(cell_key(cell), |c| c.consumed.add(consumed));
    }

    /// Record one injected exporter stall: the fleet timed out before
    /// delivering, so the attempt is abandoned and the supervisor
    /// retries. Only the stall counter moves — conservation stages are
    /// posted by the (later, successful) attempt.
    pub fn note_stalled(&self) {
        self.metrics.exporter_stalls.inc();
    }

    /// Mark one cell quarantined in the conservation ledger: it exhausted
    /// its attempt budget and never delivered, so the auditor must not
    /// hold it to the usual conservation identities.
    pub fn note_quarantined(&self, cell: &Cell) {
        self.ledger.record(cell_key(cell), |c| c.quarantined = true);
    }

    /// Audit every cell ledger and return the report. Also mirrors the
    /// outcome into the `audit_*` metrics.
    pub fn audit_report(&self) -> Report {
        let report = self.ledger.report();
        self.metrics.audit_cells.set_max(report.cells);
        self.metrics
            .audit_violations
            .set_max(report.violations.len() as u64);
        report
    }

    /// Export stage: encode one cell's flows through a fresh exporter
    /// fleet. Returns the datagrams in emission order and the ground
    /// truth [`Plane::collect`] needs.
    pub(crate) fn export(
        &self,
        cell: &Cell,
        flows: &[FlowRecord],
    ) -> (Vec<WireDatagram>, Exported) {
        let m = &*self.metrics;
        m.engine_cells_wired.inc();
        m.engine_flows_wired.add(flows.len() as u64);

        let hour_start = cell.date.at_hour(cell.hour);
        // Export strictly after the last flow ends so uptime-relative
        // encodings (v5/v9) can express every timestamp.
        let now = flows
            .iter()
            .map(|f| f.end)
            .max()
            .unwrap_or_else(|| hour_start.add_hours(1))
            .add_secs(1);

        let mut fleet =
            ExporterFleet::new(self.cfg.fleet_config(), cell.stream.wire_id(), hour_start);
        let (datagrams, truth) = fleet.export_cell(flows, now);
        m.exporter_sessions.add(fleet.len() as u64);
        m.exporter_datagrams.add(truth.datagrams);
        m.exporter_records.add(truth.sent_records);
        m.exporter_restarts.add(truth.restarts);
        m.exporter_fleet_size.set_max(fleet.len() as u64);

        let exported = Exported {
            volume: Counts {
                records: datagrams.iter().map(|d| u64::from(d.records)).sum(),
                bytes: datagrams.iter().map(|d| d.flow_bytes).sum(),
                packets: datagrams.iter().map(|d| d.flow_packets).sum(),
            },
            datagrams: datagrams.len() as u64,
            sequence_units: truth.sessions.iter().map(|s| s.units_sent).sum(),
            truth,
        };
        (datagrams, exported)
    }

    /// Collect stage: close the shards' sessions against the export
    /// truth, post the `collector_*` family and the cell's ledger entry,
    /// in which `transit` posts what became of the
    /// datagrams in between. Returns what the shards accepted (possibly
    /// renormalized under loss).
    pub(crate) fn collect(
        &self,
        cell: &Cell,
        flows: &[FlowRecord],
        exported: Exported,
        mut shards: ShardSet,
        transit: impl FnOnce(&mut CellLedger),
    ) -> Vec<FlowRecord> {
        let truth = &exported.truth;
        let records = shards.close(&truth.sessions, self.cfg.renormalize);
        let t = shards.totals();
        let m = &*self.metrics;
        m.collector_datagrams.add(t.datagrams);
        m.collector_records.add(t.records_accepted);
        m.collector_sequence_gaps.add(t.sequence_gaps);
        m.collector_records_lost_est.add(t.records_lost_est);
        m.collector_missing_template_sets
            .add(t.missing_template_sets);
        m.collector_datagrams_buffered.add(t.buffered);
        m.collector_duplicates_rejected.add(t.duplicates);
        m.collector_malformed.add(t.malformed);
        m.collector_restarts_detected.add(t.restarts_detected);
        m.collector_records_renormalized.add(t.records_renormalized);
        m.collector_shards.set_max(self.cfg.shards as u64);
        m.engine_flows_delivered.add(records.len() as u64);

        let generated = volume(flows);
        let units_exact = SequenceUnits::for_format(self.cfg.format) != SequenceUnits::Packets;
        let sampling = self.cfg.sampling.is_some_and(|r| r > 1);
        self.ledger.record(cell_key(cell), |c| {
            c.generated.add(generated);
            c.sampled_out += truth.sampled_out;
            c.exported.add(exported.volume);
            c.export_units += exported.sequence_units;
            c.offered_datagrams += exported.datagrams;
            transit(c);
            c.accepted.add(Counts {
                records: t.records_accepted,
                bytes: t.bytes_accepted,
                packets: t.packets_accepted,
            });
            c.rejected_duplicate += t.records_duplicate;
            c.rejected_anomalous += t.records_anomalous;
            c.rejected_malformed += t.records_malformed;
            c.undecoded += t.records_undecoded;
            c.abandoned_records += t.records_abandoned;
            c.abandoned_units += t.units_abandoned;
            c.est_lost += t.records_lost_est;
            c.renorm_bytes_added += t.renorm_bytes_added;
            c.renorm_packets_added += t.renorm_packets_added;
            c.renorm_clipped += t.renorm_clipped;
            c.units_exact = units_exact;
            c.sampling = sampling;
        });
        records
    }
}
