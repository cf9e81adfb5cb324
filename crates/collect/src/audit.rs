//! Conservation-audit ledger for the measurement pipeline.
//!
//! The wire-mode pipeline moves flow records through four stages — traffic
//! generation, exporter fleets, the fault-injecting transport, and the
//! collector shards — before the analysis consumers see them. Every stage
//! keeps exact ground truth about what it passed on, rejected, or lost, so
//! the whole pipeline obeys *conservation identities*: nothing appears or
//! disappears except through an explicitly accounted channel (a sampled-out
//! flow, a dropped datagram, an abandoned buffer, a rejected duplicate).
//!
//! This module is the ledger those stages post to, plus the checker. Each
//! engine cell — one `(vantage, date, hour)` — gets its own `CellLedger`;
//! `Ledger::report` verifies every identity in every cell and renders a
//! human-readable violation report. The identities are chosen so that the
//! u32-wraparound bug family this subsystem guards against (wrapped
//! sequence counters read as 4-billion-unit gaps, wrapped uptime clocks
//! read as exporter restarts, narrowing renormalization arithmetic) shows
//! up as an exact imbalance instead of a silent drift.
//!
//! The ledger knows nothing about flows or datagrams — only counts — so
//! every pipeline layer can post to it without cycles. The rule that keeps
//! it so: outside its tests this module imports from `std` alone, and
//! `scripts/verify.sh` fails on an import from this crate or another
//! workspace crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A records/bytes/packets triple — the three units volume accounting
/// happens in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Flow records.
    pub records: u64,
    /// Flow byte counters.
    pub bytes: u64,
    /// Flow packet counters.
    pub packets: u64,
}

impl Counts {
    /// Element-wise accumulate.
    pub(crate) fn add(&mut self, other: Counts) {
        self.records += other.records;
        self.bytes += other.bytes;
        self.packets += other.packets;
    }
}

/// Identifies one engine cell: a stream's wire id and the hour it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// Stream wire id (stable across runs).
    pub wire_id: u32,
    /// Day number of the cell's date (days since the civil epoch).
    pub day_number: i64,
    /// Hour of day, 0..24.
    pub hour: u8,
}

/// Everything the pipeline stages posted about one cell.
///
/// Fields are grouped by the stage that owns them; the checker in
/// [`CellLedger::violations`] relates adjacent stages.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellLedger {
    // --- traffic generation ---
    /// Flow records (and their volume) generated for the cell.
    pub generated: Counts,

    // --- exporter fleet ---
    /// Records the in-band samplers dropped before the wire.
    pub sampled_out: u64,
    /// Ground-truth record tags (and raw volume) placed on the wire.
    pub exported: Counts,
    /// Unwrapped sequence units sent across all observation domains.
    pub export_units: u64,
    /// Datagrams the fleet emitted (what the transport was offered).
    pub offered_datagrams: u64,

    // --- transport (exact fault ground truth) ---
    /// Datagrams delivered to the collector (duplicates included).
    pub delivered_datagrams: u64,
    /// Datagrams dropped in flight.
    pub dropped_datagrams: u64,
    /// Records (and volume) inside dropped datagrams.
    pub dropped: Counts,
    /// Duplicate datagrams injected.
    pub duplicated_datagrams: u64,
    /// Record tags inside injected duplicates.
    pub duplicated_records: u64,

    // --- socket edge (real-UDP transport only) ---
    /// Whether the cell crossed real UDP sockets: the transport drop
    /// ground truth is then a *decomposition* — every dropped datagram is
    /// attributed to the kernel, a full shard queue, or a truncated read.
    pub socket: bool,
    /// Datagrams the kernel dropped before `recv` (sent minus received,
    /// settled at cycle drain).
    pub socket_kernel_dropped: u64,
    /// Datagrams dropped at a full shard queue after being received.
    pub socket_queue_dropped: u64,
    /// Datagrams cut by the kernel at `recv` and discarded undecoded.
    pub socket_truncated: u64,

    // --- collector shards ---
    /// Records (and volume) accepted, before loss renormalization.
    pub accepted: Counts,
    /// Record tags in duplicate-rejected datagrams.
    pub rejected_duplicate: u64,
    /// Record tags in anomaly-rejected datagrams.
    pub rejected_anomalous: u64,
    /// Record tags in malformed datagrams.
    pub rejected_malformed: u64,
    /// Record tags in accepted datagrams whose sets stayed undecodable.
    pub undecoded: u64,
    /// Record tags in buffered datagrams abandoned at close.
    pub abandoned_records: u64,
    /// Distinct sequence units abandoned at close.
    pub abandoned_units: u64,
    /// Estimated records lost (sequence accounting at close).
    pub est_lost: u64,
    /// Bytes added by loss-aware renormalization.
    pub renorm_bytes_added: u64,
    /// Packets added by loss-aware renormalization.
    pub renorm_packets_added: u64,
    /// Records whose renormalized counters clipped at `u64::MAX`.
    pub renorm_clipped: u64,

    // --- analysis ---
    /// Records (and volume) handed to the analysis consumers.
    pub consumed: Counts,

    // --- context flags ---
    /// Whether one sequence unit is one record (v5 flows / IPFIX records).
    /// v9 counts packets, making the loss estimate an estimate.
    pub units_exact: bool,
    /// Whether in-band sampling (rate > 1) was active — byte/packet
    /// volumes are then unbiased estimates, not identities.
    pub sampling: bool,
    /// Whether the supervisor quarantined this cell: it exhausted its
    /// retry budget and never delivered. A quarantined cell is a
    /// first-class conservation outcome — its only obligation is that
    /// nothing was consumed downstream.
    pub quarantined: bool,
}

/// One failed conservation identity in one cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// The cell the identity failed in.
    pub cell: CellKey,
    /// Short identity name (stable, machine-matchable).
    pub identity: &'static str,
    /// Human-readable `lhs != rhs` expansion.
    pub detail: String,
}

impl CellLedger {
    /// Check every applicable conservation identity, returning one
    /// [`Violation`] per failed identity.
    pub(crate) fn violations(&self, cell: CellKey) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut check = |identity: &'static str, lhs: u64, rhs: u64, what: &str| {
            if lhs != rhs {
                out.push(Violation {
                    cell,
                    identity,
                    detail: format!("{what}: {lhs} != {rhs}"),
                });
            }
        };

        // A quarantined cell never delivered: whatever partial attempts
        // posted, the stage-to-stage identities do not apply. The one
        // thing that must still hold is that analysis consumed nothing.
        if self.quarantined {
            check(
                "quarantine-unconsumed",
                self.consumed.records,
                0,
                "records consumed from a quarantined cell",
            );
            return out;
        }

        // (1) Exporter: what reaches the wire is what was generated minus
        // what the sampler dropped.
        check(
            "export-records",
            self.exported.records + self.sampled_out,
            self.generated.records,
            "exported + sampled_out vs generated records",
        );
        if !self.sampling {
            check(
                "export-bytes",
                self.exported.bytes,
                self.generated.bytes,
                "exported vs generated bytes",
            );
            check(
                "export-packets",
                self.exported.packets,
                self.generated.packets,
                "exported vs generated packets",
            );
        }

        // (2) Transport: datagram flow conservation against exact fault
        // ground truth.
        check(
            "transport-datagrams",
            self.delivered_datagrams + self.dropped_datagrams,
            self.offered_datagrams + self.duplicated_datagrams,
            "delivered + dropped vs offered + duplicated datagrams",
        );

        // (2b) Socket edge: when the cell crossed real UDP sockets, every
        // dropped datagram must be attributed to exactly one of the three
        // drop sites — the kernel socket buffer, a full shard queue, or a
        // truncated read. An unattributed drop means a datagram vanished
        // at the wire edge without being counted anywhere.
        if self.socket {
            check(
                "socket-conservation",
                self.socket_kernel_dropped + self.socket_queue_dropped + self.socket_truncated,
                self.dropped_datagrams,
                "kernel + queue + truncated drops vs dropped datagrams",
            );
        }

        // (3) Collector: every delivered record tag lands in exactly one
        // bucket — accepted, undecodable, rejected, or abandoned.
        let delivered_tags = self.exported.records - self.dropped.records + self.duplicated_records;
        check(
            "collector-partition",
            self.accepted.records
                + self.undecoded
                + self.rejected_duplicate
                + self.rejected_anomalous
                + self.rejected_malformed
                + self.abandoned_records,
            delivered_tags,
            "collector buckets vs delivered record tags",
        );

        // (4) Loss estimate: with record-counting sequence units and no
        // rejected inconsistencies, the estimate is not an estimate — it
        // equals the transport's dropped records plus what the collector
        // itself gave up on.
        if self.units_exact && self.rejected_anomalous == 0 && self.rejected_malformed == 0 {
            check(
                "loss-exactness",
                self.est_lost,
                self.dropped.records + self.abandoned_units + self.undecoded,
                "estimated loss vs dropped + abandoned + undecoded ground truth",
            );
            // (6) End to end: generated records either reach analysis, were
            // sampled out, or are accounted as lost.
            check(
                "end-to-end-records",
                self.accepted.records + self.est_lost + self.sampled_out,
                self.generated.records,
                "accepted + est_lost + sampled_out vs generated records",
            );
        }

        // (5) Analysis hand-off: consumers see exactly the accepted
        // records, with volumes inflated only by accounted renormalization.
        check(
            "consume-records",
            self.consumed.records,
            self.accepted.records,
            "consumed vs accepted records",
        );
        check(
            "consume-bytes",
            self.consumed.bytes,
            self.accepted.bytes + self.renorm_bytes_added,
            "consumed vs accepted + renormalized bytes",
        );
        check(
            "consume-packets",
            self.consumed.packets,
            self.accepted.packets + self.renorm_packets_added,
            "consumed vs accepted + renormalized packets",
        );

        // (7) Fault-free cells must balance *exactly*, volume included:
        // this is the identity a wraparound bug breaks first.
        let fault_free = self.dropped_datagrams == 0
            && self.duplicated_datagrams == 0
            && self.abandoned_records == 0
            && self.undecoded == 0
            && self.rejected_duplicate == 0
            && self.rejected_anomalous == 0
            && self.rejected_malformed == 0
            && self.sampled_out == 0;
        if fault_free {
            check(
                "fault-free-loss",
                self.est_lost,
                0,
                "loss estimated in a fault-free cell",
            );
            check(
                "fault-free-records",
                self.accepted.records,
                self.generated.records,
                "accepted vs generated records without faults",
            );
            if !self.sampling {
                check(
                    "fault-free-bytes",
                    self.accepted.bytes,
                    self.generated.bytes,
                    "accepted vs generated bytes without faults",
                );
                check(
                    "fault-free-packets",
                    self.accepted.packets,
                    self.generated.packets,
                    "accepted vs generated packets without faults",
                );
            }
        }

        out
    }
}

/// Aggregate totals across every cell, carried on the [`Report`] for the
/// summary line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Generated records/bytes/packets.
    pub generated: Counts,
    /// Records sampled out before the wire.
    pub sampled_out: u64,
    /// Record tags placed on the wire.
    pub exported_records: u64,
    /// Record tags inside dropped datagrams.
    pub dropped_records: u64,
    /// Accepted records/bytes/packets (pre renormalization).
    pub accepted: Counts,
    /// Estimated records lost.
    pub est_lost: u64,
    /// Consumed records/bytes/packets.
    pub consumed: Counts,
    /// Records abandoned in replay buffers.
    pub abandoned_records: u64,
    /// Sequence units abandoned in replay buffers (loss-estimate terms).
    pub abandoned_units: u64,
    /// Record tags that could not be decoded (template-missing shortfall).
    pub undecoded: u64,
    /// Renormalized records whose counters clipped at `u64::MAX`.
    pub renorm_clipped: u64,
    /// Cells the supervisor quarantined (retry budget exhausted).
    pub quarantined_cells: u64,
    /// Cells that crossed real UDP sockets.
    pub socket_cells: u64,
    /// Datagrams the kernel dropped at the socket edge.
    pub socket_kernel_dropped: u64,
    /// Datagrams dropped at full shard queues.
    pub socket_queue_dropped: u64,
    /// Datagrams truncated at recv.
    pub socket_truncated: u64,
}

/// Outcome of auditing a whole run: per-cell violations plus totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Cells audited.
    pub cells: u64,
    /// Every failed identity, sorted by cell then identity name.
    pub violations: Vec<Violation>,
    /// Aggregate stage totals.
    pub totals: Totals,
}

impl Report {
    /// Whether every identity held in every cell.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report: a summary header, stage totals, and (capped)
    /// per-violation lines. Deterministic for a given ledger state.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "conservation audit: {} cells, {} violations",
            self.cells,
            self.violations.len()
        );
        let t = &self.totals;
        let _ = writeln!(
            s,
            "  generated {} records / {} bytes / {} packets; sampled out {}",
            t.generated.records, t.generated.bytes, t.generated.packets, t.sampled_out
        );
        let _ = writeln!(
            s,
            "  exported {} record tags; dropped {}; abandoned {}",
            t.exported_records, t.dropped_records, t.abandoned_records
        );
        let _ = writeln!(
            s,
            "  accepted {} records / {} bytes / {} packets; est lost {}; renorm clipped {}",
            t.accepted.records, t.accepted.bytes, t.accepted.packets, t.est_lost, t.renorm_clipped
        );
        let _ = writeln!(
            s,
            "  consumed {} records / {} bytes / {} packets",
            t.consumed.records, t.consumed.bytes, t.consumed.packets
        );
        if t.quarantined_cells > 0 {
            let _ = writeln!(s, "  quarantined {} cells", t.quarantined_cells);
        }
        if t.socket_cells > 0 {
            let _ = writeln!(
                s,
                "  socket edge: {} cells; drops {} kernel / {} queue / {} truncated",
                t.socket_cells, t.socket_kernel_dropped, t.socket_queue_dropped, t.socket_truncated
            );
        }
        const MAX_LINES: usize = 50;
        for v in self.violations.iter().take(MAX_LINES) {
            let _ = writeln!(
                s,
                "  VIOLATION [wire {} day {} hour {:02}] {}: {}",
                v.cell.wire_id, v.cell.day_number, v.cell.hour, v.identity, v.detail
            );
        }
        if self.violations.len() > MAX_LINES {
            let _ = writeln!(
                s,
                "  ... and {} more violations",
                self.violations.len() - MAX_LINES
            );
        }
        if self.is_clean() {
            let _ = writeln!(s, "  all conservation identities hold");
        }
        s
    }
}

/// Thread-safe ledger: one [`CellLedger`] per engine cell, posted to from
/// any worker, audited once at the end of the run.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    cells: Mutex<BTreeMap<CellKey, CellLedger>>,
}

impl Ledger {
    /// An empty ledger.
    pub(crate) fn new() -> Ledger {
        Ledger::default()
    }

    /// Post to one cell's ledger. Each engine cell is processed by exactly
    /// one worker, so the closure never races with another writer of the
    /// same cell; the mutex only serializes map access.
    pub(crate) fn record<F: FnOnce(&mut CellLedger)>(&self, key: CellKey, f: F) {
        let mut cells = self.cells.lock().expect("audit ledger poisoned");
        f(cells.entry(key).or_default());
    }

    /// Audit every cell and build the [`Report`].
    pub(crate) fn report(&self) -> Report {
        let cells = self.cells.lock().expect("audit ledger poisoned");
        let mut report = Report {
            cells: cells.len() as u64,
            ..Report::default()
        };
        for (&key, cell) in cells.iter() {
            report.violations.extend(cell.violations(key));
            let t = &mut report.totals;
            t.generated.add(cell.generated);
            t.sampled_out += cell.sampled_out;
            t.exported_records += cell.exported.records;
            t.dropped_records += cell.dropped.records;
            t.accepted.add(cell.accepted);
            t.est_lost += cell.est_lost;
            t.consumed.add(cell.consumed);
            t.abandoned_records += cell.abandoned_records;
            t.abandoned_units += cell.abandoned_units;
            t.undecoded += cell.undecoded;
            t.renorm_clipped += cell.renorm_clipped;
            t.quarantined_cells += u64::from(cell.quarantined);
            t.socket_cells += u64::from(cell.socket);
            t.socket_kernel_dropped += cell.socket_kernel_dropped;
            t.socket_queue_dropped += cell.socket_queue_dropped;
            t.socket_truncated += cell.socket_truncated;
        }
        report.violations.sort();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CellKey {
        CellKey {
            wire_id: 3,
            day_number: 18_341,
            hour: 14,
        }
    }

    /// A fault-free cell where every stage agrees.
    fn balanced() -> CellLedger {
        let c = Counts {
            records: 100,
            bytes: 150_000,
            packets: 700,
        };
        CellLedger {
            generated: c,
            exported: c,
            export_units: 100,
            offered_datagrams: 4,
            delivered_datagrams: 4,
            accepted: c,
            consumed: c,
            units_exact: true,
            ..CellLedger::default()
        }
    }

    #[test]
    fn balanced_cell_is_clean() {
        assert!(balanced().violations(key()).is_empty());
    }

    #[test]
    fn faulted_cell_balances_when_accounted() {
        // 1 of 4 datagrams (25 records) dropped; loss estimated exactly.
        let mut c = balanced();
        c.offered_datagrams = 4;
        c.delivered_datagrams = 3;
        c.dropped_datagrams = 1;
        c.dropped = Counts {
            records: 25,
            bytes: 37_500,
            packets: 175,
        };
        c.accepted = Counts {
            records: 75,
            bytes: 112_500,
            packets: 525,
        };
        c.est_lost = 25;
        // Renormalization scales survivors back up to the estimate.
        c.renorm_bytes_added = 37_500;
        c.renorm_packets_added = 175;
        c.consumed = Counts {
            records: 75,
            bytes: 150_000,
            packets: 700,
        };
        assert!(c.violations(key()).is_empty(), "{:?}", c.violations(key()));
    }

    #[test]
    fn each_imbalance_is_named() {
        let mut c = balanced();
        c.accepted.records -= 1; // a record vanished without accounting
        let v = c.violations(key());
        assert!(!v.is_empty());
        let names: Vec<&str> = v.iter().map(|v| v.identity).collect();
        assert!(names.contains(&"collector-partition"), "{names:?}");
        assert!(names.contains(&"end-to-end-records"), "{names:?}");
        assert!(names.contains(&"fault-free-records"), "{names:?}");
    }

    #[test]
    fn wraparound_style_losses_trip_the_loss_identity() {
        // A tracker that mistakes a wrap for a 4-billion-unit gap inflates
        // est_lost with no matching transport ground truth.
        let mut c = balanced();
        c.est_lost = 4_294_967_285;
        let v = c.violations(key());
        assert!(v.iter().any(|v| v.identity == "loss-exactness"), "{v:?}");
    }

    #[test]
    fn v9_loss_estimate_is_not_held_exact() {
        let mut c = balanced();
        c.units_exact = false;
        c.dropped_datagrams = 1;
        c.delivered_datagrams = 3;
        c.dropped = Counts {
            records: 25,
            bytes: 37_500,
            packets: 175,
        };
        c.accepted.records = 75;
        c.accepted.bytes = 112_500;
        c.accepted.packets = 525;
        c.consumed = c.accepted;
        c.est_lost = 23; // off-by-two estimate: fine for packet units
        assert!(c
            .violations(key())
            .iter()
            .all(|v| v.identity != "loss-exactness"));
    }

    #[test]
    fn report_aggregates_and_renders() {
        let ledger = Ledger::new();
        ledger.record(key(), |c| *c = balanced());
        let mut k2 = key();
        k2.hour = 15;
        ledger.record(k2, |c| {
            *c = balanced();
            c.accepted.bytes += 7; // bytes appeared from nowhere
        });
        let report = ledger.report();
        assert_eq!(report.cells, 2);
        assert!(!report.is_clean());
        assert_eq!(report.totals.generated.records, 200);
        let text = report.render();
        assert!(text.contains("conservation audit: 2 cells"));
        assert!(text.contains("VIOLATION"));
        assert!(text.contains("fault-free-bytes"));
    }

    #[test]
    fn quarantine_is_a_first_class_outcome() {
        // A cell that panicked mid-pipeline posts wildly unbalanced
        // stages; quarantine waives every identity except "nothing was
        // consumed downstream".
        let mut c = balanced();
        c.accepted = Counts::default();
        c.consumed = Counts::default();
        c.quarantined = true;
        assert!(c.violations(key()).is_empty(), "{:?}", c.violations(key()));

        // Consuming from a quarantined cell is the one thing that still
        // trips the auditor.
        c.consumed.records = 5;
        let v = c.violations(key());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].identity, "quarantine-unconsumed");

        let ledger = Ledger::new();
        ledger.record(key(), |cl| {
            *cl = balanced();
            cl.accepted = Counts::default();
            cl.consumed = Counts::default();
            cl.quarantined = true;
        });
        let report = ledger.report();
        assert!(report.is_clean());
        assert_eq!(report.totals.quarantined_cells, 1);
        assert!(report.render().contains("quarantined 1 cells"));
    }

    #[test]
    fn socket_drops_must_decompose_exactly() {
        // 2 of 4 datagrams dropped at the socket edge: 1 kernel + 1 queue.
        let mut c = balanced();
        c.socket = true;
        c.delivered_datagrams = 2;
        c.dropped_datagrams = 2;
        c.socket_kernel_dropped = 1;
        c.socket_queue_dropped = 1;
        c.dropped = Counts {
            records: 50,
            bytes: 75_000,
            packets: 350,
        };
        c.accepted = Counts {
            records: 50,
            bytes: 75_000,
            packets: 350,
        };
        c.est_lost = 50;
        c.consumed = c.accepted;
        assert!(c.violations(key()).is_empty(), "{:?}", c.violations(key()));

        // An unattributed drop (kernel count short by one) is a violation.
        c.socket_kernel_dropped = 0;
        let v = c.violations(key());
        assert!(
            v.iter().any(|v| v.identity == "socket-conservation"),
            "{v:?}"
        );

        // The identity is waived entirely off the socket path.
        c.socket = false;
        assert!(c.violations(key()).is_empty());

        let ledger = Ledger::new();
        ledger.record(key(), |cl| {
            *cl = balanced();
            cl.socket = true;
        });
        let report = ledger.report();
        assert_eq!(report.totals.socket_cells, 1);
        assert!(report.render().contains("socket edge: 1 cells"));
    }

    #[test]
    fn clean_report_says_so() {
        let ledger = Ledger::new();
        ledger.record(key(), |c| *c = balanced());
        let report = ledger.report();
        assert!(report.is_clean());
        assert!(report.render().contains("all conservation identities hold"));
    }
}
