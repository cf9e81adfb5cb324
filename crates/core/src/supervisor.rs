//! Supervised cell execution: panic isolation, retries, quarantine.
//!
//! A measurement plane that runs for months cannot be all-or-nothing:
//! real exporters stall, disks fill, and a single bad hour must not take
//! down a week of figures. Every engine pass therefore runs under one
//! [`Supervisor`]. Each cell attempt runs inside `isolate`, the engine's
//! one panic boundary; a failed attempt (a panic, a stall, a spill error)
//! is retried under seeded bounded-exponential backoff, and once the
//! per-cell attempt budget is exhausted the cell is **quarantined**: the
//! pass completes without it, the suite renders a degraded-mode report
//! naming it (a figure the hole starves is finished inside the same
//! boundary and, if it cannot be built, named as such), and the
//! conservation auditor records the quarantine as a first-class outcome
//! instead of a violation. An archived segment that fails to read is not
//! even a failed attempt — the cell is regenerated inline.
//!
//! The supervisor is immutable once built (schedule, budget, metrics) and
//! keeps no ledger: a cell's retries and quarantine travel in the column
//! of the link that ran it, a thread's or a worker process's alike.
//!
//! All fault *scheduling* lives in [`lockdown_base::fault`] and is a pure
//! function of `(seed, cell, attempt)`, so the quarantine set of a chaos
//! run is identical across repeat runs and worker counts — which is what
//! the failure-injection tests assert. The default
//! [`FaultProfile::zero`] schedules nothing.

use lockdown_base::fault::{CellFaults, FaultProfile, Schedule};
use lockdown_traffic::plan::Cell;
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Once};

lockdown_base::metrics_family! {
    /// The `supervisor_*` metrics family, on the same Prometheus-style
    /// registry as the wire and store families.
    pub struct SupervisorMetrics {
        retries: counter("supervisor_retries_total", "Cell attempts beyond the first"),
        backoff_ms: counter(
            "supervisor_backoff_ms_total",
            "Milliseconds of backoff delay before retries"
        ),
        panics_caught: counter(
            "supervisor_panics_caught_total",
            "Worker panics caught by cell isolation"
        ),
        write_faults: counter(
            "supervisor_write_faults_total",
            "Injected segment-write faults (torn writes and ENOSPC)"
        ),
        stalls: counter("supervisor_stalls_total", "Injected exporter stall timeouts"),
        replay_corruptions: counter(
            "supervisor_replay_corruptions_total",
            "Unreadable archived segments regenerated on replay"
        ),
        quarantined_cells: gauge(
            "supervisor_quarantined_cells",
            "Cells quarantined after exhausting their attempt budget"
        ),
        resumed_cells: gauge(
            "supervisor_resumed_cells",
            "Cells adopted from a checkpoint journal instead of regenerated"
        ),
    }
}

/// One cell the supervisor gave up on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedCell {
    /// The missing `(stream, date, hour)` cell.
    pub cell: Cell,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// The last attempt's failure, rendered.
    pub error: String,
}

/// What a degraded pass is missing: the quarantine set plus which figures
/// it touches. Attached to the suite output so CI can tell "clean",
/// "degraded" and "failed" apart (the CLI exits 3 on degraded).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradedReport {
    /// Quarantined cells in `(stream, date, hour)` order.
    pub quarantined: Vec<QuarantinedCell>,
    /// Figure labels affected, with the count of quarantined cells inside
    /// each one's subscription windows. Sorted by label.
    pub affected: Vec<(String, u64)>,
    /// Total retries the pass performed (including ones that recovered).
    pub retries: u64,
}

impl DegradedReport {
    /// Human-readable degraded-mode report, deterministic for a given
    /// quarantine set.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "DEGRADED PASS: {} cells quarantined, {} retries",
            self.quarantined.len(),
            self.retries
        );
        for q in &self.quarantined {
            let _ = writeln!(
                s,
                "  quarantined [wire {} day {} hour {:02}] after {} attempts: {}",
                q.cell.stream.wire_id(),
                q.cell.date.day_number(),
                q.cell.hour,
                q.attempts,
                q.error
            );
        }
        for (label, cells) in &self.affected {
            let _ = writeln!(s, "  affected figure {label}: {cells} missing cells");
        }
        s
    }
}

/// Payload of an injected worker panic. Carried through
/// `std::panic::panic_any` so the panic hook can tell scheduled chaos
/// (silenced) from a genuine bug (reported as usual).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InjectedPanic {
    /// Wire id of the stream whose cell panicked.
    pub wire_id: u32,
    /// Day number of the cell's date.
    pub day_number: i64,
    /// Hour of day.
    pub hour: u8,
    /// Which attempt the panic was scheduled for.
    pub attempt: u32,
}

thread_local! {
    /// Set while this thread finishes a figure a degraded pass starved.
    static STARVED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that silences scheduled
/// chaos panics — their payload is [`InjectedPanic`] — and the panic of
/// a starved figure, and forwards everything else to the previous hook.
/// Without this, a chaos run's stderr drowns in backtraces for panics
/// the supervisor is about to catch on purpose.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none()
                && !STARVED.try_with(|s| s.get()).unwrap_or(false)
            {
                prev(info);
            }
        }));
    });
}

/// Finish a figure that lost quarantined cells inside [`isolate`]. Partial
/// data may fail to build it; that panic is expected, and its message
/// goes into the figure's section rather than to stderr.
pub(crate) fn isolate_starved<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    STARVED.set(true);
    let result = isolate(f);
    STARVED.set(false);
    result
}

/// The engine's one panic boundary: run `f`, and turn a panic into its
/// rendered message — an injected panic by its attempt, a string payload
/// as itself. A cell attempt runs inside it, and so does a figure that a
/// degraded pass may have starved.
pub(crate) fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
            format!("injected worker panic (attempt {})", p.attempt)
        } else if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        }
    })
}

/// How one cell attempt failed (internal classification surface).
#[derive(Debug)]
pub(crate) enum AttemptError {
    /// The attempt panicked (injected or genuine) and was caught.
    Panic(String),
    /// A segment spill failed.
    Store(lockdown_store::StoreError),
    /// The exporter fleet stalled past its timeout (injected).
    Stall,
}

impl AttemptError {
    pub(crate) fn render(&self) -> String {
        match self {
            AttemptError::Panic(msg) => format!("panic: {msg}"),
            AttemptError::Store(e) => e.to_string(),
            AttemptError::Stall => "exporter stall timeout (injected)".to_string(),
        }
    }
}

/// The supervised-execution control surface every engine pass shares
/// across its workers: the seeded fault schedule, the retry budget and
/// the `supervisor_*` metrics.
#[derive(Debug)]
pub struct Supervisor {
    schedule: Schedule,
    attempts: u32,
    metrics: Arc<SupervisorMetrics>,
}

impl Supervisor {
    /// A supervisor for one pass. A [`FaultProfile::zero`] configuration
    /// gives panic isolation and retries without any injected faults.
    pub(crate) fn new(cfg: FaultProfile) -> Supervisor {
        install_quiet_panic_hook();
        Supervisor {
            schedule: Schedule::new(cfg),
            attempts: cfg.attempts.max(1),
            metrics: SupervisorMetrics::new(),
        }
    }

    /// Shared handle to the `supervisor_*` metrics.
    pub(crate) fn metrics(&self) -> Arc<SupervisorMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Per-cell attempt budget.
    pub(crate) fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The fault schedule for one `(cell, attempt)` slot.
    pub(crate) fn decide(&self, cell: Cell, attempt: u32) -> CellFaults {
        self.schedule.decide(
            cell.stream.wire_id(),
            cell.date.day_number(),
            cell.hour,
            attempt,
        )
    }

    /// Serve the deterministic backoff delay before retry `attempt` and
    /// account its milliseconds.
    pub(crate) fn backoff(&self, cell: Cell, attempt: u32) {
        let ms = self.schedule.backoff_ms(
            cell.stream.wire_id(),
            cell.date.day_number(),
            cell.hour,
            attempt,
        );
        self.metrics.backoff_ms.add(ms);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    /// Build the injected panic payload for one `(cell, attempt)` slot.
    pub(crate) fn injected_panic(&self, cell: Cell, attempt: u32) -> InjectedPanic {
        InjectedPanic {
            wire_id: cell.stream.wire_id(),
            day_number: cell.date.day_number(),
            hour: cell.hour,
            attempt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_base::metrics::MetricKind;
    use lockdown_flow::time::Date;
    use lockdown_topology::vantage::VantagePoint;
    use lockdown_traffic::plan::Stream;

    fn cell(hour: u8) -> Cell {
        Cell {
            stream: Stream::Vantage(VantagePoint::IspCe),
            date: Date::new(2020, 3, 25),
            hour,
        }
    }

    #[test]
    fn zero_config_supervisor_schedules_nothing() {
        let s = Supervisor::new(FaultProfile::zero());
        for h in 0..24 {
            assert_eq!(s.decide(cell(h), 0), CellFaults::default());
        }
        assert_eq!(s.metrics.retries.get(), 0);
    }

    #[test]
    fn degraded_report_renders_cells_and_figures() {
        let report = DegradedReport {
            quarantined: vec![QuarantinedCell {
                cell: cell(14),
                attempts: 3,
                error: "panic: injected".into(),
            }],
            affected: vec![("fig3".into(), 1)],
            retries: 5,
        };
        assert!(!report.quarantined.is_empty());
        let text = report.render();
        assert!(text.contains("DEGRADED PASS: 1 cells quarantined, 5 retries"));
        assert!(text.contains("hour 14"));
        assert!(text.contains("affected figure fig3: 1 missing cells"));
        assert!(DegradedReport::default().quarantined.is_empty());
    }

    #[test]
    fn metrics_render_the_supervisor_family() {
        let m = SupervisorMetrics::new();
        m.retries.add(4);
        m.backoff_ms.add(120);
        let text = m.render();
        assert!(text.contains("supervisor_retries_total 4"));
        assert!(text.contains("supervisor_backoff_ms_total 120"));
        assert!(text.contains("\nsupervisor_quarantined_cells 0\n"));
        assert_eq!(m.quarantined_cells.kind(), MetricKind::Gauge);
    }
}
