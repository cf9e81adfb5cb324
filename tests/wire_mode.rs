//! Wire-mode acceptance: the export → faulty transport → collect plane
//! accounts losses against transport ground truth, balances its audit
//! under faults, and stays deterministic across runs and worker counts.
//! (That it keeps the suite byte-identical and audits clean at zero faults
//! is the `wire` row of `tests/equivalence.rs`.)

use lockdown::analysis::timeseries::HourlyVolume;
use lockdown::collect::{FaultProfile, WireConfig};
use lockdown::core::engine::{self, EnginePlan};
use lockdown::core::{Context, Fidelity};
use lockdown::flow::exporter::ExportFormat;
use lockdown::flow::time::Date;
use lockdown::topology::vantage::VantagePoint;
use lockdown::traffic::plan::Stream;

fn metric(render: &str, name: &str) -> u64 {
    render
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
}

/// One small engine pass (two days, one vantage point) in wire mode.
fn wired_pass(
    cfg: WireConfig,
    workers: usize,
) -> (Vec<(lockdown::flow::time::Timestamp, u64)>, String) {
    let ctx = Context::with_seed(Fidelity::Test, 9);
    let d1 = Date::new(2020, 3, 23);
    let d2 = Date::new(2020, 3, 24);
    let mut plan = EnginePlan::new();
    plan.with_wire(cfg);
    let h = plan.subscribe(
        Stream::Vantage(VantagePoint::IxpCe),
        d1,
        d2,
        HourlyVolume::new,
    );
    let mut out = engine::run_with_workers(&ctx, plan, workers).expect("pass succeeds");
    let metrics = out
        .wire_metrics()
        .expect("wire mode carries metrics")
        .render();
    (out.take(h).hourly_series(d1, d2), metrics)
}

#[test]
fn est_lost_matches_transport_ground_truth() {
    // v5 has no templates, so every delivered datagram decodes: the only
    // record loss is transport drops, and sequence accounting must agree
    // with the transport's ground truth to within 1%.
    let mut cfg = WireConfig::new();
    cfg.faults = FaultProfile {
        seed: 41,
        drop: 0.12,
        dup: 0.05,
        reorder: 0.08,
        ..FaultProfile::zero()
    };
    cfg.format = ExportFormat::NetflowV5;
    cfg.renormalize = false;
    let (_, metrics) = wired_pass(cfg, 2);
    let truth = metric(&metrics, "transport_records_dropped_total");
    let est = metric(&metrics, "collector_records_lost_est_total");
    assert!(truth > 0, "profile must actually drop records");
    let err = (est as f64 - truth as f64).abs() / truth as f64;
    assert!(err <= 0.01, "est {est} vs truth {truth} (err {err:.4})");
    assert!(metric(&metrics, "collector_sequence_gaps_total") > 0);
    assert!(metric(&metrics, "collector_duplicates_rejected_total") > 0);
}

#[test]
fn wire_mode_is_deterministic_across_runs_and_workers() {
    let mut cfg = WireConfig::new();
    cfg.faults = FaultProfile {
        seed: 7,
        drop: 0.1,
        dup: 0.04,
        reorder: 0.06,
        restart_every: 8,
        ..FaultProfile::zero()
    };
    let (series1, metrics1) = wired_pass(cfg, 1);
    for workers in [2usize, 3, 8] {
        let (series, metrics) = wired_pass(cfg, workers);
        assert_eq!(series1, series, "series diverged at workers={workers}");
        assert_eq!(metrics1, metrics, "metrics diverged at workers={workers}");
    }
}

#[test]
fn metrics_snapshot_covers_every_layer() {
    let (_, metrics) = wired_pass(WireConfig::new(), 2);
    for family in [
        "exporter_datagrams_total",
        "exporter_fleet_size",
        "transport_datagrams_delivered_total",
        "collector_records_total",
        "engine_cells_wired_total",
        "audit_cells",
        "audit_violations",
    ] {
        assert!(metrics.contains(family), "{family} missing:\n{metrics}");
    }
}

#[test]
fn faulted_suite_audit_balances_across_workers() {
    // A full engine pass with faults, wrap-adjacent sequence counters, and
    // multiple workers posting to the shared ledger concurrently: every
    // per-cell conservation identity must still balance exactly.
    let mut cfg = WireConfig::new();
    cfg.faults = FaultProfile {
        seed: 13,
        drop: 0.1,
        dup: 0.05,
        reorder: 0.06,
        restart_every: 6,
        ..FaultProfile::zero()
    };
    cfg.template_refresh = 1;
    cfg.initial_sequence = u32::MAX - 200;
    let ctx = Context::with_seed(Fidelity::Test, 9);
    let d1 = Date::new(2020, 3, 23);
    let d2 = Date::new(2020, 3, 24);
    let mut plan = EnginePlan::new();
    plan.with_wire(cfg);
    let h = plan.subscribe(
        Stream::Vantage(VantagePoint::IxpCe),
        d1,
        d2,
        HourlyVolume::new,
    );
    let mut out = engine::run_with_workers(&ctx, plan, 4).expect("pass succeeds");
    let audit = out.audit().cloned().expect("every wire pass audits");
    assert!(audit.is_clean(), "{}", audit.render());
    assert_eq!(audit.cells, 2 * 24, "one ledger cell per engine cell");
    let t = &audit.totals;
    assert!(t.dropped_records > 0, "faults must have fired");
    // The fleet staggers template cadence per member (base + i), so under
    // loss some members can lose their *last* template announcement and
    // abandon the buffered tail at close. IPFIX loss accounting is still
    // exact: every estimated-lost record is a transport drop, an abandoned
    // buffer unit, or an undecodable set — nothing more, nothing less.
    assert_eq!(
        t.est_lost,
        t.dropped_records + t.abandoned_units + t.undecoded,
        "IPFIX loss estimate decomposes exactly into accounted causes"
    );
    let _ = out.take(h);
}
