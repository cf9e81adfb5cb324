//! Conservation-audit harness: the ledger must balance *exactly* for any
//! fault schedule, sampling rate, restart cadence, and — critically — any
//! starting position of the exporters' u32 sequence counters and uptime
//! clocks, including positions that wrap mid-session.
//!
//! Every run here threads the audit ledger through the whole
//! export → transport → collect → consume path and asserts that not a
//! single conservation identity is violated: whatever the pipeline loses
//! it must account for, and whatever it accounts for it must have lost.

use lockdown::collect::{audit, CollectionPlane, FaultProfile, WireConfig};
use lockdown::flow::prelude::*;
use lockdown::flow::protocol::IpProtocol;
use lockdown::topology::vantage::VantagePoint;
use lockdown::traffic::plan::{Cell, Stream};
use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::OnceLock;

/// Just under the u32-ms uptime wrap (~49.71 days), in seconds: exporters
/// booted this long ago cross the wrap during the exported hour.
const NEAR_UPTIME_WRAP_SECS: u64 = (u32::MAX as u64) / 1000 - 1_800;

fn cell() -> Cell {
    Cell {
        stream: Stream::Vantage(VantagePoint::IxpCe),
        date: Date::new(2020, 3, 25),
        hour: 14,
    }
}

/// A deterministic synthetic cell of `n` flows (shared across cases).
fn flows() -> &'static Vec<FlowRecord> {
    static FLOWS: OnceLock<Vec<FlowRecord>> = OnceLock::new();
    FLOWS.get_or_init(|| {
        let t = Date::new(2020, 3, 25).at_hour(14);
        (0..900u32)
            .map(|i| {
                FlowRecord::builder(
                    FlowKey {
                        src_addr: Ipv4Addr::from(0xC000_0200 | (i % 241)),
                        dst_addr: Ipv4Addr::from(0x0A02_0000 | (i / 5)),
                        src_port: (1024 + i % 48_000) as u16,
                        dst_port: if i % 3 == 0 { 443 } else { 80 },
                        protocol: if i % 5 == 0 {
                            IpProtocol::Udp
                        } else {
                            IpProtocol::Tcp
                        },
                    },
                    t.add_secs(u64::from(i % 3_200)),
                )
                .end(t.add_secs(u64::from(i % 3_200) + 55))
                .bytes(1_200 + u64::from(i) * 13)
                .packets(2 + u64::from(i % 70))
                .build()
            })
            .collect()
    })
}

/// Push the shared cell through a plane and return the audit report plus
/// what came out the far end.
fn run_audited(cfg: WireConfig) -> (Vec<FlowRecord>, audit::Report) {
    let plane = CollectionPlane::new(cfg);
    let mut ledger = audit::Ledger::default();
    let out = plane.process_audited(cell(), flows(), &mut ledger);
    (out, ledger.report())
}

#[test]
fn zero_faults_are_clean_for_every_format_even_across_both_wraps() {
    for format in [
        ExportFormat::NetflowV5,
        ExportFormat::NetflowV9,
        ExportFormat::Ipfix,
    ] {
        let mut cfg = WireConfig::new();
        cfg.format = format;
        // Start the sequence counters 17 units below the wrap and the
        // uptime clocks just below the 2^32 ms wrap: both wrap mid-cell.
        cfg.initial_sequence = u32::MAX - 17;
        cfg.boot_age_secs = NEAR_UPTIME_WRAP_SECS;
        let (out, report) = run_audited(cfg);
        assert_eq!(out.len(), flows().len(), "{format:?}");
        assert!(
            report.is_clean(),
            "{format:?} violated conservation:\n{}",
            report.render()
        );
        assert_eq!(report.cells, 1);
        assert_eq!(report.totals.generated.records, flows().len() as u64);
        assert_eq!(report.totals.est_lost, 0, "{format:?}");
    }
}

#[test]
fn faulted_runs_balance_exactly_against_transport_ground_truth() {
    let mut cfg = WireConfig::new();
    // Template in every datagram: nothing buffers, so the only loss is
    // transport drops and the audit's loss-exactness identity pins the
    // estimate to the ground truth with zero tolerance.
    cfg.template_refresh = 1;
    cfg.initial_sequence = u32::MAX - 100;
    cfg.faults = FaultProfile {
        seed: 23,
        drop: 0.15,
        dup: 0.08,
        reorder: 0.1,
        ..FaultProfile::zero()
    };
    let (out, report) = run_audited(cfg);
    assert!(report.is_clean(), "{}", report.render());
    let t = &report.totals;
    assert!(t.dropped_records > 0, "seeded loss should fire");
    assert_eq!(t.est_lost, t.dropped_records);
    assert_eq!(t.accepted.records + t.est_lost, t.generated.records);
    assert_eq!(out.len() as u64, t.accepted.records);
}

#[test]
fn v9_restarts_near_the_uptime_wrap_stay_conservative() {
    // The hardest disambiguation: scheduled restarts *and* an uptime clock
    // that wraps mid-session. Mistaking the wrap for a restart flushes
    // collector state and loses records; mistaking a restart for a wrap
    // corrupts timestamps. Either way a conservation identity breaks.
    let mut cfg = WireConfig::new();
    cfg.format = ExportFormat::NetflowV9;
    cfg.exporters = 2;
    cfg.boot_age_secs = NEAR_UPTIME_WRAP_SECS;
    cfg.faults.restart_every = 3;
    let (out, report) = run_audited(cfg);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(out.len(), flows().len(), "no faults: nothing may be lost");
    assert_eq!(report.totals.est_lost, 0);
}

#[test]
fn sampled_export_balances_in_record_space() {
    let mut cfg = WireConfig::new();
    cfg.template_refresh = 1;
    cfg.sampling = Some(4);
    cfg.faults = FaultProfile {
        seed: 31,
        drop: 0.1,
        ..FaultProfile::zero()
    };
    let (_, report) = run_audited(cfg);
    assert!(report.is_clean(), "{}", report.render());
    let t = &report.totals;
    assert!(t.sampled_out > 0, "1-in-4 sampling must drop records");
    assert_eq!(
        t.accepted.records + t.est_lost + t.sampled_out,
        t.generated.records
    );
}

/// The tentpole property: for ANY combination of format, fault
/// schedule, restart cadence, sampling rate, template cadence, fleet
/// shape, and wrap-crossing sequence/uptime starting offsets, the
/// ledger balances exactly — every conservation identity holds.
#[test]
fn any_schedule_balances_the_ledger() {
    cases(24, |rng, _| {
        // A rate that is exactly zero half the time.
        let rate = |rng: &mut SplitMix, max: f64| f64::from(rng.chance(0.5)) * max * rng.next_f64();
        // One of the edge values `fixed`, or `drawn`.
        let edge_or = |rng: &mut SplitMix, fixed: &[u64], drawn: Range<u64>| {
            let drawn = rng.range(drawn);
            let at = rng.below(fixed.len() as u64 + 1) as usize;
            fixed.get(at).copied().unwrap_or(drawn)
        };
        let format = rng.pick(&[
            ExportFormat::NetflowV5,
            ExportFormat::NetflowV9,
            ExportFormat::Ipfix,
        ]);
        let faults = FaultProfile {
            drop: rate(rng, 0.35),
            dup: rate(rng, 0.2),
            reorder: rate(rng, 0.2),
            restart_every: edge_or(rng, &[0], 2..8) as u32,
            ..FaultProfile::zero()
        };
        let template_refresh = edge_or(rng, &[0, 1], 2..10) as u32;
        let sample = edge_or(rng, &[1], 2..8) as u32;
        // v5 carries no in-band sampling announcement; sampling requires
        // a template-bearing format.
        let sampling = (sample > 1 && format != ExportFormat::NetflowV5).then_some(sample);
        let mut cfg = WireConfig {
            faults,
            ..WireConfig::new()
        };
        cfg.format = format;
        cfg.exporters = rng.range(1..5) as usize;
        cfg.shards = rng.range(1..5) as usize;
        cfg.batch_size = rng.range(8..80) as usize;
        // The sampling announcement rides the options template; keep it in
        // every datagram so a lossy schedule cannot leave scaling unknown.
        cfg.template_refresh = if sampling.is_some() {
            1
        } else {
            template_refresh
        };
        cfg.sampling = sampling;
        cfg.renormalize = rng.chance(0.5);
        // Fresh, just below the u32 wrap, or anywhere.
        let near_wrap = u64::from(u32::MAX) - rng.below(2_001);
        cfg.initial_sequence = edge_or(rng, &[0, near_wrap], 0..1 << 32) as u32;
        cfg.boot_age_secs = edge_or(rng, &[0, NEAR_UPTIME_WRAP_SECS], 0..200 * 86_400);
        cfg.faults.seed = rng.next_u64();

        let (out, report) = run_audited(cfg);
        assert!(report.is_clean(), "ledger imbalance:\n{}", report.render());
        assert_eq!(out.len() as u64, report.totals.accepted.records);
        // Nothing generated may vanish unaccounted, whatever the schedule.
        let t = &report.totals;
        assert!(
            t.accepted.records + t.est_lost + t.sampled_out + t.abandoned_records
                >= t.generated.records.saturating_sub(t.dropped_records),
        );
    });
}
