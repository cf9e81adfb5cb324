//! The wire-mode collection plane in numbers.
//!
//! `suite` prices the whole measurement path: the in-process figure suite
//! vs. the same suite with every cell crossing export → transport →
//! collect (zero faults, so both compute identical figures). `ingest`
//! isolates the collector side — one pre-encoded day of datagrams pushed
//! through a [`ShardSet`] at varying shard counts, to show how routing
//! observation domains across shards scales ingest.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lockdown_collect::{
    DomainTruth, ExporterFleet, FleetConfig, ShardSet, WireConfig, WireDatagram,
};
use lockdown_core::experiments::suite;
use lockdown_core::{Context, Fidelity};
use lockdown_flow::exporter::ExportFormat;
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;
use std::sync::OnceLock;

fn ctx() -> &'static Context {
    static CTX: OnceLock<Context> = OnceLock::new();
    CTX.get_or_init(|| Context::new(Fidelity::Standard))
}

/// Pre-encoded day: datagrams, per-domain session ground truth for
/// closing shard sessions, and the ground-truth record count.
type WireDay = (Vec<WireDatagram>, Vec<DomainTruth>, u64);

/// One day of IXP-CE traffic exported by a 4-member fleet.
fn day_on_the_wire() -> &'static WireDay {
    static WIRE: OnceLock<WireDay> = OnceLock::new();
    WIRE.get_or_init(|| {
        let date = Date::new(2020, 3, 25);
        let flows = ctx().generator().generate_day(VantagePoint::IxpCe, date);
        let now = flows
            .iter()
            .map(|f| f.end)
            .max()
            .expect("day has flows")
            .add_secs(1);
        let mut fleet = ExporterFleet::new(
            FleetConfig {
                format: ExportFormat::Ipfix,
                exporters: 4,
                batch_size: 64,
                template_refresh: 8,
                restart_every: 0,
                initial_sequence: 0,
                boot_age_secs: 0,
                sampling: None,
            },
            1,
            date.midnight(),
        );
        let (dgs, truth) = fleet.export_cell(&flows, now);
        (dgs, truth.sessions, truth.sent_records)
    })
}

fn bench_collect(c: &mut Criterion) {
    let mut g = c.benchmark_group("collect");
    g.sample_size(10);

    // The price of the wire: same figures, with vs. without the plane.
    g.bench_function("suite_in_process", |b| b.iter(|| suite::run_all(ctx())));
    g.bench_function("suite_wire_zero_faults", |b| {
        b.iter(|| {
            let opts = suite::SuiteOptions {
                wire: Some(WireConfig::new()),
                ..Default::default()
            };
            suite::run_all_opts(ctx(), opts).expect("archive-free engine pass cannot fail")
        })
    });

    // Ingest throughput vs. shard count on a fixed pre-encoded day.
    let (dgs, sessions, sent) = day_on_the_wire();
    g.throughput(Throughput::Elements(*sent));
    for shards in [1usize, 2, 4, 8] {
        g.bench_function(format!("ingest_shards_{shards}"), |b| {
            b.iter(|| {
                let mut set = ShardSet::new(shards, ExportFormat::Ipfix);
                for d in dgs {
                    set.ingest(d);
                }
                set.close(sessions, true);
                set.totals()
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench_collect);
criterion_main!(benches);
