//! Columnar store: spill vs. replay vs. plain generation.
//!
//! The store's claim in numbers: a warm replay (decode segments, zero
//! generation) must beat both the cold pass (generate + spill) and the
//! no-archive baseline (generate only) on the same plan — decoding
//! delta/varint columns is cheaper than regenerating flows. The
//! `warm_workers` benches show how segment decoding scales across the
//! engine's worker fan-out.

use criterion::{criterion_group, criterion_main, Criterion};
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_core::engine::{self, EnginePlan};
use lockdown_core::{Context, Fidelity};
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn ctx() -> &'static Context {
    static CTX: OnceLock<Context> = OnceLock::new();
    CTX.get_or_init(|| Context::new(Fidelity::Standard))
}

/// One week of ISP-CE through the engine, optionally archived.
fn week_pass(archive: Option<&Path>, workers: usize) -> u64 {
    let mut plan = EnginePlan::new();
    if let Some(dir) = archive {
        plan.with_archive(dir);
    }
    let d = plan.subscribe(
        Stream::Vantage(VantagePoint::IspCe),
        Date::new(2020, 3, 16),
        Date::new(2020, 3, 22),
        HourlyVolume::new,
    );
    let mut out = engine::run_with_workers(ctx(), plan, workers).expect("pass");
    let stats = out.stats();
    let _ = out.take(d);
    stats.flows_emitted
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lockdown-bench-store-{tag}-{}", std::process::id()))
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);

    group.bench_function("baseline_generate", |b| b.iter(|| week_pass(None, 1)));

    let cold_dir = bench_dir("cold");
    group.bench_function("cold_spill", |b| {
        b.iter(|| {
            // Remove the manifest so every iteration is a true cold pass
            // (an intact manifest would flip the engine into replay).
            let _ = std::fs::remove_file(cold_dir.join("manifest.lks"));
            week_pass(Some(&cold_dir), 1)
        })
    });

    let warm_dir = bench_dir("warm");
    week_pass(Some(&warm_dir), 1); // pre-spill once
    group.bench_function("warm_replay", |b| b.iter(|| week_pass(Some(&warm_dir), 1)));

    for workers in [2usize, 4] {
        group.bench_function(format!("warm_replay_workers_{workers}"), |b| {
            b.iter(|| week_pass(Some(&warm_dir), workers))
        });
    }
    group.finish();

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&warm_dir);
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
