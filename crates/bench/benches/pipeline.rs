//! Pipeline-stage throughput: trace generation, classification, and
//! streaming aggregation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lockdown_analysis::appclass::Classifier;
use lockdown_analysis::ports::PortProfile;
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_core::{Context, Fidelity};
use lockdown_flow::sampling::FlowSampler;
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;

fn bench_pipeline(c: &mut Criterion) {
    let ctx = Context::new(Fidelity::Standard);
    let generator = ctx.generator();
    let date = Date::new(2020, 3, 25);

    // Generation throughput (flows/second).
    let sample = generator.generate_hour(VantagePoint::IxpCe, date, 20);
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(sample.len() as u64));
    g.bench_function("generate_hour_ixp_ce", |b| {
        b.iter(|| generator.generate_hour(VantagePoint::IxpCe, date, 20).len())
    });

    // Classification throughput over a fixed batch.
    let classifier = Classifier::from_registry(&ctx.registry);
    g.bench_function("classify_table1", |b| {
        b.iter(|| {
            sample
                .iter()
                .filter(|f| classifier.classify(f).is_some())
                .count()
        })
    });

    // Streaming aggregation throughput.
    g.bench_function("hourly_volume_aggregate", |b| {
        b.iter(|| {
            let mut v = HourlyVolume::new();
            v.add_all(&sample);
            v.len()
        })
    });
    g.bench_function("port_profile_aggregate", |b| {
        b.iter(|| {
            let mut p = PortProfile::new();
            p.add_all(&sample, VantagePoint::IxpCe.region());
            p.top_services(10, &[]).len()
        })
    });

    // Sampling throughput.
    let sampler = FlowSampler::new(16, 7);
    g.bench_function("flow_sampling_1in16", |b| {
        b.iter(|| sampler.sample_all(&sample).len())
    });

    // EDU generation throughput.
    let edu = ctx.edu_generator();
    let edu_sample = edu.generate_hour(Date::new(2020, 3, 17), 11);
    g.throughput(Throughput::Elements(edu_sample.len() as u64));
    g.bench_function("generate_hour_edu", |b| {
        b.iter(|| edu.generate_hour(Date::new(2020, 3, 17), 11).len())
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
