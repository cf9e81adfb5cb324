//! Quickstart: generate one lockdown day of synthetic ISP traffic, ship it
//! through the NetFlow wire pipeline, and recover the headline numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lockdown::analysis::prelude::*;
use lockdown::core::{Context, Fidelity};
use lockdown::flow::prelude::*;
use lockdown::topology::vantage::VantagePoint;
use lockdown_flow::time::Date;

fn main() {
    // 1. Build the synthetic Internet: AS registry, DNS corpus, generator.
    let ctx = Context::new(Fidelity::Standard);
    let generator = ctx.generator();
    println!(
        "synthetic Internet: {} ASes, {} prefixes, {} DNS names",
        ctx.registry.ases().len(),
        ctx.registry.prefix_count(),
        ctx.corpus.db.len(),
    );

    // 2. Generate a pre-lockdown and a lockdown Wednesday at the ISP.
    let base_day = Date::new(2020, 2, 19);
    let lockdown_day = Date::new(2020, 3, 25);
    let base = generator.generate_day(VantagePoint::IspCe, base_day);
    let lockdown = generator.generate_day(VantagePoint::IspCe, lockdown_day);
    println!(
        "generated {} flows for {} and {} flows for {}",
        base.len(),
        base_day.iso(),
        lockdown.len(),
        lockdown_day.iso(),
    );

    // 3. Round-trip the lockdown day through NetFlow v9 wire format, the
    //    way the ISP's border routers would export it.
    let boot = lockdown_day.midnight();
    let mut exporter = Exporter::new(ExporterConfig::new(ExportFormat::NetflowV9, boot));
    let datagrams = exporter.export_all(&lockdown, lockdown_day.at_hour(23).add_secs(3_599));
    let mut collector = Collector::new();
    collector.ingest_all(datagrams.iter().map(|d| d.as_slice()));
    println!(
        "NetFlow v9: {} datagrams, {} records collected, {} drops",
        datagrams.len(),
        collector.stats().records,
        collector.stats().malformed + collector.stats().missing_template,
    );

    // 4. The headline: lockdown volume growth and the pattern shift.
    let mut vol = HourlyVolume::new();
    vol.observe_all(&base);
    vol.observe_all(collector.records());
    let b = vol.daily_total(base_day) as f64;
    let l = vol.daily_total(lockdown_day) as f64;
    println!(
        "daily volume: {:.2e} -> {:.2e} bytes ({:+.1}%)",
        b,
        l,
        (l / b - 1.0) * 100.0
    );
    let morning = |d: Date| vol.get(d, 10) as f64 / vol.get(d, 21) as f64;
    println!(
        "morning/evening ratio: {:.2} (Feb) vs {:.2} (lockdown) — the weekend-like shift",
        morning(base_day),
        morning(lockdown_day)
    );
}
