//! Reproducibility: the whole stack is deterministic per seed — a design
//! requirement stated in DESIGN.md ("every figure regenerates
//! bit-identically from a seed") and stronger than the paper's own
//! reproducibility.

use lockdown::collect::WireConfig;
use lockdown::core::engine::{self, EnginePlan};
use lockdown::core::experiments::figures::FIGURES;
use lockdown::core::experiments::{fig1, tables};
use lockdown::core::{Context, Fidelity};
use lockdown::topology::dns::corpus::synthesize as synth_corpus;
use lockdown::topology::registry::Registry;
use lockdown::topology::vantage::VantagePoint;
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_flow::time::Date;
use lockdown_traffic::plan::Stream;

#[test]
fn generators_identical_per_seed() {
    let r = Registry::synthesize();
    let c = synth_corpus(&r, 5);
    let cfg = lockdown::traffic::config::GeneratorConfig::coarse(5);
    let g1 = lockdown::traffic::generate::TrafficGenerator::new(&r, &c, cfg);
    let g2 = lockdown::traffic::generate::TrafficGenerator::new(&r, &c, cfg);
    let d = Date::new(2020, 3, 25);
    for vp in VantagePoint::ALL {
        assert_eq!(
            g1.generate_hour(vp, d, 9),
            g2.generate_hour(vp, d, 9),
            "{vp}"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let r = Registry::synthesize();
    let c = synth_corpus(&r, 5);
    let g1 = lockdown::traffic::generate::TrafficGenerator::new(
        &r,
        &c,
        lockdown::traffic::config::GeneratorConfig::coarse(5),
    );
    let g2 = lockdown::traffic::generate::TrafficGenerator::new(
        &r,
        &c,
        lockdown::traffic::config::GeneratorConfig::coarse(6),
    );
    let d = Date::new(2020, 3, 25);
    assert_ne!(
        g1.generate_hour(VantagePoint::IspCe, d, 9),
        g2.generate_hour(VantagePoint::IspCe, d, 9)
    );
}

#[test]
fn experiments_render_identically_per_seed() {
    let a = Context::with_seed(Fidelity::Test, 7);
    let b = Context::with_seed(Fidelity::Test, 7);
    assert_eq!(fig1::run(&a).render(), fig1::run(&b).render());
    assert_eq!(tables::table1(&a).render(), tables::table1(&b).render());
}

#[test]
fn edu_generator_deterministic() {
    let ctx = Context::with_seed(Fidelity::Test, 9);
    let g1 = ctx.edu_generator();
    let g2 = ctx.edu_generator();
    let d = Date::new(2020, 3, 12);
    for hour in [0u8, 9, 15, 23] {
        assert_eq!(g1.generate_hour(d, hour), g2.generate_hour(d, hour));
    }
}

#[test]
fn engine_matches_direct_generation() {
    // The engine path (plan + subscribe + fan-out) accumulates exactly the
    // same flows as driving the generator by hand over the same window.
    let ctx = Context::with_seed(Fidelity::Test, 13);
    let vp = VantagePoint::IxpCe;
    let (start, end) = (Date::new(2020, 3, 2), Date::new(2020, 3, 5));

    let mut direct = HourlyVolume::new();
    ctx.generator()
        .for_each_hour(vp, start, end, |_, _, flows| direct.add_all(flows));

    let mut plan = EnginePlan::new();
    let d = plan.subscribe(Stream::Vantage(vp), start, end, HourlyVolume::new);
    let engine_volume = engine::run(&ctx, plan).expect("pass succeeds").take(d);

    assert_eq!(
        direct.hourly_series(start, end),
        engine_volume.hourly_series(start, end)
    );
}

#[test]
fn engine_output_independent_of_worker_count() {
    let ctx = Context::with_seed(Fidelity::Test, 17);
    let (start, end) = (Date::new(2020, 2, 19), Date::new(2020, 2, 25));
    let run = |workers: usize| {
        let mut plan = EnginePlan::new();
        let volume = plan.subscribe(
            Stream::Vantage(VantagePoint::IspCe),
            start,
            end,
            HourlyVolume::new,
        );
        let transit = plan.subscribe(Stream::IspTransit, start, end, HourlyVolume::new);
        let mut out = engine::run_with_workers(&ctx, plan, workers).expect("pass succeeds");
        (
            out.take(volume).hourly_series(start, end),
            out.take(transit).hourly_series(start, end),
        )
    };
    let single = run(1);
    for workers in [2usize, 4, 8] {
        assert_eq!(single, run(workers), "workers={workers}");
    }
}

#[test]
fn engine_generates_overlapping_cells_exactly_once() {
    // Acceptance criterion: the cell counter equals the hand-computed
    // union of the demanded windows, strictly below the overlap-counting
    // total a per-figure path would regenerate — however many workers
    // claim from the list, more of them than there are cells included.
    let ctx = Context::with_seed(Fidelity::Test, 19);
    let vp = VantagePoint::IxpSe;
    let feb = |day| Date::new(2020, 2, day);
    let cells = 10 * 24;
    let mut reference = None;
    for workers in [1, 2, 3, 8, cells + 5] {
        let mut plan = EnginePlan::new();
        // Three overlapping windows on one stream: Feb 1–7, Feb 5–10, Feb 7.
        let windows = [(1, 7), (5, 10), (7, 7)].map(|(from, to)| {
            plan.subscribe(Stream::Vantage(vp), feb(from), feb(to), HourlyVolume::new)
        });
        let mut out = engine::run_with_workers(&ctx, plan, workers).expect("pass succeeds");
        let stats = out.stats();
        // Union: Feb 1–10 = 10 days. Demanded: 7 + 6 + 1 = 14 days.
        assert_eq!(stats.cells_generated, cells as u64, "workers={workers}");
        assert_eq!(stats.cells_demanded, 14 * 24);
        assert_eq!(stats.workers, workers.min(cells));
        // And the shared cells feed every subscription identically.
        let [a, b, c] = windows.map(|w| out.take(w));
        assert_eq!(a.daily_total(feb(7)), b.daily_total(feb(7)));
        assert_eq!(a.daily_total(feb(7)), c.daily_total(feb(7)));
        // A cell run twice or not at all would also move the volumes.
        let volumes = (
            stats.flows_emitted,
            a.hourly_series(feb(1), feb(7)),
            b.hourly_series(feb(5), feb(10)),
        );
        match &reference {
            None => reference = Some(volumes),
            Some(r) => assert_eq!(r, &volumes, "workers={workers}"),
        }
    }
}

/// The whole suite through one pass of `workers` workers over `plan`'s
/// options: the 22 rendered sections.
fn suite_renders(ctx: &Context, workers: usize, options: impl Fn(&mut EnginePlan)) -> Vec<String> {
    let mut plan = EnginePlan::new();
    options(&mut plan);
    let pending: Vec<_> = FIGURES.iter().map(|f| f.plan(ctx, &mut plan)).collect();
    let mut out = engine::run_with_workers(ctx, plan, workers).expect("suite pass");
    pending
        .into_iter()
        .map(|finish| finish(ctx, &mut out)())
        .collect()
}

/// Which worker claims which cell differs from run to run, so "any claim
/// order gives the same bytes" is checked two ways: across worker counts,
/// and across repeated runs at the count the reference box uses.
fn assert_suite_is_claim_order_invariant(options: impl Fn(&mut EnginePlan)) {
    let ctx = Context::new(Fidelity::Test);
    let single = suite_renders(&ctx, 1, &options);
    assert_eq!(single.len(), FIGURES.len());
    for workers in [2, 3, 8, 2, 2, 2, 2] {
        let renders = suite_renders(&ctx, workers, &options);
        for ((figure, got), want) in FIGURES.iter().zip(&renders).zip(&single) {
            assert_eq!(got, want, "workers={workers}: section {}", figure.name);
        }
    }
}

#[test]
fn suite_renders_identically_under_any_claim_order() {
    assert_suite_is_claim_order_invariant(|_| {});
}

#[test]
fn wire_suite_renders_identically_under_any_claim_order() {
    assert_suite_is_claim_order_invariant(|plan| {
        plan.with_wire(WireConfig::new());
    });
}

#[test]
fn warm_archive_suite_renders_identically_under_any_claim_order() {
    let dir = std::env::temp_dir().join(format!("lockdown-claim-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The single-worker run spills; every later one replays.
    assert_suite_is_claim_order_invariant(|plan| {
        plan.with_archive(&dir);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cells_independent_of_generation_order() {
    // Generating hour 9 alone equals hour 9 out of a full-day run: cells
    // are independently seeded, which is what makes slices consistent
    // across experiments.
    let ctx = Context::with_seed(Fidelity::Test, 11);
    let g = ctx.generator();
    let d = Date::new(2020, 2, 20);
    let solo = g.generate_hour(VantagePoint::IxpSe, d, 9);
    let day = g.generate_day(VantagePoint::IxpSe, d);
    let from_day: Vec<_> = day
        .iter()
        .filter(|f| f.start >= d.at_hour(9) && f.start < d.at_hour(10))
        .cloned()
        .collect();
    assert_eq!(solo, from_day);
}
