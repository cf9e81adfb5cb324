//! Emit machine-readable shard-plane numbers as JSON (hand-formatted —
//! no serialization dependency): coordinated wall clock at 1, 2 and 4
//! workers against single-process baselines, plus the cost of one
//! seeded worker-kill reassignment. `scripts/verify.sh` writes the
//! output to `BENCH_shard.json` at the repo root.
//!
//! Workers here are protocol-serving threads on loopback listeners (the
//! same topology the shard integration tests use), so the numbers
//! isolate the shard layer itself — framing, state streaming, merge —
//! from process spawn cost. Every pass is cold (no archive). Each worker
//! runs its slice on one engine thread, so `coordination_overhead_1w`
//! divides the one-worker pass by a single-process pass on one thread.
//! Both run as `PAIRS` alternating pairs, so a slow spell of the host
//! lands on both sides: `single_thread_secs` and `workers_1_secs` are
//! the medians of each side, and `coordination_overhead_1w` the median
//! of the per-pair ratios, with their least and greatest beside it
//! (`coordination_overhead_1w_min`, `_max`). The single-process pass on
//! every core is reported too (`single_process_all_cores_secs`). The 2-
//! and 4-worker passes and the reassignment run once each. Wall clock drops
//! with more workers only up to the machine's core count; the
//! interesting numbers are the coordination overhead and the
//! reassignment penalty under chaos.
//!
//! Usage: `cargo run --release -p lockdown-bench --bin shard_json
//! [--fidelity test|standard]` (prints to stdout).

use lockdown::base::fault::{FaultProfile, Schedule};
use lockdown::core::engine::{self, DriveStats, EnginePlan};
use lockdown::core::experiments::figures::FIGURES;
use lockdown::core::experiments::suite::{self, suite_shard_cell_count};
use lockdown::core::{Context, Fidelity};
use lockdown::shard::coord::{self, chunk_ranges, CoordOptions, CHUNKS_PER_WORKER};
use lockdown::shard::worker::serve_worker;
use std::net::TcpListener;
use std::time::Instant;

/// One coordinated pass over `n` protocol-thread workers; returns the
/// wall clock and the coordinator stats.
fn coordinated_pass(fidelity: Fidelity, opts: &CoordOptions, n: usize) -> (f64, DriveStats) {
    let mut addrs = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("bound").to_string());
        let sopts = opts.suite.clone();
        handles.push(std::thread::spawn(move || {
            serve_worker(&Context::new(fidelity), &sopts, listener).expect("worker protocol")
        }));
    }
    let t = Instant::now();
    let links = coord::attach_workers(&addrs).expect("attach");
    let out = coord::coordinate(&Context::new(fidelity), opts, links).expect("coordinate");
    let secs = t.elapsed().as_secs_f64();
    for h in handles {
        let _ = h.join();
    }
    (secs, out.stats)
}

/// Alternating pairs of one-thread and one-worker passes.
const PAIRS: usize = 5;

/// One single-process pass on the one engine thread a worker runs its
/// slice on: the figures planned onto one plan and redeemed as
/// `tests/determinism.rs` does. Returns the wall clock.
fn single_thread_pass(fidelity: Fidelity) -> f64 {
    let t = Instant::now();
    let ctx = Context::new(fidelity);
    let mut plan = EnginePlan::new();
    let pending: Vec<_> = FIGURES.iter().map(|f| f.plan(&ctx, &mut plan)).collect();
    let mut out = engine::run_with_workers(&ctx, plan, 1).expect("suite pass");
    let _sections: Vec<_> = pending.into_iter().map(|f| f(&ctx, &mut out)).collect();
    t.elapsed().as_secs_f64()
}

/// The middle value of an odd-length sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// A chaos seed that kills at least one first attempt on this plan's
/// ranges and lets every retry through — pure reassignment cost.
fn reassignment_seed(cells: usize, workers: usize, cpw: usize) -> FaultProfile {
    let ranges = chunk_ranges(cells, workers, cpw);
    for seed in 0..10_000 {
        let mut cfg = FaultProfile::zero();
        cfg.seed = seed;
        cfg.wkill = 0.2;
        let schedule = Schedule::new(cfg);
        let mut kills = 0;
        let mut trouble = false;
        for &(s, e) in &ranges {
            let a0 = schedule.decide_worker(s, e, 0);
            if a0.kill {
                kills += 1;
                let a1 = schedule.decide_worker(s, e, 1);
                trouble |= a1.kill || a1.stall;
            }
        }
        if kills >= 1 && kills < workers && !trouble {
            return cfg;
        }
    }
    panic!("no survivable-kill seed in range");
}

fn main() {
    let fidelity = match std::env::args().nth(2).as_deref() {
        Some("standard") => Fidelity::Standard,
        _ => Fidelity::Test,
    };
    let fidelity_name = match fidelity {
        Fidelity::Test => "test",
        Fidelity::Standard => "standard",
    };
    let opts = CoordOptions::default();
    let cells = suite_shard_cell_count(&Context::new(fidelity), &opts.suite);

    // Warm-up pass, then the single-process pass on every core.
    let _ = suite::run_all(&Context::new(fidelity));
    let t = Instant::now();
    let single = suite::run_all(&Context::new(fidelity));
    let all_cores_secs = t.elapsed().as_secs_f64();

    // The one-thread and one-worker passes, alternating.
    let (mut singles, mut ones, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let single_secs = single_thread_pass(fidelity);
        let (secs, stats) = coordinated_pass(fidelity, &opts, 1);
        assert_eq!(stats.quarantined_ranges, 0, "clean pass");
        singles.push(single_secs);
        ones.push(secs);
        ratios.push(secs / single_secs.max(1e-9));
    }
    let (single_secs, t1, overhead) = (median(singles), median(ones), median(ratios.clone()));
    let overhead_min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_max = ratios.iter().copied().fold(0.0, f64::max);

    let mut pass_secs = [0.0f64; 2];
    for (slot, workers) in [2usize, 4].iter().enumerate() {
        let (secs, stats) = coordinated_pass(fidelity, &opts, *workers);
        assert_eq!(stats.quarantined_ranges, 0, "clean pass");
        pass_secs[slot] = secs;
    }
    let [t2, t4] = pass_secs;

    // Reassignment cost: same 2-worker pass, one seeded first-attempt
    // kill, every retry clean — the delta is protocol + rerun overhead.
    let mut chaos_opts = CoordOptions::default();
    chaos_opts.suite.chaos = reassignment_seed(cells, 2, CHUNKS_PER_WORKER);
    let (tkill, kill_stats) = coordinated_pass(fidelity, &chaos_opts, 2);
    assert!(
        kill_stats.reassignments >= 1,
        "seed must force reassignment"
    );
    assert_eq!(kill_stats.quarantined_ranges, 0, "survivable seed");

    println!("{{");
    println!("  \"fidelity\": \"{fidelity_name}\",");
    println!("  \"cells\": {cells},");
    println!("  \"flows_emitted\": {},", single.stats.flows_emitted);
    println!("  \"single_process_all_cores_secs\": {all_cores_secs:.4},");
    println!("  \"single_thread_secs\": {single_secs:.4},");
    println!("  \"workers_1_secs\": {t1:.4},");
    println!("  \"workers_2_secs\": {t2:.4},");
    println!("  \"workers_4_secs\": {t4:.4},");
    println!("  \"coordination_overhead_1w\": {overhead:.3},");
    println!("  \"coordination_overhead_1w_min\": {overhead_min:.3},");
    println!("  \"coordination_overhead_1w_max\": {overhead_max:.3},");
    println!("  \"speedup_2w_vs_1w\": {:.3},", t1 / t2.max(1e-9));
    println!("  \"speedup_4w_vs_1w\": {:.3},", t1 / t4.max(1e-9));
    println!(
        "  \"scaling_efficiency_4w\": {:.3},",
        t1 / (4.0 * t4.max(1e-9))
    );
    println!("  \"reassignments\": {},", kill_stats.reassignments);
    println!("  \"reassigned_2w_secs\": {tkill:.4},");
    println!(
        "  \"reassignment_overhead_secs\": {:.4}",
        (tkill - t2).max(0.0)
    );
    println!("}}");
}
