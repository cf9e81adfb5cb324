//! Emit machine-readable shard-plane numbers as JSON (hand-formatted —
//! no serialization dependency): coordinated wall clock at 1, 2 and 4
//! workers against the single-process baseline, plus the cost of one
//! seeded worker-kill reassignment. `scripts/verify.sh` writes the
//! output to `BENCH_shard.json` at the repo root.
//!
//! Workers here are protocol-serving threads on loopback listeners (the
//! same topology the shard integration tests use), so the numbers
//! isolate the shard layer itself — framing, state streaming, merge —
//! from process spawn cost. Every pass is cold (no archive) and every
//! worker's engine uses the machine's full core budget, so wall clock
//! does not *drop* with more workers on a saturated machine; the
//! interesting numbers are the coordination overhead vs the baseline
//! and the reassignment penalty under chaos.
//!
//! Usage: `cargo run --release -p lockdown-bench --bin shard_json
//! [--fidelity test|standard]` (prints to stdout).

use lockdown::base::fault::{FaultProfile, Schedule};
use lockdown::core::experiments::suite::{self, suite_shard_cell_count};
use lockdown::core::{Context, Fidelity};
use lockdown::shard::coord::{self, chunk_ranges, CoordOptions};
use lockdown::shard::worker::serve_worker;
use std::net::TcpListener;
use std::time::Instant;

/// One coordinated pass over `n` protocol-thread workers; returns the
/// wall clock and the coordinator stats.
fn coordinated_pass(fidelity: Fidelity, opts: &CoordOptions, n: usize) -> (f64, coord::CoordStats) {
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

    // Warm-up pass, then the single-process baseline.
    let _ = suite::run_all(&Context::new(fidelity));
    let t = Instant::now();
    let single = suite::run_all(&Context::new(fidelity));
    let single_secs = t.elapsed().as_secs_f64();

    let mut pass_secs = [0.0f64; 3];
    for (slot, workers) in [1usize, 2, 4].iter().enumerate() {
        let (secs, stats) = coordinated_pass(fidelity, &opts, *workers);
        assert_eq!(stats.quarantined_ranges, 0, "clean pass");
        pass_secs[slot] = secs;
    }
    let [t1, t2, t4] = pass_secs;

    // Reassignment cost: same 2-worker pass, one seeded first-attempt
    // kill, every retry clean — the delta is protocol + rerun overhead.
    let mut chaos_opts = CoordOptions::default();
    chaos_opts.suite.chaos = reassignment_seed(cells, 2, opts.chunks_per_worker);
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
    println!("  \"single_process_secs\": {single_secs:.4},");
    println!("  \"workers_1_secs\": {t1:.4},");
    println!("  \"workers_2_secs\": {t2:.4},");
    println!("  \"workers_4_secs\": {t4:.4},");
    println!(
        "  \"coordination_overhead_1w\": {:.3},",
        t1 / single_secs.max(1e-9)
    );
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
