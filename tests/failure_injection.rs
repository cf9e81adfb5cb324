//! Failure injection at the transport layer: UDP flow export is lossy and
//! unordered in the real world; collectors must degrade proportionally and
//! never corrupt what they do accept.
//!
//! With `template_refresh = 1` every datagram is self-describing, so the
//! expected record counts under loss are *exact*: each datagram carries a
//! full `batch` of records except the last (the partial tail), and a kept
//! datagram always decodes.

use lockdown::core::{Context, Fidelity};
use lockdown::flow::prelude::*;
use lockdown::topology::vantage::VantagePoint;
use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::time::Date;
use std::collections::HashSet;
use std::sync::OnceLock;

const BATCH: usize = 40;

/// One Test-fidelity day of flows, generated once.
fn flows_once() -> &'static Vec<FlowRecord> {
    static FLOWS: OnceLock<Vec<FlowRecord>> = OnceLock::new();
    FLOWS.get_or_init(|| {
        let ctx = Context::new(Fidelity::Test);
        ctx.generator()
            .generate_day(VantagePoint::IxpCe, Date::new(2020, 3, 25))
    })
}

/// Export the shared day with the given refresh cadence and starting
/// sequence. Non-zero starts model long-lived exporters, including
/// counters about to wrap the u32 wire field.
fn export(template_refresh: u32, initial_sequence: u32) -> Vec<Vec<u8>> {
    let date = Date::new(2020, 3, 25);
    let mut cfg = ExporterConfig::new(ExportFormat::Ipfix, date.midnight());
    cfg.batch_size = BATCH;
    cfg.template_refresh = template_refresh;
    cfg.initial_sequence = initial_sequence;
    let mut exporter = Exporter::new(cfg);
    exporter.export_all(flows_once(), date.at_hour(23).add_secs(3_599))
}

/// The day's export with a template in every datagram, generated once.
fn self_describing() -> &'static Vec<Vec<u8>> {
    static PKTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PKTS.get_or_init(|| export(1, 0))
}

/// Exact records inside datagram `i` of `n` when `total` flows were
/// exported in full batches: every datagram is full except the last.
fn records_in(i: usize, n: usize, total: usize) -> usize {
    if i + 1 < n {
        BATCH
    } else {
        total - BATCH * (n - 1)
    }
}

#[test]
fn datagram_loss_drops_exactly_the_lost_batches() {
    let (flows, pkts) = (flows_once(), self_describing());
    let mut rng = SplitMix::new(1);
    let keep: Vec<bool> = pkts.iter().map(|_| rng.chance(0.8)).collect();
    let kept: Vec<&Vec<u8>> = pkts
        .iter()
        .zip(&keep)
        .filter_map(|(p, &k)| k.then_some(p))
        .collect();
    assert!(kept.len() < pkts.len(), "the schedule must drop something");

    let mut collector = Collector::new();
    collector.ingest_all(kept.iter().map(|p| p.as_slice()));

    // Every kept datagram is self-describing, so the surviving record
    // count is exactly the sum over kept datagrams — no tolerance.
    let expected: usize = keep
        .iter()
        .enumerate()
        .filter(|&(_, &k)| k)
        .map(|(i, _)| records_in(i, pkts.len(), flows.len()))
        .sum();
    assert_eq!(collector.stats().records as usize, expected);
    assert_eq!(collector.stats().packets_ok as usize, kept.len());
    assert_eq!(collector.stats().malformed, 0);

    // Whatever survived is intact (spot check: all records appear in the
    // original set).
    let originals: HashSet<_> = flows.iter().map(|f| (f.key, f.bytes, f.start)).collect();
    for r in collector.records() {
        assert!(originals.contains(&(r.key, r.bytes, r.start)));
    }
}

#[test]
fn reordering_is_harmless_once_template_known() {
    let (flows, pkts) = (flows_once(), self_describing());
    let mut pkts = pkts.clone();
    let mut rng = SplitMix::new(2);
    rng.shuffle(&mut pkts);
    let mut collector = Collector::new();
    collector.ingest_all(pkts.iter().map(|p| p.as_slice()));
    assert_eq!(collector.stats().records as usize, flows.len());
    assert_eq!(collector.stats().missing_template, 0);
}

#[test]
fn losing_template_packets_costs_exactly_the_refresh_window() {
    // With a refresh every 4 datagrams, templates ride in datagrams
    // 0, 4, 8, …. Dropping datagram 0 loses its own batch outright and
    // leaves datagrams 1–3 undecodable (their data sets are skipped and
    // counted per set); datagram 4 re-announces and everything after
    // decodes. The damage is exactly the refresh window.
    let (flows, pkts) = (flows_once(), export(4, 0));
    let mut collector = Collector::new();
    collector.ingest_all(pkts.iter().skip(1).map(|p| p.as_slice()));
    let lost = flows.len() - collector.stats().records as usize;
    assert_eq!(lost, 4 * BATCH, "exactly the refresh window is lost");
    // Datagrams 1–3 each contribute one skipped data set; they are still
    // structurally valid, so none of them is malformed.
    assert_eq!(collector.stats().missing_template, 3);
    assert_eq!(collector.stats().malformed, 0);
    assert_eq!(collector.stats().packets_ok as usize, pkts.len() - 1);
}

#[test]
fn corruption_never_panics_and_is_counted() {
    let pkts = self_describing();
    let mut rng = SplitMix::new(3);
    let mut collector = Collector::new();
    let mut corrupted = 0u64;
    for p in pkts {
        let mut bytes = p.clone();
        // Flip a random byte in ~half the packets.
        if rng.chance(0.5) {
            let idx = rng.below(bytes.len() as u64) as usize;
            bytes[idx] ^= 0xFF;
            corrupted += 1;
        }
        collector.ingest(&bytes); // must not panic
    }
    let stats = collector.stats();
    // Every datagram is either structurally accepted or malformed —
    // skipped sets are accounted separately in `missing_template`.
    assert_eq!(stats.packets_ok + stats.malformed, pkts.len() as u64);
    // Corruption in the header/length region is detected; flips inside
    // record payloads decode to (wrong) values — flow telemetry has no
    // integrity protection, which is why real deployments run it on
    // dedicated networks. At minimum, no corrupted run may *crash*.
    assert!(corrupted > 0);
}

#[test]
fn truncated_tails_rejected_cleanly() {
    let pkts = self_describing();
    let mut collector = Collector::new();
    for p in pkts.iter().take(20) {
        for cut in [1usize, 7, p.len() / 2] {
            if cut < p.len() {
                collector.ingest(&p[..p.len() - cut]);
            }
        }
    }
    assert_eq!(collector.stats().packets_ok, 0);
    assert!(collector.stats().malformed > 0);
}

/// A fault schedule: up to 600 per-datagram actions below `kinds` (scaled
/// by the case `size`; datagrams past the end are delivered), and the
/// exporter's starting sequence — fresh, within 5,000 of the u32 wrap,
/// or anywhere.
fn schedule(rng: &mut SplitMix, size: usize, kinds: u64) -> (Vec<u8>, u32) {
    let n = rng.below(1 + 6 * size as u64);
    let actions = (0..n).map(|_| rng.below(kinds) as u8).collect();
    let near_wrap = u32::MAX - rng.below(5_001) as u32;
    let anywhere = rng.next_u64() as u32;
    (actions, rng.pick(&[0, near_wrap, anywhere]))
}

/// Any drop/duplicate/reorder schedule leaves the accepted records a
/// sub-multiset of what was sent: faults lose data, they never invent
/// or mutate it. The exporter's starting sequence is fuzzed across the
/// whole u32 range — including values a few datagrams below the wrap —
/// because wrapped sequence headers must never corrupt decoding.
#[test]
fn fault_schedules_never_corrupt_accepted_records() {
    cases(12, |rng, size| {
        let (actions, initial_sequence) = schedule(rng, size, 3);
        let flows = flows_once();
        let exported;
        let pkts = if initial_sequence == 0 {
            self_describing()
        } else {
            exported = export(1, initial_sequence);
            &exported
        };
        // 0 = deliver, 1 = drop, 2 = duplicate; missing tail delivers.
        let mut wire: Vec<&[u8]> = Vec::new();
        for (i, p) in pkts.iter().enumerate() {
            match actions.get(i).copied().unwrap_or(0) {
                1 => {}
                2 => {
                    wire.push(p);
                    wire.push(p);
                }
                _ => wire.push(p),
            }
        }
        rng.shuffle(&mut wire);

        let mut collector = Collector::new();
        collector.ingest_all(wire.iter().copied());
        let stats = collector.stats();
        assert_eq!(stats.packets_ok + stats.malformed, wire.len() as u64);
        assert_eq!(stats.malformed, 0);
        assert_eq!(stats.missing_template, 0);

        let originals: HashSet<_> = flows
            .iter()
            .map(|f| (f.key, f.start, f.end, f.bytes, f.packets))
            .collect();
        for r in collector.records() {
            assert!(
                originals.contains(&(r.key, r.start, r.end, r.bytes, r.packets)),
                "accepted record not in the sent set: {:?}",
                r
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Shard sequence accounting: duplicates arriving after their gap was
// counted must not double-credit the loss estimate.
// ---------------------------------------------------------------------------

use lockdown::collect::{CollectorShard, DomainTruth, WireDatagram};

const SHARD_DOMAIN: u32 = 9;

/// Wrap the self-describing export (or a fuzzed-sequence variant) in
/// `WireDatagram`s carrying exact ground-truth record tags.
fn wire_datagrams(pkts: &[Vec<u8>], total: usize) -> Vec<WireDatagram> {
    pkts.iter()
        .enumerate()
        .map(|(i, bytes)| WireDatagram {
            domain: SHARD_DOMAIN,
            records: records_in(i, pkts.len(), total) as u32,
            flow_bytes: 0,
            flow_packets: 0,
            bytes: bytes.clone(),
        })
        .collect()
}

#[test]
fn duplicate_after_counted_gap_does_not_double_credit_loss() {
    // Datagram 1 is dropped in place; by the time its copies show up at
    // the tail, datagrams 2.. have forced the gap into the tracker. The
    // first late copy fills the gap (no loss); the second is a duplicate.
    // The historical failure mode: the gap stays credited to `est_lost`
    // even though a copy eventually delivered — loss and duplicate both
    // counted, breaking the ledger by one batch.
    let flows = flows_once();
    let pkts = self_describing();
    let datagrams = wire_datagrams(pkts, flows.len());
    assert!(datagrams.len() > 4, "need a few datagrams");

    let mut shard = CollectorShard::new(ExportFormat::Ipfix);
    for (i, dg) in datagrams.iter().enumerate() {
        if i != 1 {
            shard.ingest(dg);
        }
    }
    shard.ingest(&datagrams[1]); // late copy: fills the counted gap
    shard.ingest(&datagrams[1]); // true duplicate of the late copy

    let out = shard.close_domain(
        &DomainTruth {
            domain: SHARD_DOMAIN,
            first_seq: 0,
            units_sent: flows.len() as u64,
        },
        false,
    );
    let t = shard.totals();
    assert_eq!(out.len(), flows.len(), "every record delivered eventually");
    assert_eq!(t.records_lost_est, 0, "a filled gap is not a loss");
    assert_eq!(
        t.records_duplicate,
        u64::from(datagrams[1].records),
        "exactly one copy is a duplicate"
    );
    assert_eq!(t.records_anomalous, 0);
    assert_eq!(t.records_malformed, 0);
    assert_eq!(t.records_undecoded, 0);
    assert_eq!(t.records_abandoned, 0);
}

/// Any dup × reorder × gap schedule balances the shard ledger exactly
/// (IPFIX, template in every datagram, so sequence units are records
/// and nothing is an estimate):
///   accepted == sent − never_delivered
///   est_lost == never_delivered
///   duplicates == extra delivered copies
/// with zero anomalous / malformed / undecoded / abandoned records.
/// "Never delivered" is per ground truth — a datagram whose only
/// surviving copy arrives late, after its gap was counted, was still
/// delivered.
#[test]
fn dup_reorder_gap_schedules_balance_exactly() {
    cases(10, |rng, size| {
        // 0 = deliver; 1 = drop; 2 = deliver + late dup;
        // 3 = drop in place but deliver a late copy (dup-after-gap);
        // 4 = deliver + two late dups.
        let (actions, initial_sequence) = schedule(rng, size, 5);
        let flows = flows_once();
        let exported;
        let pkts = if initial_sequence == 0 {
            self_describing()
        } else {
            exported = export(1, initial_sequence);
            &exported
        };
        let datagrams = wire_datagrams(pkts, flows.len());

        let mut in_place: Vec<usize> = Vec::new();
        let mut late: Vec<usize> = Vec::new();
        let mut copies = vec![0u32; datagrams.len()];
        for (i, _) in datagrams.iter().enumerate() {
            match actions.get(i).copied().unwrap_or(0) {
                1 => {}
                2 => {
                    in_place.push(i);
                    late.push(i);
                }
                3 => late.push(i),
                4 => {
                    in_place.push(i);
                    late.push(i);
                    late.push(i);
                }
                _ => in_place.push(i),
            }
        }
        // Bounded reorder of the in-order stream: adjacent swaps, the
        // same fault the transport injects.
        let mut k = 0;
        while k + 1 < in_place.len() {
            if rng.chance(0.3) {
                in_place.swap(k, k + 1);
                k += 2;
            } else {
                k += 1;
            }
        }
        // Late copies arrive after everything in-place, interleaved
        // arbitrarily among themselves: the strongest dup-after-gap
        // schedule the loopback transport cannot produce.
        rng.shuffle(&mut late);

        let mut shard = CollectorShard::new(ExportFormat::Ipfix);
        for &i in in_place.iter().chain(&late) {
            copies[i] += 1;
            shard.ingest(&datagrams[i]);
        }
        let out = shard.close_domain(
            &DomainTruth {
                domain: SHARD_DOMAIN,
                first_seq: initial_sequence,
                units_sent: flows.len() as u64,
            },
            false,
        );
        let t = shard.totals();

        let never_delivered: u64 = copies
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .map(|(i, _)| u64::from(datagrams[i].records))
            .sum();
        let extra_copies: u64 = copies
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 1)
            .map(|(i, &c)| u64::from(c - 1) * u64::from(datagrams[i].records))
            .sum();

        assert_eq!(t.records_accepted, flows.len() as u64 - never_delivered);
        assert_eq!(out.len() as u64, t.records_accepted);
        assert_eq!(
            t.records_lost_est, never_delivered,
            "loss must equal never-delivered ground truth (no double credit \
             for gaps later filled by duplicates)"
        );
        assert_eq!(t.records_duplicate, extra_copies);
        assert_eq!(t.records_anomalous, 0);
        assert_eq!(t.records_malformed, 0);
        assert_eq!(t.records_undecoded, 0);
        assert_eq!(t.records_abandoned, 0);
        // Exact partition: every delivered tag landed in exactly one bucket.
        let delivered_tags: u64 = copies
            .iter()
            .enumerate()
            .map(|(i, &c)| u64::from(c) * u64::from(datagrams[i].records))
            .sum();
        assert_eq!(t.records_accepted + t.records_duplicate, delivered_tags);
    });
}

// ---------------------------------------------------------------------------
// The engine's supervisor: chaos-injected worker faults, quarantine, resume.
// ---------------------------------------------------------------------------

use lockdown::base::fault::{FaultProfile as ChaosConfig, Schedule as ChaosInjector};
use lockdown::core::engine::{self, EnginePlan};
use lockdown::store::{ArchiveReader, StoreMetrics, JOURNAL_NAME, MANIFEST_NAME, PACKS_DIR};
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_traffic::plan::Stream;
use std::path::PathBuf;

fn chaos_tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockdown-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An archived pass killed mid-publication resumes from the journal:
/// only the missing cells are regenerated and the output is identical to
/// the uninterrupted pass.
#[test]
fn killed_archived_pass_resumes_from_journal() {
    let ctx = Context::with_seed(Fidelity::Test, 63);
    let dir = chaos_tmp_dir("resume");
    let vp = VantagePoint::IxpSe;
    let (d1, d2) = (Date::new(2020, 3, 9), Date::new(2020, 3, 10));

    let cold = || {
        let mut plan = EnginePlan::new();
        plan.with_archive(&dir);
        let d = plan.subscribe(Stream::Vantage(vp), d1, d2, HourlyVolume::new);
        let mut out = engine::run(&ctx, plan).expect("pass succeeds");
        let stats = out.stats();
        (out.take(d).hourly_series(d1, d2), stats)
    };

    let (reference, cold_stats) = cold();
    let total = cold_stats.cells_generated;
    assert_eq!(total, 2 * 24);

    // Simulate a kill between the last checkpoint and manifest
    // publication: the journal holds what the manifest held, and the
    // tail of one day pack never hit the disk. The journal encoding IS
    // the manifest encoding, so a rename builds the crash state exactly;
    // the cut removes the ranges of exactly the cells that end past it.
    let metas: Vec<_> = ArchiveReader::open(&dir, StoreMetrics::new())
        .expect("manifest decodes")
        .expect("manifest present")
        .segments()
        .copied()
        .collect();
    std::fs::rename(dir.join(MANIFEST_NAME), dir.join(JOURNAL_NAME)).expect("fake the kill");
    let pack = metas[0].pack_name();
    let pack_len: u64 = metas
        .iter()
        .filter(|m| m.pack_name() == pack)
        .map(|m| m.len)
        .sum();
    let cut = pack_len * 3 / 4;
    let killed = metas
        .iter()
        .filter(|m| m.pack_name() == pack && m.offset + m.len > cut)
        .count();
    assert!(killed > 0 && killed < 24, "the cut removes {killed} cells");
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(PACKS_DIR).join(&pack))
        .expect("open the pack")
        .set_len(cut)
        .expect("cut the pack");

    let (resumed, warm_stats) = cold();
    assert_eq!(resumed, reference, "resume must not change the figures");
    assert_eq!(warm_stats.cells_resumed, total - killed as u64);
    assert_eq!(warm_stats.cells_generated, killed as u64);
    // The resumed pass completed, so the manifest is republished and a
    // warm replay generates nothing.
    let (replayed, warm2) = cold();
    assert_eq!(replayed, reference);
    assert_eq!(warm2.cells_generated, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The quarantine set is a pure function of the chaos schedule: it
/// equals the prediction computed from `ChaosInjector` alone (a cell
/// is quarantined iff every attempt in its budget draws a panic) and
/// it is identical across worker counts.
#[test]
fn quarantine_set_is_deterministic_and_predicted() {
    cases(6, |rng, _| {
        let chaos_seed = rng.next_u64();
        let panic_pct = rng.range(30..90) as u32;
        let attempts = rng.range(1..4) as u32;
        let ctx = Context::with_seed(Fidelity::Test, 11);
        let vp = VantagePoint::IxpSe;
        let (d1, d2) = (Date::new(2020, 3, 2), Date::new(2020, 3, 3));
        let cfg = ChaosConfig {
            seed: chaos_seed,
            panic: f64::from(panic_pct) / 100.0,
            attempts,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            ..ChaosConfig::zero()
        };

        let injector = ChaosInjector::new(cfg);
        let mut predicted: Vec<(i64, u8)> = Vec::new();
        for date in d1.range_inclusive(d2) {
            for hour in 0..24u8 {
                let all_panic = (1..=attempts).all(|a| {
                    injector
                        .decide(Stream::Vantage(vp).wire_id(), date.day_number(), hour, a)
                        .panic
                });
                if all_panic {
                    predicted.push((date.day_number(), hour));
                }
            }
        }

        for workers in [1usize, 2, 5] {
            let mut plan = EnginePlan::new();
            plan.with_chaos(cfg);
            let d = plan.subscribe(Stream::Vantage(vp), d1, d2, HourlyVolume::new);
            let mut out = engine::run_with_workers(&ctx, plan, workers)
                .expect("a pass never aborts on injected panics");
            let quarantined: Vec<(i64, u8)> = out
                .degraded()
                .map(|r| {
                    r.quarantined
                        .iter()
                        .map(|q| (q.cell.date.day_number(), q.cell.hour))
                        .collect()
                })
                .unwrap_or_default();
            assert_eq!(
                &quarantined, &predicted,
                "workers={} seed={} panic={} attempts={}",
                workers, chaos_seed, cfg.panic, attempts
            );
            assert_eq!(out.stats().cells_quarantined as usize, predicted.len());
            // Quarantined cells contribute nothing; all other cells are intact.
            let _ = out.take(d);
        }
    });
}

// ---------------------------------------------------------------------------
// One driver: thread links and process links quarantine alike.
// ---------------------------------------------------------------------------

use lockdown::core::experiments::figures::FIGURES;
use lockdown::core::experiments::suite::ShardSuiteOptions;
use lockdown::shard::coord::{self, CoordOptions};
use lockdown::shard::worker::serve_worker;
use std::net::TcpListener;

/// A cell-level chaos profile quarantines the same cells, with the same
/// attempts and errors, and renders the same degraded sections whether
/// the suite runs on one thread, on three, or on two worker processes
/// behind the coordinator: the driver runs a thread and a process alike
/// as links, and on either the per-cell supervisor draws the same
/// schedule.
#[test]
fn thread_and_process_links_quarantine_the_same_cells() {
    let chaos = ChaosConfig {
        seed: 0x51DE,
        panic: 0.05,
        attempts: 2,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        ..ChaosConfig::zero()
    };
    let ctx = Context::new(Fidelity::Test);
    let threads = |workers| {
        let mut plan = EnginePlan::new();
        plan.with_chaos(chaos);
        let pending: Vec<_> = FIGURES.iter().map(|f| f.plan(&ctx, &mut plan)).collect();
        let mut out = engine::run_with_workers(&ctx, plan, workers).expect("archive-free pass");
        let report = out
            .degraded()
            .expect("the profile quarantines cells")
            .clone();
        let sections: Vec<String> = pending
            .into_iter()
            .map(|finish| finish(&ctx, &mut out)())
            .collect();
        (report, sections)
    };
    let (report, sections) = threads(1);
    assert!(report.quarantined.len() > 1 && report.retries > 0);
    assert_eq!(threads(3), (report.clone(), sections.clone()), "3 threads");

    let opts = CoordOptions {
        suite: ShardSuiteOptions {
            archive: None,
            chaos,
        },
        ..CoordOptions::default()
    };
    let mut addrs = Vec::new();
    let mut workers = Vec::new();
    for _ in 0..2 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        addrs.push(listener.local_addr().expect("worker addr").to_string());
        let suite = opts.suite.clone();
        workers.push(std::thread::spawn(move || {
            serve_worker(&Context::new(Fidelity::Test), &suite, listener)
        }));
    }
    let links = coord::attach_workers(&addrs).expect("attach");
    let out = coord::coordinate(&ctx, &opts, links).expect("coordinate");
    for worker in workers {
        worker
            .join()
            .expect("worker thread")
            .expect("worker protocol");
    }
    assert_eq!(out.stats.quarantined_ranges, 0, "{}", out.stats.summary());
    let suite = out.suite.as_ref().expect("quarantined cells leave a suite");
    assert_eq!(suite.degraded.as_ref(), Some(&report), "process links");
    // The suite notes a figure's quarantined cells after its section.
    let renders = out.renders();
    assert_eq!(renders.len(), sections.len());
    for ((figure, section), coordinated) in FIGURES.iter().zip(&sections).zip(renders) {
        let note = coordinated
            .strip_prefix(section.as_str())
            .unwrap_or_else(|| panic!("process links: section {} differs", figure.name));
        let affected = report
            .affected
            .iter()
            .any(|(label, _)| label == figure.name);
        assert_eq!(note.contains("[degraded:"), affected, "{}", figure.name);
    }
}
