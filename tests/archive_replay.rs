//! Cold vs. warm archive equivalence: an engine pass that replays cells
//! from a columnar archive must be byte-identical to the pass that
//! generated (and spilled) them — per consumer, in wire mode, and across
//! worker counts — while doing zero flow generation. Staleness (different
//! seed) and corruption (flipped byte) must be detected and counted, and
//! the affected cells regenerated rather than replayed. (The full figure
//! suite, cold and warm, is the `archive` rows of `tests/equivalence.rs`.)

use lockdown::core::engine::{self, EnginePlan};
use lockdown::core::{Context, Fidelity};
use lockdown::store::{
    ArchiveReader, ArchiveWriter, StoreKey, StoreMetrics, MANIFEST_NAME, SEGMENTS_DIR,
};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_base::hash::fold;
use lockdown_collect::WireConfig;
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::{Cell, Stream, FINGERPRINT_INIT};
use std::path::{Path, PathBuf};

/// Engine consumer that keeps raw flows sorted into canonical order, so
/// equality is insensitive to worker scheduling.
struct SortedFlows {
    flows: Vec<FlowRecord>,
}

impl FlowConsumer for SortedFlows {
    fn observe(&mut self, record: &FlowRecord) {
        self.flows.push(*record);
    }

    fn merge(&mut self, mut other: Self) {
        self.flows.append(&mut other.flows);
    }
}

impl SortedFlows {
    fn sorted(mut self) -> Vec<FlowRecord> {
        self.flows.sort_by_key(|f| {
            (
                f.start,
                f.end,
                f.key.src_addr,
                f.key.dst_addr,
                f.key.src_port,
                f.key.dst_port,
            )
        });
        self.flows
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockdown-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One `(vantage, window)` pass, optionally archived; returns the sorted
/// flows and the pass stats.
fn pass(
    ctx: &Context,
    vp: VantagePoint,
    start: Date,
    end: Date,
    archive: Option<&Path>,
    wire: bool,
    workers: usize,
) -> (
    Vec<FlowRecord>,
    engine::EngineStats,
    Option<(u64, u64, u64)>,
) {
    let mut plan = EnginePlan::new();
    if wire {
        plan.with_wire(WireConfig::new());
    }
    if let Some(dir) = archive {
        plan.with_archive(dir);
    }
    let d = plan.subscribe(Stream::Vantage(vp), start, end, || SortedFlows {
        flows: Vec::new(),
    });
    let mut out = engine::run_with_workers(ctx, plan, workers).expect("pass succeeds");
    let store = out.store_metrics().map(|m| {
        (
            m.segments_written.get(),
            m.segments_read.get(),
            m.segments_pruned.get(),
        )
    });
    let stats = out.stats();
    (out.take(d).sorted(), stats, store)
}

#[test]
fn warm_replay_is_byte_identical_and_generates_nothing() {
    let ctx = Context::with_seed(Fidelity::Test, 41);
    let dir = tmp_dir("identity");
    let (d1, d2) = (Date::new(2020, 3, 9), Date::new(2020, 3, 11));
    let vp = VantagePoint::IxpSe;

    let (plain, _, none) = pass(&ctx, vp, d1, d2, None, false, 2);
    assert!(none.is_none(), "no archive, no store metrics");

    let (cold, cold_stats, cold_store) = pass(&ctx, vp, d1, d2, Some(&dir), false, 2);
    let (written, read, _) = cold_store.expect("archived pass carries store metrics");
    assert_eq!(cold_stats.cells_generated, 3 * 24);
    assert_eq!(cold_stats.cells_replayed, 0);
    assert_eq!(written, 3 * 24);
    assert_eq!(read, 0);

    let (warm, warm_stats, warm_store) = pass(&ctx, vp, d1, d2, Some(&dir), false, 2);
    let (written, read, _) = warm_store.expect("archived pass carries store metrics");
    // The acceptance criterion: replay does ZERO generation...
    assert_eq!(warm_stats.cells_generated, 0);
    assert_eq!(warm_stats.cells_replayed, 3 * 24);
    assert_eq!(written, 0);
    assert_eq!(read, 3 * 24);
    // ...and the flows are bit-identical to both the cold spill and the
    // archive-free baseline.
    assert_eq!(warm, cold);
    assert_eq!(warm, plain);
    assert_eq!(warm_stats.flows_emitted, cold_stats.flows_emitted);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `tests/fixtures/archive-pr15` was written by the encoder as it stood
/// before the CRC-32 went eight bytes a step (four cells cut to 67, 8, 0
/// and 21 records, so segment lengths fall on either side of the
/// stride). Today's reader must accept every checksum in it, and today's
/// writer must produce the same files from the same records: archives
/// already on disk stay valid, and neither the format nor a CRC value
/// has moved.
#[test]
fn archive_written_before_the_sliced_crc_replays_and_re_encodes_bit_for_bit() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/archive-pr15");
    let reader = ArchiveReader::open(&fixture, StoreMetrics::new())
        .expect("manifest CRC and layout accepted")
        .expect("manifest present");
    assert_eq!(reader.segment_count(), 4);

    let dir = tmp_dir("fixture");
    let writer = ArchiveWriter::create(&dir, reader.key(), StoreMetrics::new()).expect("create");
    let mut files = vec![PathBuf::from(MANIFEST_NAME)];
    let mut records = Vec::new();
    for meta in reader.segments() {
        let flows = reader.read_cell(meta.cell).expect("segment CRC accepted");
        records.push(flows.len());
        writer.spill(meta.cell, &flows).expect("spill");
        files.push(Path::new(SEGMENTS_DIR).join(lockdown::store::segment_file_name(meta.cell)));
    }
    assert_eq!(records, [67, 8, 0, 21]);
    writer.finish().expect("publish");
    for file in files {
        assert_eq!(
            std::fs::read(dir.join(&file)).expect("re-encoded file"),
            std::fs::read(fixture.join(&file)).expect("fixture file"),
            "{} differs from the fixture",
            file.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_replay_is_worker_count_invariant() {
    let ctx = Context::with_seed(Fidelity::Test, 43);
    let dir = tmp_dir("workers");
    let (d1, d2) = (Date::new(2020, 2, 17), Date::new(2020, 2, 19));
    let vp = VantagePoint::IspCe;
    let (cold, _, _) = pass(&ctx, vp, d1, d2, Some(&dir), false, 1);
    for workers in [1usize, 2, 5] {
        let (warm, stats, _) = pass(&ctx, vp, d1, d2, Some(&dir), false, workers);
        assert_eq!(stats.cells_generated, 0, "workers={workers}");
        assert_eq!(warm, cold, "workers={workers}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn superset_archive_serves_subset_plan_with_pruning() {
    let ctx = Context::with_seed(Fidelity::Test, 47);
    let dir = tmp_dir("prune");
    let vp = VantagePoint::IxpCe;
    let (d1, d4) = (Date::new(2020, 3, 2), Date::new(2020, 3, 5));
    pass(&ctx, vp, d1, d4, Some(&dir), false, 2);

    // A narrower demand replays from the same archive: the plan hash
    // differs, but the generation key (seed + scenario) matches.
    let d2 = Date::new(2020, 3, 3);
    let (subset_warm, stats, store) = pass(&ctx, vp, d1, d2, Some(&dir), false, 2);
    let (_, read, pruned) = store.expect("store metrics");
    assert_eq!(stats.cells_generated, 0, "subset must replay, not respill");
    assert_eq!(stats.cells_replayed, 2 * 24);
    assert_eq!(read, 2 * 24);
    assert_eq!(pruned, 2 * 24, "the other two days' segments are pruned");

    let (subset_plain, _, _) = pass(&ctx, vp, d1, d2, None, false, 2);
    assert_eq!(subset_warm, subset_plain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_seed_invalidates_and_respills() {
    let dir = tmp_dir("stale");
    let (d1, d2) = (Date::new(2020, 3, 23), Date::new(2020, 3, 24));
    let vp = VantagePoint::IxpUs;
    let a = Context::with_seed(Fidelity::Test, 1);
    pass(&a, vp, d1, d2, Some(&dir), false, 2);

    // Different seed → different generation: the archive must NOT be
    // replayed (that would resurrect seed-1 flows under seed 2).
    let b = Context::with_seed(Fidelity::Test, 2);
    let (cold_b, stats, _) = pass(&b, vp, d1, d2, Some(&dir), false, 2);
    assert_eq!(stats.cells_replayed, 0, "stale archive must not replay");
    assert_eq!(stats.cells_generated, 2 * 24);
    let (plain_b, _, _) = pass(&b, vp, d1, d2, None, false, 2);
    assert_eq!(cold_b, plain_b);

    // And the respill re-keyed the archive: seed 2 now replays warm.
    let (warm_b, stats, _) = pass(&b, vp, d1, d2, Some(&dir), false, 2);
    assert_eq!(stats.cells_generated, 0);
    assert_eq!(warm_b, plain_b);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same seed, same knobs, same scenario — but spilled by a build whose
/// generator drew differently (another `rand`, or any build from before
/// `GENERATOR_STREAM` was folded into the key): the archive holds other
/// flows, so it is recreated, never replayed.
#[test]
fn archive_of_another_generator_stream_is_recreated_not_replayed() {
    let ctx = Context::with_seed(Fidelity::Test, 59);
    let dir = tmp_dir("stream");
    let (d1, d2) = (Date::new(2020, 3, 16), Date::new(2020, 3, 17));
    let vp = VantagePoint::IxpSe;

    // The key such a build published under: the knobs and the scenario,
    // no stream version.
    let c = ctx.config;
    let knobs = [
        c.flows_per_gbps.to_bits(),
        c.users_per_gbps.to_bits(),
        c.min_flows as u64,
    ];
    let unversioned = fold(
        FINGERPRINT_INIT,
        [fold(FINGERPRINT_INIT, knobs), ctx.scenario.fingerprint()],
    );
    assert_ne!(unversioned, ctx.scenario_hash());
    let foreign = StoreKey {
        seed: c.seed,
        scenario_hash: unversioned,
        plan_hash: 0,
    };
    // Its content covers the plan and is nothing this build generates.
    let writer = ArchiveWriter::create(&dir, foreign, StoreMetrics::new()).expect("create");
    for date in d1.range_inclusive(d2) {
        for hour in 0..24 {
            let stream = Stream::Vantage(vp);
            writer
                .spill(Cell { stream, date, hour }, &[])
                .expect("spill");
        }
    }
    writer.finish().expect("publish");

    let (plain, _, _) = pass(&ctx, vp, d1, d2, None, false, 2);
    assert!(!plain.is_empty());
    let (cold, stats, _) = pass(&ctx, vp, d1, d2, Some(&dir), false, 2);
    assert_eq!(stats.cells_replayed, 0, "a foreign stream must not replay");
    assert_eq!(stats.cells_generated, 2 * 24);
    assert_eq!(cold, plain);

    // The respill re-keyed the archive: it now replays warm.
    let (warm, stats, _) = pass(&ctx, vp, d1, d2, Some(&dir), false, 2);
    assert_eq!(stats.cells_generated, 0);
    assert_eq!(warm, plain);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one byte in the file at `path`.
fn flip_a_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(path, &bytes).expect("rewrite file");
}

#[test]
fn corrupt_segment_is_regenerated_and_counted() {
    let ctx = Context::with_seed(Fidelity::Test, 53);
    let dir = tmp_dir("corrupt");
    let (d1, d2) = (Date::new(2020, 4, 6), Date::new(2020, 4, 7));
    let vp = VantagePoint::MobileCe;
    pass(&ctx, vp, d1, d2, Some(&dir), false, 2);

    let seg_dir = dir.join(SEGMENTS_DIR);
    let mut names: Vec<_> = std::fs::read_dir(&seg_dir)
        .expect("segments dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    let victim = names[names.len() / 2].clone();
    flip_a_byte(&seg_dir.join(&victim));

    // The pass completes: the victim is regenerated, every other cell
    // replayed, and the flows are the archive-free pass's.
    let mut plan = EnginePlan::new();
    plan.with_archive(&dir);
    let d = plan.subscribe(Stream::Vantage(vp), d1, d2, || SortedFlows {
        flows: Vec::new(),
    });
    let mut out = engine::run_with_workers(&ctx, plan, 2).expect("a corrupt segment is not fatal");
    let stats = out.stats();
    assert_eq!(stats.cells_generated, 1);
    assert_eq!(stats.cells_replayed, 2 * 24 - 1);
    assert_eq!(out.supervisor_metrics().replay_corruptions.get(), 1);
    let (plain, _, _) = pass(&ctx, vp, d1, d2, None, false, 2);
    assert_eq!(out.take(d).sorted(), plain);

    // A warm pass writes nothing, so the archive still names the victim.
    let report = ArchiveReader::open(&dir, StoreMetrics::new())
        .expect("manifest intact")
        .expect("manifest present")
        .verify();
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    assert!(
        report.failures[0].contains(&victim),
        "{:?}",
        report.failures
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_runs_the_pass_cold() {
    let ctx = Context::with_seed(Fidelity::Test, 61);
    let dir = tmp_dir("corrupt-manifest");
    let day = Date::new(2020, 4, 14);
    let vp = VantagePoint::IxpCe;
    let (plain, _, _) = pass(&ctx, vp, day, day, Some(&dir), false, 2);
    flip_a_byte(&dir.join(MANIFEST_NAME));

    let mut plan = EnginePlan::new();
    plan.with_archive(&dir);
    let d = plan.subscribe(Stream::Vantage(vp), day, day, || SortedFlows {
        flows: Vec::new(),
    });
    let mut out = engine::run_with_workers(&ctx, plan, 2).expect("a corrupt manifest is not fatal");
    let stats = out.stats();
    assert_eq!(stats.cells_generated, 24);
    assert_eq!(stats.cells_replayed, 0);
    let store = out.store_metrics().expect("archived pass");
    assert_eq!(store.resume_rejected.get(), 1);
    assert_eq!(out.take(d).sorted(), plain);

    // The cold pass republished the manifest: the next one is warm.
    let (warm, stats, _) = pass(&ctx, vp, day, day, Some(&dir), false, 2);
    assert_eq!(stats.cells_generated, 0);
    assert_eq!(warm, plain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_mode_cold_and_warm_agree() {
    let ctx = Context::with_seed(Fidelity::Test, 59);
    let dir = tmp_dir("wire");
    let (d1, d2) = (Date::new(2020, 3, 16), Date::new(2020, 3, 17));
    let vp = VantagePoint::IspCe;
    // Archive stores *generated* cells; the wire plane runs on top of the
    // replayed batch, so zero-fault wire output must match cold exactly.
    let (cold, _, _) = pass(&ctx, vp, d1, d2, Some(&dir), true, 2);
    let (warm, stats, _) = pass(&ctx, vp, d1, d2, Some(&dir), true, 2);
    assert_eq!(stats.cells_generated, 0);
    assert_eq!(warm, cold);
    let (plain, _, _) = pass(&ctx, vp, d1, d2, None, true, 2);
    assert_eq!(warm, plain);
    let _ = std::fs::remove_dir_all(&dir);
}
