//! Cold vs. warm archive equivalence: an engine pass that replays cells
//! from a columnar archive must be byte-identical to the pass that
//! generated (and spilled) them — per consumer, in wire mode, and across
//! worker counts — while doing zero flow generation. Staleness (different
//! seed) and corruption (flipped byte) must be detected and counted, and
//! the affected cells regenerated rather than replayed. (The full figure
//! suite, cold and warm, is the `archive` rows of `tests/equivalence.rs`.)

use lockdown::core::engine::{self, EnginePlan};
use lockdown::core::{Context, Fidelity};
use lockdown::store::segment::{decode_segment, encode_segment};
use lockdown::store::{
    ArchiveReader, ArchiveWriter, SegmentMeta, StoreError, StoreKey, StoreMetrics, JOURNAL_NAME,
    MANIFEST_NAME, MANIFEST_VERSION, PACKS_DIR,
};
use lockdown_analysis::codec::{CodecError, ConsumerTag, StateReader};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_base::crc::crc32;
use lockdown_base::hash::fold;
use lockdown_collect::WireConfig;
use lockdown_flow::record::{FlowRecord, HourRun};
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::{Cell, Stream, FINGERPRINT_INIT};
use std::path::{Path, PathBuf};

/// Engine consumer that keeps raw flows sorted into canonical order, so
/// equality is insensitive to worker scheduling. Its state crosses
/// threads as one store segment, so a pass runs it on every thread.
struct SortedFlows {
    flows: Vec<FlowRecord>,
}

impl FlowConsumer for SortedFlows {
    fn observe_run(&mut self, run: &HourRun<'_>) {
        self.flows.extend_from_slice(run.records);
    }

    fn state_tag(&self) -> ConsumerTag {
        ConsumerTag {
            id: 200,
            name: "SortedFlows",
        }
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let segment = encode_segment(&self.flows);
        out.put_u64_be(segment.len() as u64);
        out.extend_from_slice(&segment);
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let len = r.u64("segment length")? as usize;
        let segment = r.bytes(len, "segment")?;
        let (mut flows, _) =
            decode_segment("SortedFlows state", segment).map_err(|e| CodecError {
                consumer: "SortedFlows",
                detail: e.to_string(),
            })?;
        self.flows.append(&mut flows);
        Ok(())
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
/// stride), in the version-1 layout of one file per cell. Today's reader
/// refuses its manifest by version, by name. Its segments hold the
/// version-1 column encodings: each must still pass its checksum, so no
/// CRC value has moved, and a decode refuses it by version, by name,
/// instead of misreading its columns.
#[test]
fn v1_archive_and_its_segments_are_refused_by_version() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/archive-pr15");
    let err = ArchiveReader::open(&fixture, StoreMetrics::new()).expect_err("a v1 manifest");
    assert_eq!(
        err,
        StoreError::Version {
            file: MANIFEST_NAME.to_string(),
            found: 1
        }
    );

    let mut segments: Vec<PathBuf> = std::fs::read_dir(fixture.join("segments"))
        .expect("fixture segments")
        .map(|e| e.expect("dir entry").path())
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 4);
    for path in segments {
        let bytes = std::fs::read(&path).expect("fixture segment");
        let (body, crc) = bytes.split_at(bytes.len() - 4);
        assert_eq!(crc32(body).to_be_bytes(), crc, "{}", path.display());
        assert_eq!(
            decode_segment("fixture", &bytes).expect_err("a v1 segment"),
            StoreError::Version {
                file: "fixture".to_string(),
                found: 1
            },
            "{}",
            path.display()
        );
    }
}

/// The manifest entries of the archive at `dir`.
fn manifest(dir: &Path) -> Vec<SegmentMeta> {
    let reader = ArchiveReader::open(dir, StoreMetrics::new())
        .expect("manifest decodes")
        .expect("manifest present");
    reader.segments().copied().collect()
}

/// Every pack file on disk, by name.
fn packs_on_disk(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join(PACKS_DIR))
        .expect("packs dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    names
}

/// Bytes of the packs on disk that no manifest range covers.
fn dead_bytes(dir: &Path) -> u64 {
    let on_disk: u64 = packs_on_disk(dir)
        .iter()
        .map(|p| {
            std::fs::metadata(dir.join(PACKS_DIR).join(p))
                .expect("pack")
                .len()
        })
        .sum();
    on_disk - manifest(dir).iter().map(|m| m.len).sum::<u64>()
}

/// An archive holds one pack per distinct `(stream, day)` its manifest
/// names, each cell's bytes are the same whatever the worker count
/// (the manifest's per-cell CRCs match), and the packs fill exactly.
#[test]
fn one_pack_per_stream_day_and_per_cell_crcs_invariant_to_worker_count() {
    let ctx = Context::with_seed(Fidelity::Test, 67);
    let (d1, d2) = (Date::new(2020, 3, 30), Date::new(2020, 4, 1));
    let spill = |workers: usize| {
        let dir = tmp_dir(&format!("packs-{workers}"));
        let mut plan = EnginePlan::new();
        plan.with_archive(&dir);
        for vp in [VantagePoint::IxpCe, VantagePoint::IspCe] {
            plan.subscribe(Stream::Vantage(vp), d1, d2, || SortedFlows {
                flows: Vec::new(),
            });
        }
        plan.subscribe(Stream::Edu, d1, d1, || SortedFlows { flows: Vec::new() });
        engine::run_with_workers(&ctx, plan, workers).expect("pass succeeds");
        let metas = manifest(&dir);
        let days: std::collections::BTreeSet<(Stream, Date)> =
            metas.iter().map(|m| (m.cell.stream, m.cell.date)).collect();
        let mut named: Vec<String> = metas.iter().map(SegmentMeta::pack_name).collect();
        named.sort();
        named.dedup();
        assert_eq!(named.len(), days.len(), "workers={workers}");
        assert_eq!(packs_on_disk(&dir), named, "workers={workers}");
        assert_eq!(dead_bytes(&dir), 0, "workers={workers}");
        let _ = std::fs::remove_dir_all(&dir);
        metas
            .iter()
            .map(|m| (m.cell, m.records, m.len, m.crc))
            .collect::<Vec<_>>()
    };
    let one = spill(1);
    assert_eq!(one.len(), (2 * 3 + 1) * 24);
    assert_eq!(spill(2), one);
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

    // The respill started each day pack over: no seed-1 bytes are left.
    assert_eq!(dead_bytes(&dir), 0);

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

    // Flip one byte in the middle of one cell's range of its day pack.
    let metas = manifest(&dir);
    let victim = metas[metas.len() / 2];
    let path = dir.join(PACKS_DIR).join(victim.pack_name());
    let mut bytes = std::fs::read(&path).expect("read pack");
    bytes[(victim.offset + victim.len / 2) as usize] ^= 0x01;
    std::fs::write(&path, &bytes).expect("rewrite pack");

    // The pass completes: exactly the victim is regenerated, every other
    // cell replayed, and the flows are the archive-free pass's.
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
    let named = format!("{}@{}", victim.pack_name(), victim.offset);
    assert!(report.failures[0].contains(&named), "{:?}", report.failures);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A day pack cut to half its length: a warm pass reads each claimed day
/// with one positioned read per pack, and the short read falls back to
/// one read per cell, so exactly the cells whose range runs past the cut
/// are regenerated (and counted as corrupt replays) and the rest replay.
#[test]
fn truncated_pack_regenerates_only_the_cells_past_the_cut() {
    let ctx = Context::with_seed(Fidelity::Test, 59);
    let dir = tmp_dir("truncated");
    let (d1, d2) = (Date::new(2020, 3, 23), Date::new(2020, 3, 24));
    let vp = VantagePoint::IspCe;
    pass(&ctx, vp, d1, d2, Some(&dir), false, 2);

    let metas = manifest(&dir);
    let pack = metas[0].pack_name();
    let path = dir.join(PACKS_DIR).join(&pack);
    let cut = std::fs::metadata(&path).expect("pack").len() / 2;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open pack")
        .set_len(cut)
        .expect("cut pack");
    let past = metas
        .iter()
        .filter(|m| m.pack_name() == pack && m.offset + m.len > cut)
        .count() as u64;
    assert!(0 < past && past < 24, "{past} cells past the cut");

    let mut plan = EnginePlan::new();
    plan.with_archive(&dir);
    let d = plan.subscribe(Stream::Vantage(vp), d1, d2, || SortedFlows {
        flows: Vec::new(),
    });
    let mut out = engine::run_with_workers(&ctx, plan, 2).expect("a cut pack is not fatal");
    let stats = out.stats();
    assert_eq!(stats.cells_generated, past);
    assert_eq!(stats.cells_replayed, 2 * 24 - past);
    assert_eq!(out.supervisor_metrics().replay_corruptions.get(), past);
    let (plain, _, _) = pass(&ctx, vp, d1, d2, None, false, 2);
    assert_eq!(out.take(d).sorted(), plain);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resumed pass reads its adopted segments the way a warm pass reads a
/// manifest's. A journal left by a kill, over a pack whose tail never hit
/// the disk and one flipped byte inside what did: the entries past the
/// cut are refused at adoption and simply generated, no corruption; the
/// flipped segment fails its checks on the day-pack read and is
/// regenerated, counted like any replayed segment; the rest resume.
#[test]
fn resumed_segments_replay_through_the_day_pack_read() {
    let ctx = Context::with_seed(Fidelity::Test, 67);
    let dir = tmp_dir("resumed");
    let (d1, d2) = (Date::new(2020, 3, 30), Date::new(2020, 3, 31));
    let vp = VantagePoint::IxpUs;
    let (cold, _, _) = pass(&ctx, vp, d1, d2, Some(&dir), false, 2);

    let metas = manifest(&dir);
    std::fs::rename(dir.join(MANIFEST_NAME), dir.join(JOURNAL_NAME)).expect("fake the kill");
    let pack = metas[0].pack_name();
    let path = dir.join(PACKS_DIR).join(&pack);
    let mut bytes = std::fs::read(&path).expect("read pack");
    let cut = bytes.len() as u64 * 3 / 4;
    let past = metas
        .iter()
        .filter(|m| m.pack_name() == pack && m.offset + m.len > cut)
        .count() as u64;
    assert!(0 < past && past < 24, "{past} cells past the cut");
    let victim = metas[0];
    bytes[(victim.offset + victim.len / 2) as usize] ^= 0x01;
    bytes.truncate(cut as usize);
    std::fs::write(&path, &bytes).expect("rewrite pack");

    let mut plan = EnginePlan::new();
    plan.with_archive(&dir);
    let d = plan.subscribe(Stream::Vantage(vp), d1, d2, || SortedFlows {
        flows: Vec::new(),
    });
    let mut out = engine::run_with_workers(&ctx, plan, 2).expect("a resumed pass");
    let stats = out.stats();
    assert_eq!(stats.cells_generated, past + 1);
    assert_eq!(stats.cells_resumed, 2 * 24 - past - 1);
    assert_eq!(stats.cells_replayed, stats.cells_resumed);
    assert_eq!(out.supervisor_metrics().replay_corruptions.get(), 1);
    let store = out.store_metrics().expect("archived pass");
    assert_eq!(store.resume_rejected.get(), past);
    assert_eq!(store.segments_resumed.get(), 2 * 24 - past);
    assert_eq!(out.take(d).sorted(), cold);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-stamp the index file at `path` as format version `V`, CRC and all.
fn restamp_as<const V: u16>(path: &Path) {
    let bytes = std::fs::read(path).expect("read index");
    let mut old = bytes[..bytes.len() - 4].to_vec();
    assert_eq!(old[4..6], MANIFEST_VERSION.to_be_bytes());
    old[4..6].copy_from_slice(&V.to_be_bytes());
    let crc = crc32(&old);
    old.extend_from_slice(&crc.to_be_bytes());
    std::fs::write(path, &old).expect("rewrite index");
}

/// A corrupt manifest, and one of another format version (its CRC
/// intact), are each an archive to rebuild: the pass runs cold, counts
/// it, and republishes.
#[test]
fn corrupt_manifest_runs_the_pass_cold() {
    let ctx = Context::with_seed(Fidelity::Test, 61);
    let dir = tmp_dir("corrupt-manifest");
    let day = Date::new(2020, 4, 14);
    let vp = VantagePoint::IxpCe;
    let (plain, _, _) = pass(&ctx, vp, day, day, Some(&dir), false, 2);
    // Version 3 entries lack their records' sums; version 1 filed a
    // segment per cell.
    for damage in [flip_a_byte, restamp_as::<3>, restamp_as::<1>] {
        damage(&dir.join(MANIFEST_NAME));

        let mut plan = EnginePlan::new();
        plan.with_archive(&dir);
        let d = plan.subscribe(Stream::Vantage(vp), day, day, || SortedFlows {
            flows: Vec::new(),
        });
        let mut out =
            engine::run_with_workers(&ctx, plan, 2).expect("a corrupt manifest is not fatal");
        let stats = out.stats();
        assert_eq!(stats.cells_generated, 24);
        assert_eq!(stats.cells_replayed, 0);
        assert_eq!(stats.cells_resumed, 0);
        let store = out.store_metrics().expect("archived pass");
        assert_eq!(store.resume_rejected.get(), 1);
        assert_eq!(out.take(d).sorted(), plain);

        // The cold pass republished the manifest: the next one is warm.
        let (warm, stats, _) = pass(&ctx, vp, day, day, Some(&dir), false, 2);
        assert_eq!(stats.cells_generated, 0);
        assert_eq!(warm, plain);
    }
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
