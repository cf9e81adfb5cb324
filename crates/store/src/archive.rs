//! The archive: a directory of per-cell segments under a staleness-keyed
//! manifest.
//!
//! Layout on disk:
//!
//! ```text
//! DIR/manifest.lks            key + per-segment index (CRC-trailed)
//! DIR/segments/seg-S-D-H.lks  one columnar segment per (stream, date, hour)
//! ```
//!
//! The manifest is written last, atomically (temp file + rename), so a
//! crashed spill never leaves an archive that looks complete. Reopening
//! checks the [`StoreKey`] — seed, scenario hash, plan hash — recorded at
//! write time; a mismatch on seed or scenario means the archived flows
//! were generated by a different universe and the archive is *stale*:
//! callers regenerate and overwrite rather than silently replaying it.

use crate::codec::{get_varint, put_varint, unzigzag, zigzag};
use crate::metrics::StoreMetrics;
use crate::segment::{
    decode_segment, encode_segment, read_footer as read_segment_footer, SegmentFooter,
};
use crate::StoreError;
use lockdown_base::crc::crc32;
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_flow::tracefile::{read_container_header, write_container_header};
use lockdown_flow::wire::{Cursor, PutBe, WireResult};
use lockdown_traffic::plan::{Cell, Stream};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Manifest file magic.
pub const MANIFEST_MAGIC: [u8; 4] = *b"LKSM";
/// Manifest format version.
pub const MANIFEST_VERSION: u16 = 1;
/// Manifest file name inside an archive directory.
pub const MANIFEST_NAME: &str = "manifest.lks";
/// In-progress journal file name: a partial manifest, same encoding and
/// magic, republished atomically every few spills so a killed process can
/// resume from completed segments instead of regenerating them.
pub const JOURNAL_NAME: &str = "journal.lks";
/// Sub-directory holding segment files.
pub const SEGMENTS_DIR: &str = "segments";

/// Spills between automatic journal checkpoints.
const CHECKPOINT_INTERVAL: usize = 32;

/// What an archive was generated from. Seed and scenario hash identify the
/// flow *content*; the plan hash records the cell-set shape for reporting.
/// Replay requires the content key to match — a plan-hash difference alone
/// is fine as long as the archive covers every demanded cell (a superset
/// archive serves a subset plan, with the extra segments pruned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreKey {
    /// Master RNG seed of the generator configuration.
    pub seed: u64,
    /// Fingerprint of everything non-seed that shapes flow content: the
    /// generator's scaling knobs and stream version
    /// ([`GeneratorConfig::scenario_hash`](lockdown_traffic::config::GeneratorConfig::scenario_hash))
    /// folded with the scenario spec's behavioural fingerprint, so an
    /// archive written under one scenario, or by a build that drew its
    /// flows differently, never replays into this one.
    pub scenario_hash: u64,
    /// [`TracePlan::plan_hash`](lockdown_traffic::plan::TracePlan::plan_hash)
    /// of the cell set that was spilled.
    pub plan_hash: u64,
}

impl StoreKey {
    /// Whether archived flow content is valid for this key: same seed and
    /// same scenario. Plan shape is deliberately excluded.
    pub fn same_generation(&self, other: &StoreKey) -> bool {
        self.seed == other.seed && self.scenario_hash == other.scenario_hash
    }
}

/// One segment's manifest entry: identity, counts and integrity data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The cell the segment stores.
    pub cell: Cell,
    /// Records in the segment.
    pub records: u64,
    /// Segment file length in bytes.
    pub file_len: u64,
    /// The segment's own trailing CRC, duplicated here so `verify` can
    /// cross-check file against manifest.
    pub crc: u32,
    /// Earliest flow start in the segment (zone map).
    pub min_start: u64,
    /// Latest flow end in the segment (zone map).
    pub max_end: u64,
}

/// Deterministic file name for a cell's segment.
pub fn segment_file_name(cell: Cell) -> String {
    format!(
        "seg-{}-{}-{:02}.lks",
        cell.stream.wire_id(),
        cell.date.day_number(),
        cell.hour
    )
}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn corrupt(segment: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        segment: segment.to_string(),
        detail: detail.into(),
    }
}

fn encode_manifest(key: StoreKey, metas: &[SegmentMeta]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + metas.len() * 32);
    write_container_header(&mut buf, MANIFEST_MAGIC, MANIFEST_VERSION, 0);
    buf.put_u64_be(key.seed);
    buf.put_u64_be(key.scenario_hash);
    buf.put_u64_be(key.plan_hash);
    buf.put_u32_be(metas.len() as u32);
    for m in metas {
        buf.put_u32_be(m.cell.stream.wire_id());
        put_varint(&mut buf, zigzag(m.cell.date.day_number()));
        buf.push(m.cell.hour);
        put_varint(&mut buf, m.records);
        put_varint(&mut buf, m.file_len);
        buf.put_u32_be(m.crc);
        put_varint(&mut buf, m.min_start);
        put_varint(&mut buf, m.max_end);
    }
    let crc = crc32(&buf);
    buf.put_u32_be(crc);
    buf
}

/// Decode a manifest-format index file (`manifest.lks` or `journal.lks` —
/// the journal is a partial manifest under a different name). `file` is
/// used only for error attribution.
fn decode_index(file: &str, bytes: &[u8]) -> Result<(StoreKey, Vec<SegmentMeta>), StoreError> {
    let m = file;
    if bytes.len() < 12 {
        return Err(corrupt(m, "shorter than header + CRC"));
    }
    let crc_off = bytes.len() - 4;
    let stored = u32::from_be_bytes(bytes[crc_off..].try_into().expect("4 bytes"));
    let actual = crc32(&bytes[..crc_off]);
    if stored != actual {
        return Err(corrupt(
            m,
            format!("CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        ));
    }
    let mut c = Cursor::new(&bytes[..crc_off]);
    // Raw manifest rows before stream-id validation: (wire_id, day, hour, meta).
    type RawRows = Vec<(u32, i64, u8, SegmentMeta)>;
    let parse = |c: &mut Cursor<'_>| -> WireResult<(StoreKey, RawRows)> {
        read_container_header(c, MANIFEST_MAGIC, MANIFEST_VERSION)?;
        let key = StoreKey {
            seed: c.read_u64("manifest seed")?,
            scenario_hash: c.read_u64("manifest scenario hash")?,
            plan_hash: c.read_u64("manifest plan hash")?,
        };
        let count = c.read_u32("segment count")?;
        let mut raw = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let wire_id = c.read_u32("segment stream id")?;
            let day = unzigzag(get_varint(c, "segment day")?);
            let hour = c.read_u8("segment hour")?;
            let meta = SegmentMeta {
                // Placeholder cell; resolved below once the stream id is
                // validated outside this WireResult closure.
                cell: Cell {
                    stream: Stream::Edu,
                    date: Date::from_day_number(day),
                    hour,
                },
                records: get_varint(c, "segment records")?,
                file_len: get_varint(c, "segment file length")?,
                crc: c.read_u32("segment crc")?,
                min_start: get_varint(c, "segment min start")?,
                max_end: get_varint(c, "segment max end")?,
            };
            raw.push((wire_id, day, hour, meta));
        }
        Ok((key, raw))
    };
    let (key, raw) = parse(&mut c).map_err(|e| corrupt(m, e.to_string()))?;
    if c.remaining() != 0 {
        return Err(corrupt(m, "trailing bytes after segment index"));
    }
    let mut metas = Vec::with_capacity(raw.len());
    for (wire_id, _, hour, mut meta) in raw {
        let stream = Stream::from_wire_id(wire_id)
            .ok_or_else(|| corrupt(m, format!("unknown stream id {wire_id}")))?;
        if hour >= 24 {
            return Err(corrupt(m, format!("hour {hour} out of range")));
        }
        meta.cell.stream = stream;
        metas.push(meta);
    }
    Ok((key, metas))
}

/// Write an index file (manifest or journal) atomically: temp + rename.
fn write_index_atomic(
    dir: &Path,
    name: &str,
    key: StoreKey,
    metas: &[SegmentMeta],
) -> Result<(), StoreError> {
    let bytes = encode_manifest(key, metas);
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    std::fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    Ok(())
}

/// Read and decode an index file; `Ok(None)` when it does not exist.
fn read_index_file(
    dir: &Path,
    name: &str,
) -> Result<Option<(StoreKey, Vec<SegmentMeta>)>, StoreError> {
    let path = dir.join(name);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, e)),
    };
    decode_index(name, &bytes).map(Some)
}

/// Remove a file, treating "already gone" as success.
fn remove_if_present(path: &Path) -> Result<(), StoreError> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_err(path, e)),
    }
}

/// Read one segment file, decode it with `decode`, and check the file
/// against its index entry: length, trailing CRC, record count. Every
/// failed check names the segment and counts a CRC failure.
fn read_checked<T>(
    dir: &Path,
    meta: &SegmentMeta,
    metrics: &StoreMetrics,
    decode: impl FnOnce(&str, &[u8]) -> Result<(T, SegmentFooter), StoreError>,
) -> Result<(T, SegmentFooter), StoreError> {
    let name = segment_file_name(meta.cell);
    let path = dir.join(SEGMENTS_DIR).join(&name);
    let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
    let checked = (|| {
        let fail = |detail: String| Err(corrupt(&name, detail));
        if bytes.len() as u64 != meta.file_len {
            let (len, want) = (bytes.len(), meta.file_len);
            return fail(format!("file is {len} bytes, manifest says {want}"));
        }
        let (value, footer) = decode(&name, &bytes)?;
        let file_crc = u32::from_be_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if file_crc != meta.crc {
            let want = meta.crc;
            return fail(format!(
                "segment CRC {file_crc:#010x} does not match manifest {want:#010x}"
            ));
        }
        if footer.records != meta.records {
            let (held, want) = (footer.records, meta.records);
            return fail(format!(
                "segment holds {held} records, manifest says {want}"
            ));
        }
        Ok((value, footer))
    })();
    if checked.is_err() {
        metrics.crc_failures.inc();
    }
    checked
}

/// Decode one segment file through [`read_checked`]. Shared by
/// [`ArchiveReader::read_cell`] and the resume path, so adopted segments
/// get the same integrity treatment as manifest replay.
fn read_segment(
    dir: &Path,
    meta: &SegmentMeta,
    metrics: &StoreMetrics,
) -> Result<Vec<FlowRecord>, StoreError> {
    let (records, _) = read_checked(dir, meta, metrics, decode_segment)?;
    metrics.segments_read.inc();
    metrics.bytes_read.add(meta.file_len);
    metrics.records_read.add(records.len() as u64);
    Ok(records)
}

/// A fault injected into one segment spill (driven by the chaos
/// injector; the store only executes the mechanics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFault {
    /// Write a truncated segment file, then fail — what a crash between
    /// `write` and close leaves behind.
    Torn,
    /// Fail up front with a simulated "no space left on device"; nothing
    /// is written.
    Enospc,
}

#[derive(Debug)]
struct WriterState {
    metas: BTreeMap<Cell, SegmentMeta>,
    since_checkpoint: usize,
}

/// Spills generated cells into segment files; `finish` publishes the
/// manifest. `spill` takes `&self` so engine workers can write
/// concurrently. Between spills the writer periodically republishes a
/// *journal* (a partial manifest) so [`ArchiveWriter::create_or_resume`]
/// can adopt completed segments after a crash.
#[derive(Debug)]
pub struct ArchiveWriter {
    dir: PathBuf,
    key: StoreKey,
    state: Mutex<WriterState>,
    /// Held while an index file (journal or manifest) is encoded and
    /// written — work that grows with the archive and must not hold
    /// `state`, which every spill needs. One writer at a time: a journal
    /// cannot overtake a newer one, nor land beside a published manifest.
    /// Taken before `state`, never the other way round.
    index_io: Mutex<()>,
    metrics: Arc<StoreMetrics>,
    /// Whether spills periodically republish the journal. Attached
    /// (shard-worker) writers disable this: the manifest and journal are
    /// single-writer files owned by whoever created the archive, and a
    /// second process appending checkpoints would race the owner's
    /// atomic-rename with its own.
    journal: bool,
}

impl ArchiveWriter {
    fn new(dir: &Path, key: StoreKey, metrics: Arc<StoreMetrics>, journal: bool) -> ArchiveWriter {
        ArchiveWriter {
            dir: dir.to_path_buf(),
            key,
            state: Mutex::new(WriterState {
                metas: BTreeMap::new(),
                since_checkpoint: 0,
            }),
            index_io: Mutex::new(()),
            metrics,
            journal,
        }
    }

    /// Prepare `dir` for a fresh spill: create the layout and delete any
    /// existing manifest and journal, so a run that dies mid-spill leaves
    /// an archive that [`ArchiveReader::open`] treats as absent, never
    /// half-valid.
    pub fn create(
        dir: &Path,
        key: StoreKey,
        metrics: Arc<StoreMetrics>,
    ) -> Result<ArchiveWriter, StoreError> {
        let seg_dir = dir.join(SEGMENTS_DIR);
        std::fs::create_dir_all(&seg_dir).map_err(|e| io_err(&seg_dir, e))?;
        remove_if_present(&dir.join(MANIFEST_NAME))?;
        remove_if_present(&dir.join(JOURNAL_NAME))?;
        Ok(ArchiveWriter::new(dir, key, metrics, true))
    }

    /// Join an archive another process owns (the shard-worker spill path):
    /// ensure the segment layout exists but leave the manifest and journal
    /// alone, and never checkpoint — per-cell segment files are naturally
    /// single-writer (cell ranges are disjoint across workers), while the
    /// index files belong to the coordinator, which collects every
    /// worker's [`ArchiveWriter::metas`] inventory, [`ArchiveWriter::adopt`]s
    /// it, and publishes the one manifest.
    pub fn attach(
        dir: &Path,
        key: StoreKey,
        metrics: Arc<StoreMetrics>,
    ) -> Result<ArchiveWriter, StoreError> {
        let seg_dir = dir.join(SEGMENTS_DIR);
        std::fs::create_dir_all(&seg_dir).map_err(|e| io_err(&seg_dir, e))?;
        Ok(ArchiveWriter::new(dir, key, metrics, false))
    }

    /// Like [`ArchiveWriter::create`], but first adopt every
    /// same-generation segment named by a journal left by a killed run —
    /// or by a published manifest whose plan no longer matches — so the
    /// caller regenerates only what is actually missing. Adopted entries
    /// are stat-validated (file present, length matches); full CRC
    /// verification happens when the segment is read back. Returns the
    /// writer plus the adopted cells.
    ///
    /// A corrupt journal or manifest is not fatal here: resume is an
    /// optimization, so undecodable indexes are discarded and the pass
    /// regenerates from scratch.
    pub fn create_or_resume(
        dir: &Path,
        key: StoreKey,
        metrics: Arc<StoreMetrics>,
    ) -> Result<(ArchiveWriter, BTreeMap<Cell, SegmentMeta>), StoreError> {
        let seg_dir = dir.join(SEGMENTS_DIR);
        std::fs::create_dir_all(&seg_dir).map_err(|e| io_err(&seg_dir, e))?;
        let mut adopted: BTreeMap<Cell, SegmentMeta> = BTreeMap::new();
        // Manifest first, journal second: on conflict the journal (the
        // more recent run) wins.
        for name in [MANIFEST_NAME, JOURNAL_NAME] {
            match read_index_file(dir, name) {
                Ok(Some((index_key, metas))) if index_key.same_generation(&key) => {
                    for m in metas {
                        adopted.insert(m.cell, m);
                    }
                }
                Ok(_) => {}
                Err(StoreError::Corrupt { .. }) => {
                    metrics.resume_rejected.inc();
                }
                Err(e) => return Err(e),
            }
        }
        // Stat-validate: a torn segment write (crash mid-write) shows up
        // as a length mismatch and the cell is simply regenerated.
        adopted.retain(|&cell, meta| {
            let ok = std::fs::metadata(seg_dir.join(segment_file_name(cell)))
                .map(|st| st.len() == meta.file_len)
                .unwrap_or(false);
            if !ok {
                metrics.resume_rejected.inc();
            }
            ok
        });
        let writer = ArchiveWriter::new(dir, key, metrics, true);
        {
            let mut state = writer.state.lock().expect("writer state lock");
            state.metas = adopted.clone();
        }
        // Re-journal the adopted set before invalidating the manifest, so
        // a crash between the two leaves every adopted segment reachable.
        if !adopted.is_empty() {
            writer.checkpoint()?;
        }
        remove_if_present(&dir.join(MANIFEST_NAME))?;
        writer.metrics.segments_resumed.add(adopted.len() as u64);
        Ok((writer, adopted))
    }

    /// The key the manifest will record.
    pub fn key(&self) -> StoreKey {
        self.key
    }

    /// Encode one cell's records and write its segment file.
    pub fn spill(&self, cell: Cell, records: &[FlowRecord]) -> Result<(), StoreError> {
        self.spill_with_fault(cell, records, None)
    }

    /// [`ArchiveWriter::spill`] with an optional injected fault. A faulted
    /// spill records no manifest entry: a torn write leaves a short file
    /// on disk (exactly the crash artifact it simulates), ENOSPC writes
    /// nothing.
    pub fn spill_with_fault(
        &self,
        cell: Cell,
        records: &[FlowRecord],
        fault: Option<SpillFault>,
    ) -> Result<(), StoreError> {
        let bytes = encode_segment(records);
        let crc = u32::from_be_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        let path = self.dir.join(SEGMENTS_DIR).join(segment_file_name(cell));
        match fault {
            Some(SpillFault::Torn) => {
                let torn = &bytes[..bytes.len() / 2];
                std::fs::write(&path, torn).map_err(|e| io_err(&path, e))?;
                return Err(StoreError::Io {
                    path: path.display().to_string(),
                    detail: format!(
                        "torn write: {} of {} bytes (injected)",
                        torn.len(),
                        bytes.len()
                    ),
                });
            }
            Some(SpillFault::Enospc) => {
                return Err(StoreError::Io {
                    path: path.display().to_string(),
                    detail: "No space left on device (injected)".to_string(),
                });
            }
            None => {}
        }
        std::fs::write(&path, &bytes).map_err(|e| io_err(&path, e))?;
        self.metrics.segments_written.inc();
        self.metrics.bytes_written.add(bytes.len() as u64);
        self.metrics.records_written.add(records.len() as u64);
        let meta = SegmentMeta {
            cell,
            records: records.len() as u64,
            file_len: bytes.len() as u64,
            crc,
            min_start: records.iter().map(|r| r.start.unix()).min().unwrap_or(0),
            max_end: records.iter().map(|r| r.end.unix()).max().unwrap_or(0),
        };
        let checkpoint_due = {
            let mut state = self.state.lock().expect("writer state lock");
            state.metas.insert(cell, meta);
            state.since_checkpoint += 1;
            self.journal && state.since_checkpoint >= CHECKPOINT_INTERVAL
        };
        if checkpoint_due {
            // Skip, don't queue, while another worker's checkpoint is in
            // flight: this spill stays counted and the next one retries.
            match self.index_io.try_lock() {
                Ok(held) => self.write_journal(&held)?,
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(_)) => panic!("index writer panicked"),
            }
        }
        Ok(())
    }

    /// Snapshot of every segment this writer has recorded so far, in cell
    /// order — the inventory a shard worker streams back to its
    /// coordinator.
    pub fn metas(&self) -> Vec<SegmentMeta> {
        self.state
            .lock()
            .expect("writer state lock")
            .metas
            .values()
            .copied()
            .collect()
    }

    /// Read back a segment this writer adopted during resume, with the
    /// same integrity checks as manifest replay.
    pub fn read_adopted(&self, meta: &SegmentMeta) -> Result<Vec<FlowRecord>, StoreError> {
        read_segment(&self.dir, meta, &self.metrics)
    }

    /// Adopt a segment another process spilled into this archive
    /// directory (the shard coordinator's merge path: workers spill and
    /// journal their own cells, the coordinator adopts every reported
    /// meta and publishes the one manifest). Stat-validated like resume
    /// adoption — the file must exist with the claimed length; full CRC
    /// verification happens when the segment is read back.
    pub fn adopt(&self, meta: SegmentMeta) -> Result<(), StoreError> {
        let name = segment_file_name(meta.cell);
        let path = self.dir.join(SEGMENTS_DIR).join(&name);
        let len = std::fs::metadata(&path)
            .map(|st| st.len())
            .map_err(|e| io_err(&path, e))?;
        if len != meta.file_len {
            return Err(corrupt(
                &name,
                format!(
                    "adopted length {len} does not match claimed {}",
                    meta.file_len
                ),
            ));
        }
        let mut state = self.state.lock().expect("writer state lock");
        state.metas.insert(meta.cell, meta);
        self.metrics.segments_resumed.inc();
        Ok(())
    }

    /// Drop a cell from the pending manifest and delete its segment file
    /// (the quarantine path: the cell failed its attempt budget, so the
    /// archive must not claim it).
    pub fn remove(&self, cell: Cell) -> Result<(), StoreError> {
        self.state
            .lock()
            .expect("writer state lock")
            .metas
            .remove(&cell);
        remove_if_present(&self.dir.join(SEGMENTS_DIR).join(segment_file_name(cell)))
    }

    /// Write the journal from a snapshot of the recorded segments, taken
    /// under `state` and written without it. Every one of them is fully
    /// on disk — a spill records its segment only after writing it — and
    /// spills go on while this encodes and writes.
    fn write_journal(&self, _index_io: &MutexGuard<'_, ()>) -> Result<(), StoreError> {
        let metas: Vec<SegmentMeta> = {
            let mut state = self.state.lock().expect("writer state lock");
            state.since_checkpoint = 0;
            state.metas.values().copied().collect()
        };
        write_index_atomic(&self.dir, JOURNAL_NAME, self.key, &metas)?;
        self.metrics.journal_checkpoints.inc();
        Ok(())
    }

    /// Publish the journal now: an atomic snapshot of every spilled
    /// segment so far. Spills do this every few cells on their own; public
    /// so a degraded pass can leave a resumable index instead of a
    /// manifest. Waits for a checkpoint in flight instead of skipping, so
    /// the journal on disk when this returns is at least this recent.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let held = self.index_io.lock().expect("index writer lock");
        self.write_journal(&held)
    }

    /// Write the manifest atomically, making the archive visible to
    /// readers, and retire the journal. Returns the number of segments
    /// published.
    pub fn finish(&self) -> Result<usize, StoreError> {
        let _held = self.index_io.lock().expect("index writer lock");
        let metas = self.metas();
        write_index_atomic(&self.dir, MANIFEST_NAME, self.key, &metas)?;
        remove_if_present(&self.dir.join(JOURNAL_NAME))?;
        Ok(metas.len())
    }
}

/// Outcome of a [`gc_dir`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Orphaned segment file names (deleted, or merely listed under
    /// `--dry-run`), sorted.
    pub removed: Vec<String>,
    /// Segment files still referenced by the manifest or journal.
    pub kept: u64,
    /// Whether this sweep only listed orphans without deleting.
    pub dry_run: bool,
}

/// Directory holding one scenario lane of a matrix archive. A matrix run
/// cannot share one manifest across scenarios — each lane's cells are
/// different flow content under a different [`StoreKey`] — so each lane
/// gets its own complete archive in a stable, human-readable
/// subdirectory: the lane index plus the scenario label sanitized to
/// `[a-z0-9-]` (everything else folded to `-`).
pub fn scenario_subdir(base: &Path, index: usize, label: &str) -> PathBuf {
    let sanitized: String = label
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    base.join(format!("{index:02}-{}", sanitized.trim_matches('-')))
}

/// Reap segment files that neither the manifest nor the journal
/// references. Works without a manifest — the exact state a kill -9
/// between segment write and manifest publish leaves behind — in which
/// case every unjournaled segment is an orphan. A present-but-corrupt
/// index file is an error: gc refuses to guess at liveness.
pub fn gc_dir(dir: &Path, dry_run: bool) -> Result<GcReport, StoreError> {
    let mut live = std::collections::BTreeSet::new();
    for name in [MANIFEST_NAME, JOURNAL_NAME] {
        if let Some((_, metas)) = read_index_file(dir, name)? {
            live.extend(metas.iter().map(|m| segment_file_name(m.cell)));
        }
    }
    let seg_dir = dir.join(SEGMENTS_DIR);
    let entries = match std::fs::read_dir(&seg_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(GcReport::default()),
        Err(e) => return Err(io_err(&seg_dir, e)),
    };
    let mut report = GcReport {
        dry_run,
        ..GcReport::default()
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(&seg_dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if live.contains(&name) {
            report.kept += 1;
        } else {
            if !dry_run {
                let path = entry.path();
                std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
            report.removed.push(name);
        }
    }
    report.removed.sort();
    Ok(report)
}

/// Outcome of a full-archive verification pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Segments checked.
    pub segments: u64,
    /// Records decoded across all intact segments.
    pub records: u64,
    /// Bytes read across all segments.
    pub bytes: u64,
    /// One line per failed segment.
    pub failures: Vec<String>,
}

impl VerifyReport {
    /// Whether every segment decoded cleanly.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Read side of an archive: the decoded manifest plus segment access.
#[derive(Debug)]
pub struct ArchiveReader {
    dir: PathBuf,
    key: StoreKey,
    segments: BTreeMap<Cell, SegmentMeta>,
    metrics: Arc<StoreMetrics>,
}

impl ArchiveReader {
    /// Open the archive at `dir`. `Ok(None)` when no manifest exists (an
    /// empty or never-finished archive); errors when one exists but fails
    /// validation.
    pub fn open(
        dir: &Path,
        metrics: Arc<StoreMetrics>,
    ) -> Result<Option<ArchiveReader>, StoreError> {
        let path = dir.join(MANIFEST_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        let (key, metas) = decode_index(MANIFEST_NAME, &bytes)?;
        let mut segments = BTreeMap::new();
        for m in metas {
            if segments.insert(m.cell, m).is_some() {
                return Err(corrupt(
                    MANIFEST_NAME,
                    format!("duplicate segment for {:?}", m.cell),
                ));
            }
        }
        Ok(Some(ArchiveReader {
            dir: dir.to_path_buf(),
            key,
            segments,
            metrics,
        }))
    }

    /// The key recorded at write time.
    pub fn key(&self) -> StoreKey {
        self.key
    }

    /// Number of segments in the manifest.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Manifest entries in `(stream, date, hour)` order.
    pub fn segments(&self) -> impl Iterator<Item = &SegmentMeta> {
        self.segments.values()
    }

    /// Manifest entry for one cell, if archived.
    pub fn meta(&self, cell: Cell) -> Option<&SegmentMeta> {
        self.segments.get(&cell)
    }

    /// Whether every cell in `cells` has an archived segment.
    pub fn covers<'a>(&self, cells: impl IntoIterator<Item = &'a Cell>) -> bool {
        cells.into_iter().all(|c| self.segments.contains_key(c))
    }

    /// The manifest entry of a cell the caller demands.
    fn entry(&self, cell: Cell) -> Result<&SegmentMeta, StoreError> {
        self.segments.get(&cell).ok_or_else(|| StoreError::Missing {
            what: format!("segment {} not in manifest", segment_file_name(cell)),
        })
    }

    /// Decode one cell's segment, cross-checking the manifest entry
    /// (length, CRC, record count) against the file.
    pub fn read_cell(&self, cell: Cell) -> Result<Vec<FlowRecord>, StoreError> {
        read_segment(&self.dir, self.entry(cell)?, &self.metrics)
    }

    /// Read one cell's segment *footer* — record count, time range and
    /// column zone maps — without materializing any records. The whole
    /// file is still read and CRC-checked (the trailer covers every
    /// prior byte), so a corrupt segment fails here exactly as it would
    /// on decode; what this skips is the per-column varint decode, which
    /// is what predicate-pushdown scans prune on.
    pub fn read_footer(&self, cell: Cell) -> Result<SegmentFooter, StoreError> {
        let footer_only = |name: &str, bytes: &[u8]| Ok(((), read_segment_footer(name, bytes)?));
        read_checked(&self.dir, self.entry(cell)?, &self.metrics, footer_only).map(|(_, f)| f)
    }

    /// Decode every segment, collecting failures instead of stopping at
    /// the first.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for meta in self.segments.values() {
            report.segments += 1;
            report.bytes += meta.file_len;
            match self.read_cell(meta.cell) {
                Ok(records) => report.records += records.len() as u64,
                Err(e) => report.failures.push(e.to_string()),
            }
        }
        report
    }

    /// Delete files in the segments directory that neither the manifest
    /// nor the journal names (leftovers from a larger earlier plan or a
    /// crashed spill). Returns the deleted file names.
    pub fn gc(&self) -> Result<Vec<String>, StoreError> {
        gc_dir(&self.dir, false).map(|r| r.removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::record::FlowKey;
    use lockdown_flow::time::Date;
    use lockdown_topology::vantage::VantagePoint;
    use std::net::Ipv4Addr;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lockdown-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell(day: u8, hour: u8) -> Cell {
        Cell {
            stream: Stream::Vantage(VantagePoint::IspCe),
            date: Date::new(2020, 3, day),
            hour,
        }
    }

    fn records(cell: Cell, n: u32) -> Vec<FlowRecord> {
        let t = cell.date.at_hour(cell.hour);
        (0..n)
            .map(|i| {
                FlowRecord::builder(
                    FlowKey {
                        src_addr: Ipv4Addr::from(0x0A00_0000 | i),
                        dst_addr: Ipv4Addr::from(0xC0A8_0001),
                        src_port: 40_000,
                        dst_port: 443,
                        protocol: lockdown_flow::protocol::IpProtocol::Tcp,
                    },
                    t.add_secs(u64::from(i)),
                )
                .end(t.add_secs(u64::from(i) + 30))
                .bytes(1_500)
                .packets(10)
                .build()
            })
            .collect()
    }

    const KEY: StoreKey = StoreKey {
        seed: 7,
        scenario_hash: 11,
        plan_hash: 13,
    };

    #[test]
    fn write_then_read_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c0 = cell(2, 9);
        let c1 = cell(3, 0);
        let r0 = records(c0, 50);
        w.spill(c0, &r0).unwrap();
        w.spill(c1, &records(c1, 5)).unwrap();
        assert_eq!(w.finish().unwrap(), 2);

        let r = ArchiveReader::open(&dir, StoreMetrics::new())
            .unwrap()
            .expect("manifest present");
        assert_eq!(r.key(), KEY);
        assert_eq!(r.segment_count(), 2);
        assert!(r.covers([c0, c1].iter()));
        assert!(!r.covers([c0, cell(4, 4)].iter()));
        assert_eq!(r.read_cell(c0).unwrap(), r0);
        assert_eq!(metrics.segments_written.get(), 2);
        assert_eq!(metrics.records_written.get(), 55);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_archive_reads_as_absent() {
        let dir = tmp_dir("unfinished");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c = cell(2, 9);
        w.spill(c, &records(c, 3)).unwrap();
        // No finish(): the manifest was never published.
        assert!(ArchiveReader::open(&dir, metrics).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_invalidates_before_respill() {
        let dir = tmp_dir("rewrite");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c = cell(2, 9);
        w.spill(c, &records(c, 3)).unwrap();
        w.finish().unwrap();
        // Re-creating for a fresh spill removes the manifest immediately.
        let _w2 = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        assert!(ArchiveReader::open(&dir, metrics).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_corruption_is_detected() {
        let dir = tmp_dir("manifest-corrupt");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c = cell(2, 9);
        w.spill(c, &records(c, 3)).unwrap();
        w.finish().unwrap();
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = ArchiveReader::open(&dir, metrics).unwrap_err();
        assert!(err.to_string().contains(MANIFEST_NAME), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_corruption_names_the_segment_and_counts() {
        let dir = tmp_dir("segment-corrupt");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c = cell(2, 9);
        w.spill(c, &records(c, 40)).unwrap();
        w.finish().unwrap();

        let name = segment_file_name(c);
        let path = dir.join(SEGMENTS_DIR).join(&name);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let read_metrics = StoreMetrics::new();
        let r = ArchiveReader::open(&dir, Arc::clone(&read_metrics))
            .unwrap()
            .unwrap();
        let err = r.read_cell(c).unwrap_err();
        assert!(err.to_string().contains(&name), "{err}");
        assert_eq!(read_metrics.crc_failures.get(), 1);
        let report = r.verify();
        assert!(!report.ok());
        assert_eq!(report.segments, 1);
        assert!(report.failures[0].contains(&name));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_only_orphans() {
        let dir = tmp_dir("gc");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c = cell(2, 9);
        w.spill(c, &records(c, 3)).unwrap();
        w.finish().unwrap();
        let orphan = dir.join(SEGMENTS_DIR).join("seg-9-99999-09.lks");
        std::fs::write(&orphan, b"stale").unwrap();

        let r = ArchiveReader::open(&dir, metrics).unwrap().unwrap();
        let removed = r.gc().unwrap();
        assert_eq!(removed, vec!["seg-9-99999-09.lks".to_string()]);
        assert!(!orphan.exists());
        assert!(dir.join(SEGMENTS_DIR).join(segment_file_name(c)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_adopts_journaled_segments_and_drops_torn_ones() {
        let dir = tmp_dir("resume");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let done = cell(2, 9);
        let torn = cell(2, 10);
        let r_done = records(done, 20);
        w.spill(done, &r_done).unwrap();
        w.spill(torn, &records(torn, 20)).unwrap();
        w.checkpoint().unwrap();
        // Simulate the kill: no finish(), and the second segment is left
        // short on disk (crash mid-write after the journal named it).
        let torn_path = dir.join(SEGMENTS_DIR).join(segment_file_name(torn));
        let bytes = std::fs::read(&torn_path).unwrap();
        std::fs::write(&torn_path, &bytes[..bytes.len() / 2]).unwrap();

        let m2 = StoreMetrics::new();
        let (w2, adopted) = ArchiveWriter::create_or_resume(&dir, KEY, Arc::clone(&m2)).unwrap();
        assert_eq!(adopted.len(), 1, "only the intact segment is adopted");
        assert!(adopted.contains_key(&done));
        assert_eq!(m2.segments_resumed.get(), 1);
        assert_eq!(m2.resume_rejected.get(), 1);
        assert_eq!(w2.read_adopted(&adopted[&done]).unwrap(), r_done);
        // Regenerate the torn cell, finish, and the archive is whole.
        w2.spill(torn, &records(torn, 20)).unwrap();
        assert_eq!(w2.finish().unwrap(), 2);
        assert!(
            !dir.join(JOURNAL_NAME).exists(),
            "finish retires the journal"
        );
        let r = ArchiveReader::open(&dir, StoreMetrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(r.segment_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spills_do_not_wait_for_a_checkpoint_in_flight() {
        let dir = tmp_dir("checkpoint-in-flight");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let cells: Vec<Cell> = (0..2 * CHECKPOINT_INTERVAL as u8)
            .map(|i| cell(2 + i / 24, i % 24))
            .collect();
        let journaled = || {
            read_index_file(&dir, JOURNAL_NAME)
                .unwrap()
                .map_or(0, |(_, metas)| metas.len())
        };
        {
            // Another worker is mid-checkpoint: spills past the interval
            // return without journaling rather than queue behind it.
            let _in_flight = w.index_io.lock().unwrap();
            for &c in &cells[..CHECKPOINT_INTERVAL + 3] {
                w.spill(c, &records(c, 4)).unwrap();
            }
            assert_eq!(metrics.journal_checkpoints.get(), 0);
        }
        // The skipped checkpoint is retried by the very next spill, and
        // the journal names every segment written so far — a kill here
        // would lose nothing.
        let next = cells[CHECKPOINT_INTERVAL + 3];
        w.spill(next, &records(next, 4)).unwrap();
        assert_eq!(metrics.journal_checkpoints.get(), 1);
        assert_eq!(journaled(), CHECKPOINT_INTERVAL + 4);
        // With the counter reset the interval applies again, and `finish`
        // leaves no journal beside the manifest.
        for &c in &cells[CHECKPOINT_INTERVAL + 4..] {
            w.spill(c, &records(c, 4)).unwrap();
        }
        assert_eq!(metrics.journal_checkpoints.get(), 1);
        assert_eq!(w.finish().unwrap(), cells.len());
        assert!(!dir.join(JOURNAL_NAME).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_adopts_from_stale_plan_manifest() {
        let dir = tmp_dir("resume-manifest");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c = cell(3, 7);
        w.spill(c, &records(c, 9)).unwrap();
        w.finish().unwrap();
        // Same generation, different plan shape: the manifest's cells are
        // still valid content and get adopted rather than regenerated.
        let wider = StoreKey {
            plan_hash: 99,
            ..KEY
        };
        let (_w2, adopted) =
            ArchiveWriter::create_or_resume(&dir, wider, StoreMetrics::new()).unwrap();
        assert_eq!(adopted.len(), 1);
        assert!(
            !dir.join(MANIFEST_NAME).exists(),
            "resume invalidates the manifest"
        );
        assert!(
            dir.join(JOURNAL_NAME).exists(),
            "adopted set is re-journaled"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_ignores_other_generations_and_corrupt_journals() {
        let dir = tmp_dir("resume-stale");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let c = cell(4, 1);
        w.spill(c, &records(c, 4)).unwrap();
        w.checkpoint().unwrap();
        // A different seed means different flow content: adopt nothing.
        let other = StoreKey { seed: 8, ..KEY };
        let (_, adopted) =
            ArchiveWriter::create_or_resume(&dir, other, StoreMetrics::new()).unwrap();
        assert!(adopted.is_empty());
        // A corrupt journal is discarded, not fatal.
        std::fs::write(dir.join(JOURNAL_NAME), b"garbage").unwrap();
        let m = StoreMetrics::new();
        let (_, adopted) = ArchiveWriter::create_or_resume(&dir, KEY, Arc::clone(&m)).unwrap();
        assert!(adopted.is_empty());
        assert_eq!(m.resume_rejected.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_spill_faults_write_nothing_durable() {
        let dir = tmp_dir("spill-fault");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c = cell(5, 5);
        let r = records(c, 12);
        let err = w
            .spill_with_fault(c, &r, Some(SpillFault::Enospc))
            .unwrap_err();
        assert!(err.to_string().contains("No space left"), "{err}");
        let err = w
            .spill_with_fault(c, &r, Some(SpillFault::Torn))
            .unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert_eq!(metrics.segments_written.get(), 0);
        // The retry succeeds and overwrites the torn file.
        w.spill(c, &r).unwrap();
        assert_eq!(w.finish().unwrap(), 1);
        let reader = ArchiveReader::open(&dir, StoreMetrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(reader.read_cell(c).unwrap(), r);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_unclaims_a_quarantined_cell() {
        let dir = tmp_dir("remove");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let keep = cell(6, 0);
        let drop = cell(6, 1);
        w.spill(keep, &records(keep, 3)).unwrap();
        w.spill(drop, &records(drop, 3)).unwrap();
        w.remove(drop).unwrap();
        assert_eq!(w.finish().unwrap(), 1);
        assert!(!dir
            .join(SEGMENTS_DIR)
            .join(segment_file_name(drop))
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attached_writer_spills_without_touching_the_index() {
        let dir = tmp_dir("attach");
        let owner = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let c0 = cell(7, 0);
        let c1 = cell(7, 1);
        let r0 = records(c0, 8);
        // A shard worker attaches and spills its cells; the index files
        // stay untouched (they belong to the coordinator).
        let w = ArchiveWriter::attach(&dir, KEY, StoreMetrics::new()).unwrap();
        w.spill(c0, &r0).unwrap();
        w.spill(c1, &records(c1, 5)).unwrap();
        assert!(!dir.join(JOURNAL_NAME).exists(), "attach never journals");
        assert!(!dir.join(MANIFEST_NAME).exists());
        let inventory = w.metas();
        assert_eq!(inventory.len(), 2);
        // Adoption stat-validates: a length lie is rejected loudly.
        let lie = SegmentMeta {
            file_len: inventory[0].file_len + 1,
            ..inventory[0]
        };
        assert!(owner.adopt(lie).is_err());
        // The coordinator adopts the honest inventory and publishes the
        // one manifest covering every worker's cells.
        for m in inventory {
            owner.adopt(m).unwrap();
        }
        assert_eq!(owner.finish().unwrap(), 2);
        let r = ArchiveReader::open(&dir, StoreMetrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(r.segment_count(), 2);
        assert_eq!(r.read_cell(c0).unwrap(), r0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_dir_reaps_orphans_without_a_manifest() {
        let dir = tmp_dir("gc-dir");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let kept = cell(2, 9);
        w.spill(kept, &records(kept, 3)).unwrap();
        w.checkpoint().unwrap();
        // Killed before finish: manifest absent, one orphan on disk.
        let orphan = dir.join(SEGMENTS_DIR).join("seg-9-99999-09.lks");
        std::fs::write(&orphan, b"stale").unwrap();

        let dry = gc_dir(&dir, true).unwrap();
        assert_eq!(dry.removed, vec!["seg-9-99999-09.lks".to_string()]);
        assert_eq!(dry.kept, 1);
        assert!(dry.dry_run);
        assert!(orphan.exists(), "dry-run deletes nothing");

        let real = gc_dir(&dir, false).unwrap();
        assert_eq!(real.removed, dry.removed);
        assert!(!orphan.exists());
        assert!(
            dir.join(SEGMENTS_DIR)
                .join(segment_file_name(kept))
                .exists(),
            "journaled segment survives"
        );
        // With no index at all, every segment is an orphan.
        std::fs::remove_file(dir.join(JOURNAL_NAME)).unwrap();
        let bare = gc_dir(&dir, false).unwrap();
        assert_eq!(bare.removed, vec![segment_file_name(kept)]);
        assert_eq!(bare.kept, 0);
        // A corrupt index makes gc refuse rather than guess.
        std::fs::write(dir.join(MANIFEST_NAME), b"garbage").unwrap();
        assert!(gc_dir(&dir, false).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_generation_match_ignores_plan_hash() {
        let a = KEY;
        let same_gen = StoreKey { plan_hash: 99, ..a };
        let other_seed = StoreKey { seed: 8, ..a };
        let other_scenario = StoreKey {
            scenario_hash: 12,
            ..a
        };
        assert!(a.same_generation(&same_gen));
        assert!(!a.same_generation(&other_seed));
        assert!(!a.same_generation(&other_scenario));
    }
}
