//! The archive: per-cell segments packed into one append-only file per
//! `(stream, day)`, under a staleness-keyed manifest.
//!
//! Layout on disk:
//!
//! ```text
//! DIR/manifest.lks               key + per-cell index (CRC-trailed)
//! DIR/journal.lks                partial manifest while a spill runs
//! DIR/packs/pack-S-D.lkp         the day pack of stream S, day D: the
//!                                cells' LKSG segments back to back
//! DIR/packs/pack-S-D-TAG.lkp     the same, appended by an attached
//!                                (shard-worker) writer that owns TAG
//!
//! pack-S-D.lkp:  | segment (S,D,h) | segment (S,D,h') | dead | ... |
//!                ^ offset          ^ offset + len
//! ```
//!
//! The manifest is the cell index: each entry names its cell's pack (by
//! the cell's stream and day plus the writer tag) and the byte range
//! `offset .. offset + len` the segment occupies there. A segment is
//! stored exactly as [`encode_segment`] produced it — same bytes, same
//! footer, same trailing CRC — and a read checks the range against the
//! pack, the CRC against the manifest and the record count against the
//! footer. Ranges no index names (a torn or retried spill, a quarantined
//! cell) are dead space; `gc` removes whole packs no index names.
//!
//! The manifest is written last, atomically (temp file + rename), so a
//! crashed spill never leaves an archive that looks complete. Reopening
//! checks the [`StoreKey`] — seed, scenario hash, plan hash — recorded at
//! write time; a mismatch on seed or scenario means the archived flows
//! were generated by a different universe and the archive is *stale*:
//! callers regenerate and overwrite rather than silently replaying it.

use crate::codec::{get_varint, put_varint, unzigzag, zigzag};
use crate::metrics::StoreMetrics;
use crate::segment::{encode_segment, open_segment, Sealed, SegmentFooter, Summary};
use crate::{corrupt, StoreError};
use lockdown_base::crc::crc32;
use lockdown_base::hash::fold;
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_flow::tracefile::{read_container_header, write_container_header};
use lockdown_flow::wire::{Cursor, PutBe, WireError, WireResult};
use lockdown_traffic::plan::{Cell, Stream, FINGERPRINT_INIT};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Manifest file magic.
pub(crate) const MANIFEST_MAGIC: [u8; 4] = *b"LKSM";
/// Archive format version, of the manifest, the journal and every
/// segment alike. Version 1 filed each cell as its own segment file;
/// version 2 filed it as a byte range of a day pack; version 3 bit-packs
/// the segment's columns; version 4 gives each index entry its records'
/// latest start and byte and packet sums.
pub const MANIFEST_VERSION: u16 = 4;
/// Manifest file name inside an archive directory.
pub const MANIFEST_NAME: &str = "manifest.lks";
/// In-progress journal file name: a partial manifest, same encoding and
/// magic, republished atomically every few spills so a killed process can
/// resume from completed segments instead of regenerating them.
pub const JOURNAL_NAME: &str = "journal.lks";
/// Sub-directory holding the day packs.
pub const PACKS_DIR: &str = "packs";
/// Sub-directory of a version-1 archive, one segment file per cell. No
/// index of this version names a file there.
const V1_SEGMENTS_DIR: &str = "segments";

/// Fewest spills between automatic journal checkpoints. Past 512 cells
/// the interval is a sixteenth of the cells recorded, so the journal
/// bytes a spill writes stay O(cells) in total and a kill loses at most
/// that sixteenth.
const CHECKPOINT_INTERVAL: usize = 32;

/// Pack handles a reader or writer keeps open at once. Cells are claimed
/// in `(stream, date, hour)` order, so the packs in use at any moment
/// are a handful; past the cap every handle is dropped and reopened on
/// demand.
const MAX_OPEN_PACKS: usize = 64;

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

/// One segment's manifest entry: identity, location, counts and
/// integrity data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The cell the segment stores.
    pub cell: Cell,
    /// Records in the segment.
    pub records: u64,
    /// Tag of the writer whose day pack holds the segment: 0 for the
    /// archive's owner, a value the writer alone holds for an attached
    /// shard worker.
    pub pack_tag: u64,
    /// First byte of the segment inside its pack.
    pub offset: u64,
    /// Segment length in bytes.
    pub len: u64,
    /// The segment's own trailing CRC, duplicated here so a read can
    /// cross-check the pack's bytes against the manifest.
    pub crc: u32,
    /// Earliest flow start in the segment (zone map).
    pub min_start: u64,
    /// Latest flow end in the segment (zone map).
    pub max_end: u64,
    /// Latest flow start in the segment: with `min_start`, whether every
    /// record starts in one window or one clock hour.
    pub max_start: u64,
    /// Sum of the records' bytes, wrapping on overflow.
    pub bytes: u64,
    /// Sum of the records' packets, wrapping on overflow.
    pub packets: u64,
}

impl SegmentMeta {
    /// File name (inside [`PACKS_DIR`]) of the day pack holding the
    /// segment.
    pub fn pack_name(&self) -> String {
        self.pack().file_name()
    }

    fn pack(&self) -> PackId {
        PackId {
            stream: self.cell.stream,
            date: self.cell.date,
            tag: self.pack_tag,
        }
    }

    /// Whether a pack of `pack_len` bytes holds the segment's range.
    fn fits(&self, pack_len: u64) -> bool {
        self.offset
            .checked_add(self.len)
            .is_some_and(|end| end <= pack_len)
    }

    /// The segment's name in errors: its pack and offset.
    fn label(&self) -> String {
        format!("{}@{}", self.pack_name(), self.offset)
    }

    /// Refuse decoded records whose summary is not the entry's.
    fn check_summary(&self, got: Summary) -> Result<(), StoreError> {
        let want = Summary {
            max_start: self.max_start,
            bytes: self.bytes,
            packets: self.packets,
        };
        if got == want {
            return Ok(());
        }
        Err(corrupt(
            &self.label(),
            format!(
                "records start by {}, sum to {} bytes and {} packets; manifest says {}, {} and {}",
                got.max_start, got.bytes, got.packets, want.max_start, want.bytes, want.packets
            ),
        ))
    }
}

// The one wire form of a cell and a segment entry. The index files store
// their entries in it, and the shard protocol carries a worker's segments
// and quarantined cells in it, so a cell is the same bytes on disk and on
// the wire:
//
//   cell  = stream wire id u32 ‖ zigzag day varint ‖ hour u8
//   entry = cell ‖ records, pack tag, offset, length (varints) ‖ crc u32
//           ‖ min start, max end, max start, bytes, packets (varints)

/// Fewest bytes an encoded cell takes: stream id, a one-byte day, hour.
pub const MIN_CELL_LEN: usize = 4 + 1 + 1;

/// Fewest bytes an encoded entry takes: its cell, the crc and nine
/// one-byte varints.
pub const MIN_ENTRY_LEN: usize = MIN_CELL_LEN + 4 + 9;

/// Append `cell` in the entry form.
pub fn put_cell(out: &mut Vec<u8>, cell: Cell) {
    out.put_u32_be(cell.stream.wire_id());
    put_varint(out, zigzag(cell.date.day_number()));
    out.push(cell.hour);
}

/// Read a cell: a stream id no stream carries and an hour past 23 are
/// [`WireError::OutOfRange`].
pub fn read_cell(c: &mut Cursor<'_>) -> WireResult<Cell> {
    let out_of_range = |what, value| WireError::OutOfRange { what, value };
    let id = c.read_u32("cell stream id")?;
    let stream = Stream::from_wire_id(id).ok_or(out_of_range("cell stream id", id.into()))?;
    let date = Date::from_day_number(unzigzag(get_varint(c, "cell day")?));
    let hour = c.read_u8("cell hour")?;
    if hour >= 24 {
        return Err(out_of_range("cell hour", hour.into()));
    }
    Ok(Cell { stream, date, hour })
}

/// Append `m`'s entry.
pub fn put_entry(out: &mut Vec<u8>, m: &SegmentMeta) {
    put_cell(out, m.cell);
    put_varint(out, m.records);
    put_varint(out, m.pack_tag);
    put_varint(out, m.offset);
    put_varint(out, m.len);
    out.put_u32_be(m.crc);
    put_varint(out, m.min_start);
    put_varint(out, m.max_end);
    put_varint(out, m.max_start);
    put_varint(out, m.bytes);
    put_varint(out, m.packets);
}

/// Read an entry [`put_entry`] wrote.
pub fn read_entry(c: &mut Cursor<'_>) -> WireResult<SegmentMeta> {
    Ok(SegmentMeta {
        cell: read_cell(c)?,
        records: get_varint(c, "segment records")?,
        pack_tag: get_varint(c, "segment pack tag")?,
        offset: get_varint(c, "segment offset")?,
        len: get_varint(c, "segment length")?,
        crc: c.read_u32("segment crc")?,
        min_start: get_varint(c, "segment min start")?,
        max_end: get_varint(c, "segment max end")?,
        max_start: get_varint(c, "segment max start")?,
        bytes: get_varint(c, "segment bytes")?,
        packets: get_varint(c, "segment packets")?,
    })
}

/// A day pack: the `(stream, day)` its cells share and the tag of the
/// writer appending to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PackId {
    stream: Stream,
    date: Date,
    tag: u64,
}

impl PackId {
    fn file_name(self) -> String {
        let (stream, day) = (self.stream.wire_id(), self.date.day_number());
        match self.tag {
            0 => format!("pack-{stream}-{day}.lkp"),
            tag => format!("pack-{stream}-{day}-{tag:016x}.lkp"),
        }
    }
}

/// A tag no other writer holds, for an attached writer's packs: the
/// process id, the clock and a per-process count, folded. Never 0, the
/// owner's tag.
fn attached_tag() -> u64 {
    static ATTACHED: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let parts = [
        u64::from(std::process::id()),
        nanos,
        ATTACHED.fetch_add(1, Ordering::Relaxed),
    ];
    fold(FINGERPRINT_INIT, parts).max(1)
}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
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
        put_entry(&mut buf, m);
    }
    let crc = crc32(&buf);
    buf.put_u32_be(crc);
    buf
}

/// Decode a manifest-format index file (`manifest.lks` or `journal.lks` —
/// the journal is a partial manifest under a different name). `file` is
/// used only for error attribution. An index of another format version
/// is [`StoreError::Version`].
fn decode_index(file: &str, bytes: &[u8]) -> Result<(StoreKey, Vec<SegmentMeta>), StoreError> {
    if bytes.len() < 12 {
        return Err(corrupt(file, "shorter than header + CRC"));
    }
    let crc_off = bytes.len() - 4;
    let stored = u32::from_be_bytes(bytes[crc_off..].try_into().expect("4 bytes"));
    let actual = crc32(&bytes[..crc_off]);
    if stored != actual {
        return Err(corrupt(
            file,
            format!("CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        ));
    }
    let mut c = Cursor::new(&bytes[..crc_off]);
    let index = read_index(&mut c).map_err(|e| StoreError::wire(file, e))?;
    if c.remaining() != 0 {
        return Err(corrupt(file, "trailing bytes after segment index"));
    }
    Ok(index)
}

/// The key and entries of an index file whose CRC has been checked.
fn read_index(c: &mut Cursor<'_>) -> WireResult<(StoreKey, Vec<SegmentMeta>)> {
    read_container_header(c, MANIFEST_MAGIC, MANIFEST_VERSION)?;
    let key = StoreKey {
        seed: c.read_u64("manifest seed")?,
        scenario_hash: c.read_u64("manifest scenario hash")?,
        plan_hash: c.read_u64("manifest plan hash")?,
    };
    let count = c.read_u32("segment count")?;
    let count = c.fit(count.into(), MIN_ENTRY_LEN, "segment count")?;
    let mut metas = Vec::with_capacity(count);
    for _ in 0..count {
        metas.push(read_entry(c)?);
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

/// Create `DIR/packs`.
fn create_packs_dir(dir: &Path) -> Result<(), StoreError> {
    let packs = dir.join(PACKS_DIR);
    std::fs::create_dir_all(&packs).map_err(|e| io_err(&packs, e))
}

/// Lazily opened pack handles, at most [`MAX_OPEN_PACKS`] at a time.
/// Shared by reads and writes: positioned I/O (`read_exact_at`,
/// `write_all_at`) needs no seek, so one handle serves every thread.
#[derive(Debug)]
struct Packs {
    dir: PathBuf,
    writable: bool,
    open: Mutex<HashMap<PackId, Arc<File>>>,
}

impl Packs {
    fn new(dir: &Path, writable: bool) -> Packs {
        Packs {
            dir: dir.join(PACKS_DIR),
            writable,
            open: Mutex::new(HashMap::new()),
        }
    }

    fn path(&self, id: PackId) -> PathBuf {
        self.dir.join(id.file_name())
    }

    /// The pack's handle, opened (and, for a writer, created) on first
    /// use. The open runs outside the lock: creating a file can wait on
    /// the filesystem's journal, and other threads' packs need not.
    fn file(&self, id: PackId) -> Result<Arc<File>, StoreError> {
        if let Some(file) = self.open.lock().expect("pack handles lock").get(&id) {
            return Ok(Arc::clone(file));
        }
        let path = self.path(id);
        let file = OpenOptions::new()
            .read(true)
            .write(self.writable)
            .create(self.writable)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let mut open = self.open.lock().expect("pack handles lock");
        if open.len() >= MAX_OPEN_PACKS {
            open.clear();
        }
        Ok(Arc::clone(open.entry(id).or_insert(Arc::new(file))))
    }

    /// Current length of a pack on disk, 0 when it does not exist.
    fn len_on_disk(&self, id: PackId) -> u64 {
        std::fs::metadata(self.path(id)).map_or(0, |st| st.len())
    }

    /// Read the ranges of `entries` into `run`, one positioned read per
    /// pack: consecutive entries in one pack are read as the one range
    /// spanning them (any gap between them included), and each entry
    /// records where its range starts in the run's bytes. An entry the
    /// index does not name (`None`) reads nothing. This is the read of
    /// every reader method; [`SegmentRun::check`] is the check.
    ///
    /// A span that fails — a pack cut short, a range past its end, an I/O
    /// error — is read again one entry at a time, so only the entries the
    /// pack cannot back fail. The pack's length is asked for only when a
    /// span would grow the buffer, so a corrupt entry's length cannot size
    /// an allocation the pack does not back; a range past the pack's end
    /// within the buffer shows as a short read. Bytes are counted per
    /// entry read, not per span.
    fn read_run<'m>(
        &self,
        entries: impl IntoIterator<Item = Option<&'m SegmentMeta>>,
        run: &mut SegmentRun,
        metrics: &StoreMetrics,
    ) {
        run.reads.clear();
        run.reads
            .extend(entries.into_iter().map(|e| e.map(|m| (*m, 0)).ok_or(None)));
        let SegmentRun { bytes, reads } = run;
        let one_pack =
            |a: &Read, b: &Read| matches!((a, b), (Ok((x, _)), Ok((y, _))) if x.pack() == y.pack());
        let mut at = 0;
        for group in reads.chunk_by_mut(one_pack) {
            let Ok((first, _)) = group[0] else {
                continue;
            };
            let pack = first.pack();
            let file = match self.file(pack) {
                Ok(file) => file,
                Err(e) => {
                    group.iter_mut().for_each(|r| *r = Err(Some(e.clone())));
                    continue;
                }
            };
            let metas = || group.iter().map(|r| r.as_ref().expect("read entry").0);
            let lo = metas()
                .map(|m| m.offset)
                .min()
                .expect("a group is not empty");
            let span = metas()
                .try_fold(lo, |hi, m| m.offset.checked_add(m.len).map(|e| hi.max(e)))
                .map(|hi| SegmentMeta {
                    offset: lo,
                    len: hi - lo,
                    ..first
                });
            if let Some(span) =
                span.filter(|span| self.read_span(pack, &file, span, bytes, at).is_ok())
            {
                for r in group.iter_mut() {
                    let (meta, start) = r.as_mut().expect("read entry");
                    *start = at + (meta.offset - lo) as usize;
                    metrics.bytes_read.add(meta.len);
                }
                at += span.len as usize;
                continue;
            }
            for r in group.iter_mut() {
                let meta = r.as_ref().expect("read entry").0;
                *r = self
                    .read_span(pack, &file, &meta, bytes, at)
                    .map(|()| (meta, at))
                    .map_err(Some);
                if r.is_ok() {
                    metrics.bytes_read.add(meta.len);
                    at += meta.len as usize;
                }
            }
        }
    }

    /// Read `meta`'s range of its pack into `bytes[at..]`, growing `bytes`
    /// only once the pack is known to hold the range. Failures name
    /// `meta`.
    fn read_span(
        &self,
        pack: PackId,
        file: &File,
        meta: &SegmentMeta,
        bytes: &mut Vec<u8>,
        at: usize,
    ) -> Result<(), StoreError> {
        let (offset, len) = (meta.offset, meta.len);
        let overrun = |pack: String| {
            corrupt(
                &meta.label(),
                format!("range {offset}+{len} overruns {pack}"),
            )
        };
        let end = (at as u64).saturating_add(len);
        if end > bytes.len() as u64 {
            let pack_len = file
                .metadata()
                .map_err(|e| io_err(&self.path(pack), e))?
                .len();
            if !meta.fits(pack_len) {
                return Err(overrun(format!("the pack's {pack_len} bytes")));
            }
            bytes.resize(end as usize, 0);
        }
        match file.read_exact_at(&mut bytes[at..end as usize], offset) {
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Err(overrun("the pack".to_string())),
            read => read.map_err(|e| io_err(&self.path(pack), e)),
        }
    }

    /// Read one entry as a run of one into this thread's reused buffer
    /// and hand the run to `then`: the single-segment reads.
    fn read_one<T>(
        &self,
        meta: &SegmentMeta,
        metrics: &StoreMetrics,
        then: impl FnOnce(&SegmentRun) -> T,
    ) -> T {
        thread_local! {
            static RUN: RefCell<SegmentRun> = RefCell::default();
        }
        RUN.with_borrow_mut(|run| {
            self.read_run([Some(meta)], run, metrics);
            then(run)
        })
    }
}

/// One entry of a [`SegmentRun`]: its index entry and where its range
/// starts in the run's bytes, or the error reading it met — `None` when
/// the index names no segment for it.
type Read = Result<(SegmentMeta, usize), Option<StoreError>>;

/// The segment bytes of a run of index entries — a day of one stream, say
/// — read with one positioned read per pack: what
/// [`ArchiveReader::read_run`] fills and [`ArchiveReader::decode_run`]
/// checks and decodes entry by entry. Reused across runs, its buffer grows
/// to the largest run read.
#[derive(Debug, Default)]
pub struct SegmentRun {
    bytes: Vec<u8>,
    /// Per entry, in the order asked.
    reads: Vec<Read>,
}

impl SegmentRun {
    /// Check entry `i` against its index entry, then decode it with
    /// `decode`: the range was read whole, the trailing CRC is the
    /// manifest's, and the footer's record count is the manifest's before
    /// any column is decoded. Every failed check names the segment and
    /// counts a CRC failure; `decode`, which also takes the index entry,
    /// names no segment, the label is formatted only when a check fails.
    /// `Ok(None)`: the index names no segment for entry `i`.
    fn check<T>(
        &self,
        i: usize,
        metrics: &StoreMetrics,
        decode: impl FnOnce(&SegmentMeta, Sealed<'_>) -> Result<T, StoreError>,
    ) -> Result<Option<T>, StoreError> {
        let checked = match &self.reads[i] {
            Err(None) => return Ok(None),
            Err(Some(e)) => Err(e.clone()),
            Ok((meta, at)) => check_entry(meta, &self.bytes[*at..*at + meta.len as usize], decode),
        };
        if let Err(StoreError::Corrupt { .. }) = checked {
            metrics.crc_failures.inc();
        }
        checked.map(Some)
    }

    /// Check entry `i` through [`SegmentRun::check`] and decode it into
    /// `out`, replacing its contents, if `admit` takes its footer; the
    /// records' latest start and byte and packet sums must be the index
    /// entry's, and a decoded entry is counted. Returns whether it was
    /// admitted (an entry the index does not name is not); `out` is left
    /// empty when it was not, or on error.
    fn decode_where(
        &self,
        i: usize,
        metrics: &StoreMetrics,
        admit: impl FnOnce(&SegmentFooter) -> bool,
        out: &mut Vec<FlowRecord>,
    ) -> Result<bool, StoreError> {
        out.clear();
        let admitted = self
            .check(i, metrics, |meta, s| match admit(&s.footer) {
                true => s
                    .decode_into("", out)
                    .and_then(|(_, summary)| meta.check_summary(summary))
                    .map(|()| true),
                false => Ok(false),
            })
            .inspect_err(|_| out.clear())?
            == Some(true);
        if admitted {
            metrics.segments_read.inc();
            metrics.records_read.add(out.len() as u64);
        }
        Ok(admitted)
    }
}

/// [`SegmentRun::check`] of one entry's bytes.
fn check_entry<T>(
    meta: &SegmentMeta,
    bytes: &[u8],
    decode: impl FnOnce(&SegmentMeta, Sealed<'_>) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let fail = |detail: String| Err(corrupt(&meta.label(), detail));
    let relabel = |e| match e {
        StoreError::Corrupt { detail, .. } => corrupt(&meta.label(), detail),
        StoreError::Version { found, .. } => StoreError::Version {
            file: meta.label(),
            found,
        },
        e => e,
    };
    let sealed = open_segment("", bytes).map_err(relabel)?;
    let stored = u32::from_be_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if stored != meta.crc {
        let want = meta.crc;
        return fail(format!(
            "segment CRC {stored:#010x} does not match manifest {want:#010x}"
        ));
    }
    if sealed.footer.records != meta.records {
        let (held, want) = (sealed.footer.records, meta.records);
        return fail(format!(
            "segment holds {held} records, manifest says {want}"
        ));
    }
    decode(meta, sealed).map_err(relabel)
}

/// A fault injected into one segment spill (driven by the chaos
/// injector; the store only executes the mechanics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFault {
    /// Write half the segment's reserved range, then fail — what a crash
    /// mid-write leaves behind.
    Torn,
    /// Fail up front with a simulated "no space left on device"; nothing
    /// is written.
    Enospc,
}

#[derive(Debug)]
struct WriterState {
    metas: BTreeMap<Cell, SegmentMeta>,
    since_checkpoint: usize,
    /// Next free byte of every pack this writer appends to. A pack not
    /// here holds nothing this writer's index names, so its first spill
    /// starts it over.
    ends: HashMap<PackId, u64>,
}

/// Spills generated cells into day packs; `finish` publishes the
/// manifest. `spill` takes `&self` so engine workers can write
/// concurrently: a spill reserves its byte range under the state lock and
/// writes it outside, so two workers filling one pack never wait for each
/// other's I/O. Between spills the writer periodically republishes a
/// *journal* (a partial manifest) so [`ArchiveWriter::create_or_resume`]
/// can adopt completed segments after a crash.
#[derive(Debug)]
pub struct ArchiveWriter {
    dir: PathBuf,
    key: StoreKey,
    /// Tag of the packs this writer appends to (see
    /// [`SegmentMeta::pack_tag`]). Only the owner (tag 0) republishes the
    /// journal: the manifest and journal are single-writer files, and an
    /// attached shard worker checkpointing too would race the owner's
    /// atomic rename with its own.
    tag: u64,
    state: Mutex<WriterState>,
    /// Held while an index file (journal or manifest) is encoded and
    /// written — work that grows with the archive and must not hold
    /// `state`, which every spill needs. One writer at a time: a journal
    /// cannot overtake a newer one, nor land beside a published manifest.
    /// Taken before `state`, never the other way round.
    index_io: Mutex<()>,
    packs: Packs,
    metrics: Arc<StoreMetrics>,
}

impl ArchiveWriter {
    fn new(dir: &Path, key: StoreKey, metrics: Arc<StoreMetrics>, tag: u64) -> ArchiveWriter {
        ArchiveWriter {
            dir: dir.to_path_buf(),
            key,
            tag,
            state: Mutex::new(WriterState {
                metas: BTreeMap::new(),
                since_checkpoint: 0,
                ends: HashMap::new(),
            }),
            index_io: Mutex::new(()),
            packs: Packs::new(dir, true),
            metrics,
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
        create_packs_dir(dir)?;
        remove_if_present(&dir.join(MANIFEST_NAME))?;
        remove_if_present(&dir.join(JOURNAL_NAME))?;
        Ok(ArchiveWriter::new(dir, key, metrics, 0))
    }

    /// Join an archive another process owns (the shard-worker spill path):
    /// ensure the pack layout exists but leave the manifest and journal
    /// alone, and never checkpoint. The writer appends only to packs named
    /// by a tag it alone holds, so no pack ever has two writing
    /// processes; the index files belong to the coordinator, which
    /// collects every worker's [`ArchiveWriter::metas`] inventory,
    /// [`ArchiveWriter::adopt`]s it, and publishes the one manifest.
    pub fn attach(
        dir: &Path,
        key: StoreKey,
        metrics: Arc<StoreMetrics>,
    ) -> Result<ArchiveWriter, StoreError> {
        create_packs_dir(dir)?;
        Ok(ArchiveWriter::new(dir, key, metrics, attached_tag()))
    }

    /// Like [`ArchiveWriter::create`], but first adopt every
    /// same-generation segment named by a journal left by a killed run —
    /// or by a published manifest whose plan no longer matches — so the
    /// caller regenerates only what is actually missing. An adopted entry
    /// is valid when its pack holds `offset + len` bytes; a refused index
    /// file or entry counts `store_resume_rejected_total`. New spills into
    /// a pack holding adopted segments append after its current end.
    /// Returns the writer plus an [`ArchiveReader`] over the adopted
    /// entries: a resumed cell is read like any archived one
    /// ([`ArchiveReader::read_run`]), its checks made on that read.
    ///
    /// A corrupt or other-version journal or manifest is not fatal here:
    /// resume is an optimization, so undecodable indexes are discarded
    /// and the pass regenerates from scratch.
    pub fn create_or_resume(
        dir: &Path,
        key: StoreKey,
        metrics: Arc<StoreMetrics>,
    ) -> Result<(ArchiveWriter, ArchiveReader), StoreError> {
        create_packs_dir(dir)?;
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
                Err(StoreError::Corrupt { .. } | StoreError::Version { .. }) => {
                    metrics.resume_rejected.inc();
                }
                Err(e) => return Err(e),
            }
        }
        let writer = ArchiveWriter::new(dir, key, metrics, 0);
        // A torn write (crash mid-write) or a cut pack leaves a range
        // past the pack's end, and that cell is simply regenerated.
        let mut held: HashMap<PackId, u64> = HashMap::new();
        adopted.retain(|_, meta| {
            let len = *held
                .entry(meta.pack())
                .or_insert_with(|| writer.packs.len_on_disk(meta.pack()));
            let ok = meta.fits(len);
            if !ok {
                writer.metrics.resume_rejected.inc();
            }
            ok
        });
        {
            let mut state = writer.state.lock().expect("writer state lock");
            state.metas = adopted.clone();
            state.ends = adopted
                .values()
                .map(|m| (m.pack(), held[&m.pack()]))
                .collect();
        }
        // Re-journal the adopted set before invalidating the manifest, so
        // a crash between the two leaves every adopted segment reachable.
        if !adopted.is_empty() {
            writer.checkpoint()?;
        }
        remove_if_present(&dir.join(MANIFEST_NAME))?;
        writer.metrics.segments_resumed.add(adopted.len() as u64);
        let segments = adopted.into_values().collect();
        let reader = ArchiveReader::new(dir, key, segments, Arc::clone(&writer.metrics));
        Ok((writer, reader))
    }

    /// Encode one cell's records and append its segment to the cell's
    /// day pack.
    pub fn spill(&self, cell: Cell, records: &[FlowRecord]) -> Result<(), StoreError> {
        self.spill_with_fault(cell, records, None)
    }

    /// [`ArchiveWriter::spill`] with an optional injected fault. A faulted
    /// spill records no manifest entry: a torn write leaves half its
    /// reserved range written (exactly the crash artifact it simulates),
    /// ENOSPC writes nothing.
    pub fn spill_with_fault(
        &self,
        cell: Cell,
        records: &[FlowRecord],
        fault: Option<SpillFault>,
    ) -> Result<(), StoreError> {
        let pack = PackId {
            stream: cell.stream,
            date: cell.date,
            tag: self.tag,
        };
        let path = || self.packs.path(pack);
        if fault == Some(SpillFault::Enospc) {
            return Err(StoreError::Io {
                path: path().display().to_string(),
                detail: "No space left on device (injected)".to_string(),
            });
        }
        let bytes = encode_segment(records);
        let len = bytes.len() as u64;
        let file = self.packs.file(pack)?;
        let offset = {
            let mut state = self.state.lock().expect("writer state lock");
            let end = match state.ends.get(&pack) {
                Some(&end) => end,
                None => {
                    // Only an existing pack needs cutting; a new one is
                    // spared the metadata write.
                    let stale = file.metadata().map_err(|e| io_err(&path(), e))?.len();
                    if stale > 0 {
                        file.set_len(0).map_err(|e| io_err(&path(), e))?;
                    }
                    0
                }
            };
            state.ends.insert(pack, end + len);
            end
        };
        if fault == Some(SpillFault::Torn) {
            let torn = &bytes[..bytes.len() / 2];
            file.write_all_at(torn, offset)
                .map_err(|e| io_err(&path(), e))?;
            return Err(StoreError::Io {
                path: path().display().to_string(),
                detail: format!("torn write: {} of {len} bytes (injected)", torn.len()),
            });
        }
        file.write_all_at(&bytes, offset)
            .map_err(|e| io_err(&path(), e))?;
        self.metrics.segments_written.inc();
        self.metrics.bytes_written.add(len);
        self.metrics.records_written.add(records.len() as u64);
        let summary = Summary::of(records);
        let meta = SegmentMeta {
            cell,
            records: records.len() as u64,
            pack_tag: self.tag,
            offset,
            len,
            crc: u32::from_be_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes")),
            min_start: records.iter().map(|r| r.start.unix()).min().unwrap_or(0),
            max_end: records.iter().map(|r| r.end.unix()).max().unwrap_or(0),
            max_start: summary.max_start,
            bytes: summary.bytes,
            packets: summary.packets,
        };
        let checkpoint_due = {
            let mut state = self.state.lock().expect("writer state lock");
            state.metas.insert(cell, meta);
            state.since_checkpoint += 1;
            let interval = CHECKPOINT_INTERVAL.max(state.metas.len() / 16);
            self.tag == 0 && state.since_checkpoint >= interval
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

    /// Adopt a segment another process spilled into this archive
    /// directory (the shard coordinator's merge path: workers spill into
    /// their own packs, the coordinator adopts every reported meta and
    /// publishes the one manifest). Validated like resume adoption — the
    /// pack must hold the claimed range; full CRC verification happens
    /// when the segment is read back.
    pub fn adopt(&self, meta: SegmentMeta) -> Result<(), StoreError> {
        let held = self.packs.len_on_disk(meta.pack());
        if !meta.fits(held) {
            return Err(corrupt(
                &meta.label(),
                format!(
                    "adopted range {}+{} overruns the pack's {held} bytes",
                    meta.offset, meta.len
                ),
            ));
        }
        let mut state = self.state.lock().expect("writer state lock");
        state.metas.insert(meta.cell, meta);
        self.metrics.segments_resumed.inc();
        Ok(())
    }

    /// Drop a cell from the pending manifest (the quarantine path: the
    /// cell failed its attempt budget, so the archive must not claim it).
    /// Its bytes, if any, become dead space in their pack.
    pub fn remove(&self, cell: Cell) {
        self.state
            .lock()
            .expect("writer state lock")
            .metas
            .remove(&cell);
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
    /// File names in the packs directory that no index names, and every
    /// file of a version-1 `segments/` directory as `segments/NAME`
    /// (deleted, or merely listed under `--dry-run`), sorted.
    pub removed: Vec<String>,
    /// Packs still named by the manifest or journal.
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

/// Reap packs and stray files that neither the manifest nor the journal
/// names. Works without a manifest — the exact state a kill -9 between
/// spill and manifest publish leaves behind — in which case every
/// unjournaled pack is an orphan. A present-but-undecodable index file is
/// an error: gc refuses to guess at liveness. Dead ranges inside a live
/// pack stay until the archive is rebuilt. A version-1 `segments/`
/// directory, which a rebuild leaves beside the packs, is all orphans: a
/// live sweep empties and removes it.
pub fn gc_dir(dir: &Path, dry_run: bool) -> Result<GcReport, StoreError> {
    let mut live = BTreeSet::new();
    for name in [MANIFEST_NAME, JOURNAL_NAME] {
        if let Some((_, metas)) = read_index_file(dir, name)? {
            live.extend(metas.iter().map(SegmentMeta::pack_name));
        }
    }
    let mut report = GcReport {
        dry_run,
        ..GcReport::default()
    };
    for sub in [PACKS_DIR, V1_SEGMENTS_DIR] {
        let path = dir.join(sub);
        let entries = match std::fs::read_dir(&path) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(io_err(&path, e)),
        };
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&path, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if sub == PACKS_DIR && live.contains(&name) {
                report.kept += 1;
                continue;
            }
            if !dry_run {
                let file = entry.path();
                std::fs::remove_file(&file).map_err(|e| io_err(&file, e))?;
            }
            report.removed.push(if sub == PACKS_DIR {
                name
            } else {
                format!("{sub}/{name}")
            });
        }
        if sub == V1_SEGMENTS_DIR && !dry_run {
            std::fs::remove_dir(&path).map_err(|e| io_err(&path, e))?;
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
    key: StoreKey,
    /// The manifest's entries sorted by cell, one per cell: the index is
    /// looked up by binary search.
    segments: Vec<SegmentMeta>,
    packs: Packs,
    metrics: Arc<StoreMetrics>,
}

impl ArchiveReader {
    /// Open the archive at `dir`. `Ok(None)` when no manifest exists (an
    /// empty or never-finished archive); errors when one exists but fails
    /// validation — two entries for one cell included — and
    /// [`StoreError::Version`] when it is of another format version.
    pub fn open(
        dir: &Path,
        metrics: Arc<StoreMetrics>,
    ) -> Result<Option<ArchiveReader>, StoreError> {
        let Some((key, mut segments)) = read_index_file(dir, MANIFEST_NAME)? else {
            return Ok(None);
        };
        segments.sort_by_key(|m| m.cell);
        if let Some(pair) = segments.windows(2).find(|w| w[0].cell == w[1].cell) {
            return Err(corrupt(
                MANIFEST_NAME,
                format!("duplicate segment for {:?}", pair[0].cell),
            ));
        }
        Ok(Some(ArchiveReader::new(dir, key, segments, metrics)))
    }

    /// A reader over `index`, entries sorted by cell and one per cell: a
    /// manifest's, or the entries [`ArchiveWriter::create_or_resume`] adopted.
    fn new(dir: &Path, key: StoreKey, index: Vec<SegmentMeta>, metrics: Arc<StoreMetrics>) -> Self {
        ArchiveReader {
            key,
            segments: index,
            packs: Packs::new(dir, false),
            metrics,
        }
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
        self.segments.iter()
    }

    /// Manifest entry for one cell, if archived.
    pub(crate) fn meta(&self, cell: Cell) -> Option<&SegmentMeta> {
        self.segments
            .binary_search_by_key(&cell, |m| m.cell)
            .ok()
            .map(|i| &self.segments[i])
    }

    /// Whether every cell in `cells` has an archived segment.
    pub fn covers<'a>(&self, cells: impl IntoIterator<Item = &'a Cell>) -> bool {
        cells.into_iter().all(|&c| self.meta(c).is_some())
    }

    /// The manifest entry of a cell a single read demands.
    fn entry(&self, cell: Cell) -> Result<&SegmentMeta, StoreError> {
        self.meta(cell).ok_or_else(|| StoreError::Missing {
            what: format!(
                "segment for {} {} hour {:02} not in manifest",
                cell.stream.label(),
                cell.date.iso(),
                cell.hour
            ),
        })
    }

    /// Decode one cell's segment, cross-checking the manifest entry
    /// (range, CRC, record count) against its pack.
    pub fn read_cell(&self, cell: Cell) -> Result<Vec<FlowRecord>, StoreError> {
        let mut records = Vec::new();
        self.read_cell_where(cell, |_| true, &mut records)?;
        Ok(records)
    }

    /// Read one cell's segment once and decode it into `out` only if
    /// `admit` takes its footer — record count, time range and column zone
    /// maps. The whole range is read and CRC-checked either way, so a
    /// corrupt segment fails here exactly as it would on decode; what a
    /// refusal skips is the per-column unpack. Returns whether the cell
    /// was admitted; `out` is left empty when it was not, or on error.
    pub fn read_cell_where(
        &self,
        cell: Cell,
        admit: impl FnOnce(&SegmentFooter) -> bool,
        out: &mut Vec<FlowRecord>,
    ) -> Result<bool, StoreError> {
        let m = &self.metrics;
        self.packs.read_one(self.entry(cell)?, m, |run| {
            run.decode_where(0, m, admit, out)
        })
    }

    /// Read one cell's segment *footer* — record count, time range and
    /// column zone maps — without materializing any records, checked as
    /// [`ArchiveReader::read_cell_where`] checks it.
    pub fn read_footer(&self, cell: Cell) -> Result<SegmentFooter, StoreError> {
        let m = &self.metrics;
        let checked = self.packs.read_one(self.entry(cell)?, m, |run| {
            run.check(0, m, |_, s| Ok(s.footer))
        })?;
        Ok(checked.expect("a named entry is checked"))
    }

    /// Read the segments of `cells`, in order, into `run` with one
    /// positioned read per pack: a day of one stream is one read. A cell
    /// the index does not name is skipped, not an error. Nothing is
    /// checked yet; [`ArchiveReader::decode_run`] checks and decodes each
    /// cell, and a cell that could not be read fails there.
    pub fn read_run(&self, cells: &[Cell], run: &mut SegmentRun) {
        self.packs
            .read_run(cells.iter().map(|&c| self.meta(c)), run, &self.metrics);
    }

    /// Check and decode the `i`-th cell of the last [`read_run`] of `run`
    /// into `out`, replacing its contents, with the checks of
    /// [`ArchiveReader::read_cell`]. Returns `false`, `out` empty, when
    /// the index names no segment for the cell; on error `out` is left
    /// empty.
    ///
    /// [`read_run`]: ArchiveReader::read_run
    pub fn decode_run(
        &self,
        run: &SegmentRun,
        i: usize,
        out: &mut Vec<FlowRecord>,
    ) -> Result<bool, StoreError> {
        run.decode_where(i, &self.metrics, |_| true, out)
    }

    /// Decode every segment, a pack at a time, collecting failures instead
    /// of stopping at the first.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        let (mut run, mut records) = (SegmentRun::default(), Vec::new());
        for pack in self.segments.chunk_by(|a, b| a.pack() == b.pack()) {
            self.packs
                .read_run(pack.iter().map(Some), &mut run, &self.metrics);
            for (i, meta) in pack.iter().enumerate() {
                report.segments += 1;
                report.bytes += meta.len;
                match run.decode_where(i, &self.metrics, |_| true, &mut records) {
                    Ok(_) => report.records += records.len() as u64,
                    Err(e) => report.failures.push(e.to_string()),
                }
            }
        }
        report
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

    fn pack_path(dir: &Path, meta: &SegmentMeta) -> PathBuf {
        dir.join(PACKS_DIR).join(meta.pack_name())
    }

    fn published(dir: &Path) -> Vec<SegmentMeta> {
        read_index_file(dir, MANIFEST_NAME)
            .unwrap()
            .expect("manifest present")
            .1
    }

    /// `bytes` re-stamped as container version `version`, CRC recomputed.
    fn restamped(bytes: &[u8], version: u16) -> Vec<u8> {
        let mut out = bytes[..bytes.len() - 4].to_vec();
        out[4..6].copy_from_slice(&version.to_be_bytes());
        let crc = crc32(&out);
        out.put_u32_be(crc);
        out
    }

    #[test]
    fn write_then_read_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let c0 = cell(2, 9);
        let c1 = cell(2, 10);
        let c2 = cell(3, 0);
        let r0 = records(c0, 50);
        let r1 = records(c1, 7);
        w.spill(c0, &r0).unwrap();
        w.spill(c1, &r1).unwrap();
        w.spill(c2, &records(c2, 5)).unwrap();
        assert_eq!(w.finish().unwrap(), 3);

        let r = ArchiveReader::open(&dir, StoreMetrics::new())
            .unwrap()
            .expect("manifest present");
        assert_eq!(r.key(), KEY);
        assert_eq!(r.segment_count(), 3);
        assert!(r.covers([c0, c1, c2].iter()));
        assert!(!r.covers([c0, cell(4, 4)].iter()));
        assert_eq!(r.read_cell(c0).unwrap(), r0);
        assert_eq!(r.read_cell(c1).unwrap(), r1);
        // One pack per day, each cell's segment back to back in it, the
        // bytes exactly what the segment encoder produces.
        let (m0, m1, m2) = (
            r.meta(c0).unwrap(),
            r.meta(c1).unwrap(),
            r.meta(c2).unwrap(),
        );
        assert_eq!(m0.pack_name(), m1.pack_name());
        assert_ne!(m0.pack_name(), m2.pack_name());
        assert_eq!(m0.offset, 0);
        assert_eq!(m1.offset, m0.len);
        let pack = std::fs::read(pack_path(&dir, m0)).unwrap();
        assert_eq!(pack.len() as u64, m0.len + m1.len);
        assert_eq!(&pack[m1.offset as usize..], encode_segment(&r1));
        assert_eq!(std::fs::read_dir(dir.join(PACKS_DIR)).unwrap().count(), 2);
        assert_eq!(metrics.segments_written.get(), 3);
        assert_eq!(metrics.records_written.get(), 62);
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
        // Re-creating for a fresh spill removes the manifest immediately,
        // and its first spill into a pack starts the pack over.
        let w2 = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        assert!(ArchiveReader::open(&dir, Arc::clone(&metrics))
            .unwrap()
            .is_none());
        let r = records(c, 5);
        w2.spill(c, &r).unwrap();
        w2.finish().unwrap();
        let meta = published(&dir)[0];
        assert_eq!(meta.offset, 0);
        assert_eq!(
            std::fs::read(pack_path(&dir, &meta)).unwrap(),
            encode_segment(&r)
        );
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
    fn other_manifest_versions_are_named_errors() {
        let dir = tmp_dir("manifest-version");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let c = cell(2, 9);
        w.spill(c, &records(c, 3)).unwrap();
        w.finish().unwrap();
        let path = dir.join(MANIFEST_NAME);
        let current = std::fs::read(&path).unwrap();
        // The version before this one, then version 1, which stays on disk.
        for found in [MANIFEST_VERSION - 1, 1] {
            std::fs::write(&path, restamped(&current, found)).unwrap();
            let err = ArchiveReader::open(&dir, StoreMetrics::new()).unwrap_err();
            assert_eq!(
                err,
                StoreError::Version {
                    file: MANIFEST_NAME.to_string(),
                    found
                }
            );
            assert!(
                err.to_string().contains(&format!("version {found}")),
                "{err}"
            );
        }
        // gc will not guess at what a v1 index names, and resume
        // discards it like a corrupt one.
        assert!(gc_dir(&dir, true).is_err());
        let m = StoreMetrics::new();
        let (_, adopted) = ArchiveWriter::create_or_resume(&dir, KEY, Arc::clone(&m)).unwrap();
        assert_eq!(adopted.segment_count(), 0);
        assert_eq!(m.resume_rejected.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The manifest's bytes, pinned: one entry per stream, a day before
    /// the epoch, a writer's pack tag and all-ones fields. Archives on
    /// disk hold these bytes, so a change to the entry form, which the
    /// shard protocol shares, fails here.
    #[test]
    fn manifest_bytes_are_pinned() {
        let mut streams: Vec<Stream> = VantagePoint::ALL.into_iter().map(Stream::Vantage).collect();
        streams.extend([Stream::IspTransit, Stream::Edu]);
        let metas: Vec<SegmentMeta> = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| {
                let i = i as u64;
                SegmentMeta {
                    cell: Cell {
                        stream,
                        date: Date::from_day_number(i as i64 * 4_111 - 20_000),
                        hour: (i * 5 % 24) as u8,
                    },
                    records: i * 1_000,
                    pack_tag: (i & 1) * (0xDEAD_BEEF_0000 + i),
                    offset: i << 33,
                    len: 64 + i,
                    crc: 0x0102_0304 * i as u32,
                    min_start: 1_584_000_000_000 + i,
                    max_end: 1_584_000_003_600 + i,
                    max_start: 1_584_000_003_599 + i,
                    bytes: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    packets: i * 1_001,
                }
            })
            .chain([SegmentMeta {
                cell: Cell {
                    stream: Stream::Edu,
                    date: Date::from_day_number(-1),
                    hour: 23,
                },
                records: u64::MAX,
                pack_tag: u64::MAX,
                offset: u64::MAX,
                len: u64::MAX,
                crc: u32::MAX,
                min_start: u64::MAX,
                max_end: u64::MAX,
                max_start: u64::MAX,
                bytes: u64::MAX,
                packets: u64::MAX,
            }])
            .collect();
        let key = StoreKey {
            seed: 0x10CD_2020,
            scenario_hash: u64::MAX,
            plan_hash: 0x0123_4567_89AB_CDEF,
        };
        let bytes = encode_manifest(key, &metas);
        // The header carries the format version; the entries after it
        // are the bytes version 4 writes, and the trailing CRC covers both.
        assert_eq!(bytes[..8], *b"LKSM\x00\x04\x00\x00");
        let entries = &bytes[8..bytes.len() - 4];
        assert_eq!(crc32(entries), 0x527e_24bc, "{} bytes", bytes.len());
        assert_eq!(decode_index(MANIFEST_NAME, &bytes).unwrap(), (key, metas));
    }

    #[test]
    fn a_cell_out_of_range_is_named() {
        let mut bytes = Vec::new();
        put_cell(
            &mut bytes,
            Cell {
                stream: Stream::Edu,
                date: Date::from_day_number(-3),
                hour: 23,
            },
        );
        let mut unknown = bytes.clone();
        unknown[3] = 99;
        let err = read_cell(&mut Cursor::new(&unknown)).unwrap_err();
        assert_eq!(err.to_string(), "cell stream id 99 out of range");
        let mut late = bytes.clone();
        *late.last_mut().unwrap() = 24;
        let err = read_cell(&mut Cursor::new(&late)).unwrap_err();
        assert_eq!(err.to_string(), "cell hour 24 out of range");
        assert_eq!(read_cell(&mut Cursor::new(&bytes)).unwrap().hour, 23);
    }

    #[test]
    fn an_entry_count_the_bytes_cannot_hold_is_corrupt_not_an_abort() {
        // CRC-valid, but claiming u32::MAX entries after the key.
        let mut bytes = encode_manifest(KEY, &[]);
        bytes.truncate(bytes.len() - 4);
        let count_at = bytes.len() - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_be_bytes());
        let crc = crc32(&bytes);
        bytes.put_u32_be(crc);
        match decode_index(MANIFEST_NAME, &bytes) {
            Err(StoreError::Corrupt { segment, detail }) => {
                assert_eq!(segment, MANIFEST_NAME);
                assert!(detail.contains("4294967295 entries"), "{detail}");
            }
            other => panic!("expected a named corruption, got {other:?}"),
        }
    }

    #[test]
    fn segment_corruption_names_the_segment_and_counts() {
        let dir = tmp_dir("segment-corrupt");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let (before, victim, after) = (cell(2, 8), cell(2, 9), cell(2, 10));
        for c in [before, victim, after] {
            w.spill(c, &records(c, 40)).unwrap();
        }
        w.finish().unwrap();

        // Flip one byte inside the victim's range of the shared pack.
        let meta = *published(&dir).iter().find(|m| m.cell == victim).unwrap();
        let path = pack_path(&dir, &meta);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(meta.offset + meta.len / 2) as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let read_metrics = StoreMetrics::new();
        let r = ArchiveReader::open(&dir, Arc::clone(&read_metrics))
            .unwrap()
            .unwrap();
        let err = r.read_cell(victim).unwrap_err();
        assert!(err.to_string().contains(&meta.label()), "{err}");
        assert_eq!(read_metrics.crc_failures.get(), 1);
        assert_eq!(r.read_cell(before).unwrap(), records(before, 40));
        assert_eq!(r.read_cell(after).unwrap(), records(after, 40));
        let report = r.verify();
        assert_eq!(report.segments, 3);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains(&meta.label()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An entry whose latest start, byte sum or packet sum is off by one,
    /// the manifest's CRC re-stamped: the segment itself is sound, yet
    /// `verify`, a single-cell read and a warm pass's run read each refuse
    /// it by name, and only it.
    #[test]
    fn an_entry_that_misstates_its_records_is_named() {
        let dir = tmp_dir("entry-summary");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let cells = [cell(2, 8), cell(2, 9), cell(2, 10)];
        for c in cells {
            w.spill(c, &records(c, 40)).unwrap();
        }
        w.finish().unwrap();
        let honest = published(&dir);
        for field in 0..3 {
            let mut metas = honest.clone();
            let victim = &mut metas[1];
            match field {
                0 => victim.max_start += 1,
                1 => victim.bytes += 1,
                _ => victim.packets -= 1,
            }
            let label = victim.label();
            write_index_atomic(&dir, MANIFEST_NAME, KEY, &metas).unwrap();

            let metrics = StoreMetrics::new();
            let r = ArchiveReader::open(&dir, Arc::clone(&metrics))
                .unwrap()
                .unwrap();
            let report = r.verify();
            assert_eq!(report.failures.len(), 1, "field {field}");
            assert!(report.failures[0].contains(&label), "{report:?}");
            assert!(report.failures[0].contains("manifest says"), "{report:?}");
            let err = r.read_cell(cells[1]).unwrap_err();
            assert!(matches!(&err, StoreError::Corrupt { segment, .. } if *segment == label));
            let (mut run, mut out) = (SegmentRun::default(), Vec::new());
            r.read_run(&cells, &mut run);
            for (i, &c) in cells.iter().enumerate() {
                match r.decode_run(&run, i, &mut out) {
                    Ok(named) => assert!(i != 1 && named && out == records(c, 40)),
                    Err(e) => assert!(i == 1 && e.to_string().contains(&label), "{e}"),
                }
            }
            assert_eq!(metrics.crc_failures.get(), 3, "field {field}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_range_past_the_pack_end_is_corrupt() {
        let dir = tmp_dir("range-overrun");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let (first, last) = (cell(2, 0), cell(2, 1));
        w.spill(first, &records(first, 9)).unwrap();
        w.spill(last, &records(last, 9)).unwrap();
        w.finish().unwrap();
        let meta = published(&dir)[1];
        let pack = OpenOptions::new()
            .write(true)
            .open(pack_path(&dir, &meta))
            .unwrap();
        pack.set_len(meta.offset + meta.len - 1).unwrap();

        let metrics = StoreMetrics::new();
        let r = ArchiveReader::open(&dir, Arc::clone(&metrics))
            .unwrap()
            .unwrap();
        let err = r.read_footer(last).unwrap_err();
        assert!(err.to_string().contains("overruns the pack"), "{err}");
        assert_eq!(metrics.crc_failures.get(), 1);
        assert_eq!(r.read_cell(first).unwrap().len(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_short_read_past_the_pack_end_is_the_same_named_corruption() {
        let dir = tmp_dir("short-read");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let (large, last) = (cell(2, 0), cell(2, 1));
        w.spill(large, &records(large, 60)).unwrap();
        w.spill(last, &records(last, 9)).unwrap();
        w.finish().unwrap();
        let meta = published(&dir)[1];
        let pack = OpenOptions::new()
            .write(true)
            .open(pack_path(&dir, &meta))
            .unwrap();
        pack.set_len(meta.offset + meta.len - 1).unwrap();

        // The larger segment leaves scratch the cut range fits in, so the
        // overrun shows as a short read, not as a length check.
        let metrics = StoreMetrics::new();
        let r = ArchiveReader::open(&dir, Arc::clone(&metrics))
            .unwrap()
            .unwrap();
        let mut out = records(large, 3);
        assert!(r.read_cell_where(large, |_| true, &mut out).unwrap());
        assert_eq!(out, records(large, 60));
        let err = r.read_cell_where(last, |_| true, &mut out).unwrap_err();
        assert!(err.to_string().ends_with("overruns the pack"), "{err}");
        assert!(out.is_empty(), "a failed read left records behind");
        assert_eq!(metrics.crc_failures.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run read spans two days' packs and a cell the index lacks: each
    /// read cell decodes to what a single-cell read gives, the one the
    /// index does not name decodes to nothing and is no error, and every
    /// read cell's bytes are counted once, as a footer read's are.
    #[test]
    fn a_run_read_equals_single_cell_reads() {
        let dir = tmp_dir("run-read");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let cells = [cell(2, 3), cell(2, 0), cell(2, 7), cell(3, 1), cell(3, 2)];
        for (i, &c) in cells.iter().enumerate() {
            w.spill(c, &records(c, 5 + 9 * i as u32)).unwrap();
        }
        w.finish().unwrap();

        let metrics = StoreMetrics::new();
        let r = ArchiveReader::open(&dir, Arc::clone(&metrics))
            .unwrap()
            .unwrap();
        let asked = [
            cell(2, 0),
            cell(2, 3),
            cell(2, 5),
            cell(2, 7),
            cell(3, 1),
            cell(3, 2),
        ];
        let mut run = SegmentRun::default();
        r.read_run(&asked, &mut run);
        let held: u64 = r.segments().map(|m| m.len).sum();
        assert_eq!(metrics.bytes_read.get(), held);
        let mut out = records(cell(4, 4), 3);
        for (i, &c) in asked.iter().enumerate() {
            let named = r.decode_run(&run, i, &mut out).unwrap();
            assert_eq!(named, c != cell(2, 5), "{c:?}");
            match named {
                true => assert_eq!(out, r.read_cell(c).unwrap(), "{c:?}"),
                false => assert!(out.is_empty()),
            }
        }
        assert_eq!(metrics.crc_failures.get(), 0);
        let missing = r.read_cell(cell(2, 5)).unwrap_err();
        assert!(matches!(missing, StoreError::Missing { .. }), "{missing}");
        assert_eq!(metrics.segments_read.get(), 2 * 5);
        // A footer read checks the whole range, so it counts its bytes
        // as a decode does.
        let before = metrics.bytes_read.get();
        assert_eq!(r.read_footer(cell(2, 7)).unwrap().records, 23);
        let len = r.meta(cell(2, 7)).unwrap().len;
        assert_eq!(metrics.bytes_read.get(), before + len);
        assert_eq!(metrics.segments_read.get(), 2 * 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pack cut short under a run read: whether the span outgrows the
    /// buffer (the pack's length is asked) or fits a buffer grown by an
    /// earlier run (a short read), only the cells past the cut fail, each
    /// named and counted.
    #[test]
    fn a_cut_pack_fails_only_the_cells_past_the_cut() {
        let dir = tmp_dir("run-cut");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let (big, day) = (cell(3, 0), (0..6).map(|h| cell(2, h)).collect::<Vec<_>>());
        w.spill(big, &records(big, 400)).unwrap();
        for &c in &day {
            w.spill(c, &records(c, 20)).unwrap();
        }
        w.finish().unwrap();
        let metas: Vec<SegmentMeta> = published(&dir)
            .into_iter()
            .filter(|m| m.cell.date == day[0].date)
            .collect();
        let path = pack_path(&dir, &metas[0]);
        let cut = std::fs::metadata(&path).unwrap().len() / 2;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let past: Vec<Cell> = metas
            .iter()
            .filter(|m| m.offset + m.len > cut)
            .map(|m| m.cell)
            .collect();
        assert!(!past.is_empty() && past.len() < day.len());

        for grown in [false, true] {
            let metrics = StoreMetrics::new();
            let r = ArchiveReader::open(&dir, Arc::clone(&metrics))
                .unwrap()
                .unwrap();
            let mut run = SegmentRun::default();
            if grown {
                r.read_run(&[big], &mut run);
            }
            r.read_run(&day, &mut run);
            let mut out = Vec::new();
            for (i, &c) in day.iter().enumerate() {
                match r.decode_run(&run, i, &mut out) {
                    Ok(named) => assert!(named && out == records(c, 20)),
                    Err(e) => {
                        assert!(past.contains(&c), "{c:?}: {e}");
                        assert!(e.to_string().contains("overruns"), "{e}");
                    }
                }
            }
            let failed = metrics.crc_failures.get() as usize;
            assert_eq!(failed, past.len(), "grown buffer: {grown}");
        }
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
        // Simulate the kill: no finish(), and the pack is cut inside the
        // second segment's range (crash mid-write after the journal
        // named it).
        let torn_meta = w.metas()[1];
        let cut = torn_meta.offset + torn_meta.len / 2;
        let pack = OpenOptions::new()
            .write(true)
            .open(pack_path(&dir, &torn_meta))
            .unwrap();
        pack.set_len(cut).unwrap();

        let m2 = StoreMetrics::new();
        let (w2, adopted) = ArchiveWriter::create_or_resume(&dir, KEY, Arc::clone(&m2)).unwrap();
        assert_eq!(
            adopted.segment_count(),
            1,
            "only the intact segment is adopted"
        );
        assert!(adopted.covers(&[done]) && !adopted.covers(&[torn]));
        assert_eq!(m2.segments_resumed.get(), 1);
        assert_eq!(m2.resume_rejected.get(), 1);
        // The adopted segment is read like any archived one: a run read.
        let (mut run, mut out) = (SegmentRun::default(), Vec::new());
        adopted.read_run(&[done, torn], &mut run);
        assert!(adopted.decode_run(&run, 0, &mut out).unwrap());
        assert_eq!(out, r_done);
        assert!(!adopted.decode_run(&run, 1, &mut out).unwrap());
        // Regenerate the torn cell: it is appended after the cut, and the
        // archive is whole.
        w2.spill(torn, &records(torn, 20)).unwrap();
        assert_eq!(w2.metas()[1].offset, cut);
        assert_eq!(w2.finish().unwrap(), 2);
        assert!(
            !dir.join(JOURNAL_NAME).exists(),
            "finish retires the journal"
        );
        let r = ArchiveReader::open(&dir, StoreMetrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(r.segment_count(), 2);
        assert!(r.verify().ok());
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
    fn journal_checkpoints_grow_logarithmically_with_the_cells() {
        // A `Fidelity::Test` archive's cell count, spilled on one thread.
        let dir = tmp_dir("checkpoint-count");
        let metrics = StoreMetrics::new();
        let w = ArchiveWriter::create(&dir, KEY, Arc::clone(&metrics)).unwrap();
        let first = Date::new(2020, 1, 1).day_number();
        for i in 0..20_592i64 {
            let c = Cell {
                stream: Stream::Vantage(VantagePoint::IspCe),
                date: Date::from_day_number(first + i / 24),
                hour: (i % 24) as u8,
            };
            w.spill(c, &[]).unwrap();
        }
        let checkpoints = metrics.journal_checkpoints.get();
        assert!(checkpoints <= 100, "{checkpoints} journal checkpoints");
        // The last checkpoint is at most a sixteenth of the cells old.
        let journaled = read_index_file(&dir, JOURNAL_NAME)
            .unwrap()
            .unwrap()
            .1
            .len();
        assert!(
            20_592 - journaled <= 20_592 / 16,
            "journal names {journaled}"
        );
        assert_eq!(w.finish().unwrap(), 20_592);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_spills_into_one_pack_each_get_their_own_range() {
        let dir = tmp_dir("concurrent");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        std::thread::scope(|s| {
            for half in 0..2u8 {
                let w = &w;
                s.spawn(move || {
                    for hour in (half..24).step_by(2) {
                        let c = cell(2, hour);
                        w.spill(c, &records(c, u32::from(hour) + 1)).unwrap();
                    }
                });
            }
        });
        w.finish().unwrap();
        let r = ArchiveReader::open(&dir, StoreMetrics::new())
            .unwrap()
            .unwrap();
        for hour in 0..24 {
            let c = cell(2, hour);
            assert_eq!(r.read_cell(c).unwrap(), records(c, u32::from(hour) + 1));
        }
        // The ranges tile the one pack exactly.
        let mut ranges: Vec<(u64, u64)> = r.segments().map(|m| (m.offset, m.len)).collect();
        ranges.sort_unstable();
        let tiled = ranges.iter().fold(0, |end, &(offset, len)| {
            assert_eq!(offset, end);
            end + len
        });
        let meta = r.segments().next().unwrap();
        assert_eq!(
            std::fs::metadata(pack_path(&dir, meta)).unwrap().len(),
            tiled
        );
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
        assert_eq!(adopted.segment_count(), 1);
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
        // A different seed means different flow content: adopt nothing,
        // and start the packs over rather than append to dead bytes.
        let other = StoreKey { seed: 8, ..KEY };
        let (w2, adopted) =
            ArchiveWriter::create_or_resume(&dir, other, StoreMetrics::new()).unwrap();
        assert_eq!(adopted.segment_count(), 0);
        let r = records(c, 6);
        w2.spill(c, &r).unwrap();
        let meta = w2.metas()[0];
        assert_eq!(meta.offset, 0);
        assert_eq!(
            std::fs::read(pack_path(&dir, &meta)).unwrap(),
            encode_segment(&r)
        );
        // A corrupt journal is discarded, not fatal.
        std::fs::write(dir.join(JOURNAL_NAME), b"garbage").unwrap();
        let m = StoreMetrics::new();
        let (_, adopted) = ArchiveWriter::create_or_resume(&dir, KEY, Arc::clone(&m)).unwrap();
        assert_eq!(adopted.segment_count(), 0);
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
        assert!(w.metas().is_empty());
        // The retry succeeds in a fresh range after the torn one, which
        // is dead space no index names.
        w.spill(c, &r).unwrap();
        assert_eq!(w.finish().unwrap(), 1);
        let meta = published(&dir)[0];
        let len = encode_segment(&r).len() as u64;
        assert_eq!(meta.offset, len);
        assert_eq!(
            std::fs::metadata(pack_path(&dir, &meta)).unwrap().len(),
            2 * len
        );
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
        w.remove(drop);
        assert_eq!(w.finish().unwrap(), 1);
        let r = ArchiveReader::open(&dir, StoreMetrics::new())
            .unwrap()
            .unwrap();
        assert!(!r.covers([drop].iter()));
        assert!(matches!(r.read_cell(drop), Err(StoreError::Missing { .. })));
        assert_eq!(r.read_cell(keep).unwrap(), records(keep, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attached_writer_spills_without_touching_the_index() {
        let dir = tmp_dir("attach");
        let owner = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let c0 = cell(7, 0);
        let c1 = cell(7, 1);
        let r0 = records(c0, 8);
        // Two shard workers attach and spill cells of one day; the index
        // files stay untouched (they belong to the coordinator) and each
        // worker appends to a pack of its own.
        let w = ArchiveWriter::attach(&dir, KEY, StoreMetrics::new()).unwrap();
        let w2 = ArchiveWriter::attach(&dir, KEY, StoreMetrics::new()).unwrap();
        w.spill(c0, &r0).unwrap();
        w2.spill(c1, &records(c1, 5)).unwrap();
        assert!(!dir.join(JOURNAL_NAME).exists(), "attach never journals");
        assert!(!dir.join(MANIFEST_NAME).exists());
        let inventory: Vec<SegmentMeta> = w.metas().into_iter().chain(w2.metas()).collect();
        assert_eq!(inventory.len(), 2);
        assert_ne!(inventory[0].pack_tag, 0);
        assert_ne!(inventory[0].pack_name(), inventory[1].pack_name());
        assert_eq!(inventory[1].offset, 0);
        // Adoption checks the range: a length lie is rejected loudly.
        let lie = SegmentMeta {
            len: inventory[0].len + 1,
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
        assert!(r.verify().ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_dir_reaps_orphans_without_a_manifest() {
        let dir = tmp_dir("gc-dir");
        let w = ArchiveWriter::create(&dir, KEY, StoreMetrics::new()).unwrap();
        let kept = cell(2, 9);
        w.spill(kept, &records(kept, 3)).unwrap();
        w.checkpoint().unwrap();
        let kept_pack = w.metas()[0].pack_name();
        // Killed before finish: manifest absent, one orphan on disk.
        let orphan = dir.join(PACKS_DIR).join("pack-9-99999.lkp");
        std::fs::write(&orphan, b"stale").unwrap();

        let dry = gc_dir(&dir, true).unwrap();
        assert_eq!(dry.removed, vec!["pack-9-99999.lkp".to_string()]);
        assert_eq!(dry.kept, 1);
        assert!(dry.dry_run);
        assert!(orphan.exists(), "dry-run deletes nothing");

        let real = gc_dir(&dir, false).unwrap();
        assert_eq!(real.removed, dry.removed);
        assert!(!orphan.exists());
        assert!(
            dir.join(PACKS_DIR).join(&kept_pack).exists(),
            "journaled pack survives"
        );
        // With no index at all, every pack is an orphan.
        std::fs::remove_file(dir.join(JOURNAL_NAME)).unwrap();
        let bare = gc_dir(&dir, false).unwrap();
        assert_eq!(bare.removed, vec![kept_pack]);
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
