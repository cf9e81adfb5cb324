//! Single-pass trace engine: one shared generation plan feeding every
//! subscribed consumer.
//!
//! The figure drivers overlap heavily in the trace slices they demand —
//! regenerating per figure materializes the same `(stream, date, hour)`
//! cell many times over. The engine inverts that: drivers *declare* their
//! demands as `(stream, window, consumer factory)` subscriptions, the
//! underlying [`TracePlan`] deduplicates the union of windows, and each
//! distinct cell is generated exactly once and fanned out to every
//! subscription whose window covers it.
//!
//! Scheduling and determinism: the workers of a pass claim cells one at
//! a time from a shared cursor over the sorted cell list, so each stays
//! busy until the list runs dry however unevenly the flows are spread
//! over it (the first half of the suite's cells carries 78% of its flows).
//! Which worker ends up with which cells differs from run to run, and the
//! output does not: cells are independently seeded, so a cell's flows are
//! the same on any thread; each cell is claimed exactly once; and every
//! [`FlowConsumer`] merge is commutative and associative over disjoint
//! cell sets, so the merged result depends only on the set of cells. It
//! is therefore bit-identical for any worker count and any claim order,
//! and identical to the old per-figure regeneration.
//! `tests/determinism.rs` asserts all three.

use crate::context::Context;
use crate::supervisor::{
    AttemptError, DegradedReport, QuarantinedCell, Supervisor, SupervisorMetrics,
};
use lockdown_analysis::codec::CodecError;
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_chaos::{ChaosConfig, InjectedPanic, WriteFault};
use lockdown_collect::{CollectMetrics, CollectionPlane, WireConfig};
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_store::{
    ArchiveReader, ArchiveWriter, SegmentMeta, SpillFault, StoreError, StoreKey, StoreMetrics,
};
use lockdown_traffic::plan::{Cell, Stream, TraceEmitter, TracePlan};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Object-safe face of [`FlowConsumer`] used inside the engine.
trait AnyConsumer: Send {
    fn observe_batch(&mut self, records: &[FlowRecord]);
    fn merge_box(&mut self, other: Box<dyn AnyConsumer>);
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// Serialize this consumer's state as a self-checking codec frame
    /// (the shard worker's side of the cross-process merge).
    fn encode_state_frame(&self) -> Vec<u8>;
    /// Decode a peer's frame and merge it into this consumer (the shard
    /// coordinator's side).
    fn merge_state_frame(&mut self, frame: &[u8]) -> Result<(), CodecError>;
}

struct Erased<C>(C);

impl<C: FlowConsumer + Send + 'static> AnyConsumer for Erased<C> {
    fn observe_batch(&mut self, records: &[FlowRecord]) {
        self.0.observe_all(records);
    }

    fn merge_box(&mut self, other: Box<dyn AnyConsumer>) {
        // Unreachable by construction: partials are merged strictly by
        // subscription index, and each index has exactly one concrete
        // consumer type (enforced at `subscribe` time by the factory).
        let other = other
            .into_any()
            .downcast::<Erased<C>>()
            .expect("merged consumers share one subscription type");
        self.0.merge(other.0);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn encode_state_frame(&self) -> Vec<u8> {
        lockdown_analysis::codec::encode_frame(&self.0)
    }

    fn merge_state_frame(&mut self, frame: &[u8]) -> Result<(), CodecError> {
        lockdown_analysis::codec::merge_frame(&mut self.0, frame)
    }
}

struct Subscription {
    stream: Stream,
    start: Date,
    end: Date,
    /// Figure label from [`EnginePlan::scoped`]; attributes quarantined
    /// cells to the figures they starve in the degraded-mode report.
    label: Option<String>,
    factory: Box<dyn Fn() -> Box<dyn AnyConsumer> + Send + Sync>,
}

impl Subscription {
    fn covers(&self, cell: Cell) -> bool {
        self.stream == cell.stream && self.start <= cell.date && cell.date <= self.end
    }
}

/// Typed handle to one subscription; redeem it against the
/// [`EngineOutput`] after the run.
pub struct Demand<C> {
    idx: usize,
    _marker: PhantomData<fn() -> C>,
}

impl<C> Clone for Demand<C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for Demand<C> {}

/// The union of every driver's trace demands, with one consumer factory
/// per subscription.
#[derive(Default)]
pub struct EnginePlan {
    trace: TracePlan,
    subs: Vec<Subscription>,
    wire: Option<WireConfig>,
    archive: Option<PathBuf>,
    chaos: ChaosConfig,
    scope: Option<String>,
}

impl EnginePlan {
    /// An empty plan.
    pub fn new() -> EnginePlan {
        EnginePlan::default()
    }

    /// Route every generated cell through the wire-mode collection plane
    /// (export → faulty transport → sequence-tracking collect) before
    /// fan-out. With [`lockdown_collect::FaultProfile::zero`] the delivered
    /// records are exactly the generated ones, so figure output is
    /// byte-identical to an unwired run.
    pub fn with_wire(&mut self, cfg: WireConfig) -> &mut EnginePlan {
        self.wire = Some(cfg);
        self
    }

    /// Attach a columnar archive directory to the pass. A manifest keyed to
    /// the same `(seed, scenario)` generation and covering every demanded
    /// cell makes the pass *warm*: cells are decoded from segments instead
    /// of generated, byte-identically. Anything else — no manifest, a stale
    /// key, missing cells — makes the pass *cold*: cells are generated as
    /// usual and spilled so the next run replays. A segment that cannot be
    /// read back is regenerated; only opening, creating, checkpointing or
    /// publishing the archive fails [`run`]/[`run_with_workers`].
    pub fn with_archive(&mut self, dir: impl Into<PathBuf>) -> &mut EnginePlan {
        self.archive = Some(dir.into());
        self
    }

    /// Schedule deterministic faults and set the attempt budget and
    /// backoff of the pass's supervisor. Every pass runs supervised; the
    /// default, [`ChaosConfig::zero`], injects nothing.
    pub fn with_chaos(&mut self, cfg: ChaosConfig) -> &mut EnginePlan {
        self.chaos = cfg;
        self
    }

    /// Run `f` with every subscription it records labeled `label` (the
    /// figure being planned). Labels drive the degraded-mode report's
    /// "affected figures" attribution; unlabeled subscriptions are
    /// reported under `unlabeled`.
    pub fn scoped<R>(&mut self, label: &str, f: impl FnOnce(&mut EnginePlan) -> R) -> R {
        let prev = self.scope.replace(label.to_string());
        let out = f(self);
        self.scope = prev;
        out
    }

    /// Subscribe a consumer to an inclusive date window of one stream.
    /// `factory` builds one fresh consumer per worker; partials are merged
    /// in worker order after the pass.
    pub fn subscribe<C, F>(
        &mut self,
        stream: Stream,
        start: Date,
        end: Date,
        factory: F,
    ) -> Demand<C>
    where
        C: FlowConsumer + Send + 'static,
        F: Fn() -> C + Send + Sync + 'static,
    {
        self.trace.demand(stream, start, end);
        let idx = self.subs.len();
        self.subs.push(Subscription {
            stream,
            start,
            end,
            label: self.scope.clone(),
            factory: Box::new(move || Box::new(Erased(factory()))),
        });
        Demand {
            idx,
            _marker: PhantomData,
        }
    }

    /// Fingerprint of the deduplicated cell plan. Two processes that
    /// build the same subscriptions get the same hash — the shard
    /// protocol's guard against running an assignment against a
    /// differently built plan.
    pub fn plan_hash(&self) -> u64 {
        self.trace.plan_hash()
    }

    /// Every distinct cell the plan demands, ordered by
    /// `(stream, date, hour)` — the shard assignment index space.
    pub fn cells(&self) -> Vec<Cell> {
        self.trace.cells()
    }
}

/// What one engine pass did: the dedup story in numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Subscriptions served.
    pub demands: usize,
    /// Cells requested across all demands, counting overlap multiplicity
    /// — what per-figure regeneration would materialize.
    pub cells_demanded: u64,
    /// Distinct cells actually generated (each exactly once). Zero on a
    /// warm archived pass — the proof that replay did no generation.
    pub cells_generated: u64,
    /// Distinct cells decoded from an archive instead of generated.
    /// Includes resumed cells — replay is replay, whether the index that
    /// named the segment was a manifest or a journal.
    pub cells_replayed: u64,
    /// Of the replayed cells, how many were adopted from a checkpoint
    /// journal left by an interrupted pass.
    pub cells_resumed: u64,
    /// Cells the supervisor quarantined after exhausting their attempt
    /// budget.
    pub cells_quarantined: u64,
    /// Cell attempts beyond the first.
    pub retries: u64,
    /// Flow records fanned out across all cells, generated or replayed.
    pub flows_emitted: u64,
    /// Worker threads used.
    pub workers: usize,
}

impl EngineStats {
    /// How many times over per-figure regeneration would have re-made the
    /// average cell.
    pub fn dedup_ratio(&self) -> f64 {
        self.cells_demanded as f64 / (self.cells_generated + self.cells_replayed).max(1) as f64
    }

    /// One-line human-readable summary (the CLI prints this after a full
    /// suite run). The base format is stable — resume, quarantine and
    /// retries are appended only when nonzero, so a clean pass renders
    /// the base line alone.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "engine: {} demands, {} cells generated once + {} replayed (vs {} demanded, dedup x{:.2}), {} flows, {} workers",
            self.demands,
            self.cells_generated,
            self.cells_replayed,
            self.cells_demanded,
            self.dedup_ratio(),
            self.flows_emitted,
            self.workers,
        );
        if self.cells_resumed > 0 {
            s.push_str(&format!(", {} resumed", self.cells_resumed));
        }
        if self.cells_quarantined > 0 || self.retries > 0 {
            s.push_str(&format!(
                ", {} quarantined ({} retries)",
                self.cells_quarantined, self.retries
            ));
        }
        s
    }
}

/// Why [`EngineOutput::try_take`] could not redeem a demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeError {
    /// The demand was already taken from this output.
    AlreadyTaken,
    /// The demand's type parameter does not match the consumer the
    /// subscription actually built (a handle redeemed against the wrong
    /// output, or transmuted indices).
    TypeMismatch,
}

impl std::fmt::Display for TakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TakeError::AlreadyTaken => write!(f, "demand already taken from this engine output"),
            TakeError::TypeMismatch => write!(f, "demand type does not match its subscription"),
        }
    }
}

impl std::error::Error for TakeError {}

/// Merged consumer states of one engine pass, redeemable by [`Demand`].
pub struct EngineOutput {
    consumers: Vec<Option<Box<dyn AnyConsumer>>>,
    stats: EngineStats,
    wire_metrics: Option<Arc<CollectMetrics>>,
    audit: Option<lockdown_audit::Report>,
    store_metrics: Option<Arc<StoreMetrics>>,
    supervisor_metrics: Arc<SupervisorMetrics>,
    degraded: Option<DegradedReport>,
}

impl EngineOutput {
    /// Take the merged consumer of one subscription, reporting a typed
    /// error for the two reachable misuses (double-take, wrong-type
    /// redemption) instead of panicking.
    pub fn try_take<C: FlowConsumer + Send + 'static>(
        &mut self,
        demand: Demand<C>,
    ) -> Result<C, TakeError> {
        let slot = self
            .consumers
            .get_mut(demand.idx)
            .ok_or(TakeError::TypeMismatch)?;
        let boxed = slot.take().ok_or(TakeError::AlreadyTaken)?;
        // A failed downcast consumes the slot: erasure is one-way, so a
        // wrong-typed probe cannot restore the consumer. That is fine —
        // both reachable misuses are programming errors the caller should
        // surface, not probe-and-recover paths.
        boxed
            .into_any()
            .downcast::<Erased<C>>()
            .map(|erased| erased.0)
            .map_err(|_| TakeError::TypeMismatch)
    }

    /// Take the merged consumer of one subscription (each demand can be
    /// taken once). Panics on misuse — use [`EngineOutput::try_take`] for
    /// the typed-error form.
    pub fn take<C: FlowConsumer + Send + 'static>(&mut self, demand: Demand<C>) -> C {
        self.try_take(demand)
            .unwrap_or_else(|e| panic!("engine demand redemption failed: {e}"))
    }

    /// The pass's statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Wire-plane metrics, present when the plan ran in wire mode.
    pub fn wire_metrics(&self) -> Option<&Arc<CollectMetrics>> {
        self.wire_metrics.as_ref()
    }

    /// Conservation-audit report, present when the plan ran in wire mode.
    pub fn audit(&self) -> Option<&lockdown_audit::Report> {
        self.audit.as_ref()
    }

    /// Store metrics, present when the plan ran with an archive attached
    /// (counts spills on a cold pass, reads and pruning on a warm one).
    pub fn store_metrics(&self) -> Option<&Arc<StoreMetrics>> {
        self.store_metrics.as_ref()
    }

    /// The pass supervisor's metrics.
    pub fn supervisor_metrics(&self) -> &Arc<SupervisorMetrics> {
        &self.supervisor_metrics
    }

    /// The degraded-mode report, present when the pass quarantined at
    /// least one cell. `None` means the pass is complete.
    pub fn degraded(&self) -> Option<&DegradedReport> {
        self.degraded.as_ref()
    }
}

/// Default worker count: one per core the process may run on, at most 16.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Run a plan with the default worker count. An archive-free plan cannot
/// fail; an archived one fails only when the archive itself cannot be
/// opened, created, checkpointed or published.
pub fn run(ctx: &Context, plan: EnginePlan) -> Result<EngineOutput, StoreError> {
    run_with_workers(ctx, plan, default_workers())
}

/// Run one driver standalone: subscribe its demands on a fresh plan, run
/// the pass with the default worker count, and redeem them. This is what
/// every figure driver's `run()` is.
pub fn run_standalone<H, T>(
    ctx: &Context,
    plan: impl FnOnce(&mut EnginePlan) -> H,
    finish: impl FnOnce(H, &mut EngineOutput) -> T,
) -> T {
    let mut eplan = EnginePlan::new();
    let handles = plan(&mut eplan);
    let mut out = run(ctx, eplan).expect("archive-free engine pass cannot fail");
    finish(handles, &mut out)
}

/// One worker's consumer column and tallies.
struct Partial {
    consumers: Vec<Box<dyn AnyConsumer>>,
    tallies: Tallies,
}

/// Per-worker cell accounting.
#[derive(Debug, Default, Clone, Copy)]
struct Tallies {
    flows: u64,
    generated: u64,
    replayed: u64,
    resumed: u64,
}

impl Tallies {
    fn add(&mut self, other: Tallies) {
        self.flows += other.flows;
        self.generated += other.generated;
        self.replayed += other.replayed;
        self.resumed += other.resumed;
    }
}

/// How one cell's records were obtained.
enum CellFill {
    Generated,
    Replayed,
    Resumed,
}

/// Render a caught panic payload for the quarantine record.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected worker panic (attempt {})", p.attempt)
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One fresh consumer per subscription, in subscription order.
fn fresh_consumers(subs: &[Subscription]) -> Vec<Box<dyn AnyConsumer>> {
    subs.iter().map(|s| (s.factory)()).collect()
}

/// Hand one cell's batch to every subscription whose window covers it.
fn fan_out(
    subs: &[Subscription],
    consumers: &mut [Box<dyn AnyConsumer>],
    cell: Cell,
    batch: &[FlowRecord],
) {
    for (sub, consumer) in subs.iter().zip(consumers.iter_mut()) {
        if sub.covers(cell) {
            consumer.observe_batch(batch);
        }
    }
}

/// Everything one engine pass shares across workers to execute a cell:
/// generation, replay, resume, the wire plane and the supervisor. Every
/// cell of every entry point runs through [`CellRunner::run`], so
/// supervised semantics cannot drift between worker counts or between
/// threads and shard processes.
struct CellRunner<'a> {
    emitter: TraceEmitter<'a>,
    reader: Option<&'a ArchiveReader>,
    writer: Option<&'a ArchiveWriter>,
    adopted: &'a BTreeMap<Cell, SegmentMeta>,
    plane: Option<&'a CollectionPlane>,
    supervisor: &'a Supervisor,
    store_metrics: Option<&'a Arc<StoreMetrics>>,
    subs: &'a [Subscription],
}

impl CellRunner<'_> {
    /// One attempt. Every injected failure point precedes the cell's wire
    /// processing and ledger posts, so a retried attempt leaves no
    /// partial side effects behind.
    fn fill_attempt(
        &self,
        cell: Cell,
        attempt: u32,
        force_generate: bool,
        buf: &mut Vec<FlowRecord>,
    ) -> Result<CellFill, AttemptError> {
        let sup = self.supervisor;
        let chaos = sup.decide(cell, attempt);
        if chaos.panic {
            std::panic::panic_any(sup.injected_panic(cell, attempt));
        }
        let fill = 'fill: {
            if !force_generate {
                if let Some(r) = self.reader {
                    // Warm replay. A segment that is missing, unreadable
                    // or corrupt is regenerated inline.
                    match r.read_cell(cell) {
                        Ok(records) => {
                            *buf = records;
                            break 'fill CellFill::Replayed;
                        }
                        Err(_) => sup.metrics().replay_corruptions.inc(),
                    }
                } else if let (Some(w), Some(meta)) = (self.writer, self.adopted.get(&cell)) {
                    // Cold resume: adopt the journaled segment. A failed
                    // integrity check self-heals by regenerating inline.
                    match w.read_adopted(meta) {
                        Ok(records) => {
                            *buf = records;
                            break 'fill CellFill::Resumed;
                        }
                        Err(_) => {
                            if let Some(m) = self.store_metrics {
                                m.resume_rejected.inc();
                            }
                        }
                    }
                }
            }
            self.emitter.generate_cell(cell, buf);
            if let Some(w) = self.writer {
                let fault = chaos.write.map(|f| match f {
                    WriteFault::Torn => SpillFault::Torn,
                    WriteFault::Enospc => SpillFault::Enospc,
                });
                if fault.is_some() {
                    sup.metrics().write_faults.inc();
                }
                w.spill_with_fault(cell, buf, fault)
                    .map_err(AttemptError::Store)?;
            }
            CellFill::Generated
        };
        if let Some(pl) = self.plane.filter(|_| chaos.stall) {
            // The exporter fleet timed out before delivering anything:
            // the attempt is abandoned before any conservation post.
            pl.note_stalled();
            sup.metrics().stalls.inc();
            return Err(AttemptError::Stall);
        }
        Ok(fill)
    }

    /// The attempt loop: catch panics, back off, retry, and quarantine
    /// once the budget is spent. `None` means quarantined.
    fn fill(&self, cell: Cell, buf: &mut Vec<FlowRecord>) -> Option<CellFill> {
        let sup = self.supervisor;
        let budget = sup.attempts();
        let mut force_generate = false;
        let mut last_error = String::new();
        for attempt in 1..=budget {
            if attempt > 1 {
                sup.backoff(cell, attempt - 1);
            }
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.fill_attempt(cell, attempt, force_generate, buf)
            }));
            let err = match caught {
                Ok(Ok(fill)) => return Some(fill),
                Ok(Err(e)) => e,
                Err(payload) => {
                    sup.metrics().panics_caught.inc();
                    AttemptError::Panic(panic_message(payload))
                }
            };
            // Whatever the failure left behind (a torn range, a half
            // filled buffer), the next attempt regenerates from scratch
            // rather than trusting on-disk state.
            force_generate = true;
            last_error = err.render();
        }
        // Budget exhausted: quarantine. The archive must not claim the
        // cell, and the auditor records the outcome as a first-class
        // conservation stage instead of a violation.
        if let Some(w) = self.writer {
            w.remove(cell);
        }
        if let Some(pl) = self.plane {
            pl.note_quarantined(&cell);
        }
        sup.quarantine(cell, budget, last_error);
        None
    }

    /// Run one cell end to end: fill, wire processing, conservation
    /// posts, and fan-out to covering subscriptions. Quarantined cells
    /// skip everything downstream.
    fn process(
        &self,
        cell: Cell,
        buf: &mut Vec<FlowRecord>,
        consumers: &mut [Box<dyn AnyConsumer>],
        tallies: &mut Tallies,
    ) {
        let Some(fill) = self.fill(cell, buf) else {
            return;
        };
        match fill {
            CellFill::Generated => tallies.generated += 1,
            CellFill::Replayed => tallies.replayed += 1,
            CellFill::Resumed => {
                tallies.replayed += 1;
                tallies.resumed += 1;
            }
        }
        tallies.flows += buf.len() as u64;
        let wired;
        let batch: &[FlowRecord] = match self.plane {
            Some(pl) => {
                wired = pl.process_cell(cell, buf);
                &wired
            }
            None => buf,
        };
        if let Some(pl) = self.plane {
            pl.note_consumed(&cell, batch);
        }
        fan_out(self.subs, consumers, cell, batch);
    }

    /// One worker: claim the next unclaimed cell until the list runs dry,
    /// running each into this worker's own consumer column through its
    /// own record buffer.
    fn claim_cells(&self, cells: &[Cell], cursor: &AtomicUsize) -> Partial {
        let mut partial = Partial {
            consumers: fresh_consumers(self.subs),
            tallies: Tallies::default(),
        };
        let mut buf = Vec::new();
        // Relaxed: the cursor publishes no data. The cell list is shared
        // before any worker starts, and each column reaches the merge
        // through its worker's join.
        while let Some(&cell) = cells.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            self.process(cell, &mut buf, &mut partial.consumers, &mut partial.tallies);
        }
        partial
    }

    /// Run `cells` — the unit of work of a whole pass and of a shard
    /// worker's slice alike — over `workers` claimants, this thread being
    /// the first, and merge their columns in worker order.
    fn run(&self, cells: &[Cell], workers: usize) -> Partial {
        let cursor = AtomicUsize::new(0);
        let claim = || self.claim_cells(cells, &cursor);
        let (mut merged, rest) = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
            let first = claim();
            let rest: Vec<_> = spawned
                .into_iter()
                .map(|h| h.join().expect("engine workers do not panic"))
                .collect();
            (first, rest)
        });
        for partial in rest {
            merged.tallies.add(partial.tallies);
            for (m, l) in merged.consumers.iter_mut().zip(partial.consumers) {
                m.merge_box(l);
            }
        }
        merged
    }
}

/// Who owns the archive index (manifest and journal) during a pass.
enum ArchiveMode {
    /// A shard coordinator owns the index: a stale or partial archive is
    /// invalidated, and the workers respill it for the coordinator to
    /// adopt.
    Own,
    /// A single-process pass owns the index and *adopts* a journal or
    /// partially covering manifest of the same generation, so it
    /// regenerates only what is actually missing (checkpoint/resume).
    OwnResumable,
    /// A coordinator owns the index and has already invalidated a stale
    /// one: spill into packs of its own, never the manifest or journal.
    Attach,
}

/// A plan with its archive resolved: the state the three entry points —
/// [`run_with_workers`], [`run_slice`], [`ShardAssembler`] — start from,
/// and the one [`Pass::conclude`] they end in.
struct Pass {
    subs: Vec<Subscription>,
    /// The cells this pass answers for, in plan order: the whole plan, or
    /// a shard worker's slice of it.
    cells: Vec<Cell>,
    cells_demanded: u64,
    plan_hash: u64,
    plane: Option<CollectionPlane>,
    supervisor: Supervisor,
    store_metrics: Option<Arc<StoreMetrics>>,
    reader: Option<ArchiveReader>,
    writer: Option<ArchiveWriter>,
    adopted: BTreeMap<Cell, SegmentMeta>,
}

impl Pass {
    /// Take a plan apart and resolve its archive for the cell-index
    /// `range` of its sorted cell list. Replay happens only from a
    /// manifest of the same generation (seed + scenario — the plan hash
    /// may differ, a superset archive serves a subset plan with pruning)
    /// that covers every cell of the range; anything else, a corrupt
    /// manifest included, is regenerated and spilled the way `mode` says.
    fn resolve(
        ctx: &Context,
        plan: EnginePlan,
        range: std::ops::Range<usize>,
        mode: ArchiveMode,
    ) -> Result<Pass, StoreError> {
        let EnginePlan {
            trace,
            subs,
            wire,
            archive,
            chaos,
            scope: _,
        } = plan;
        let mut cells = trace.cells();
        cells.truncate(range.end);
        cells.drain(..range.start.min(cells.len()));
        let plan_hash = trace.plan_hash();
        let mut pass = Pass {
            subs,
            cells,
            cells_demanded: trace.cells_demanded(),
            plan_hash,
            // Wire mode: each cell's flows cross the export → transport →
            // collect plane before fan-out. The plane is per-cell seeded,
            // so the delivered batch is the same whichever worker
            // processes the cell.
            plane: wire.map(CollectionPlane::new),
            supervisor: Supervisor::new(chaos),
            store_metrics: None,
            reader: None,
            writer: None,
            adopted: BTreeMap::new(),
        };
        let Some(dir) = archive else {
            return Ok(pass);
        };
        let metrics = StoreMetrics::new();
        let key = StoreKey {
            seed: ctx.config.seed,
            scenario_hash: ctx.scenario_hash(),
            plan_hash,
        };
        let opened = match ArchiveReader::open(&dir, Arc::clone(&metrics)) {
            Ok(r) => r,
            // An archive to rebuild, not a failed pass: `create` deletes
            // the manifest, `create_or_resume` counts it as rejected.
            Err(StoreError::Corrupt { .. } | StoreError::Version { .. }) => None,
            Err(e) => return Err(e),
        };
        match (opened, mode) {
            (Some(r), _) if r.key().same_generation(&key) && r.covers(pass.cells.iter()) => {
                // A warm pass reads exactly its own (distinct, covered)
                // cells, so every other segment is pruned — counted once.
                let pruned = r.segment_count() - pass.cells.len();
                metrics.segments_pruned.add(pruned as u64);
                pass.reader = Some(r);
            }
            (_, ArchiveMode::Own) => {
                pass.writer = Some(ArchiveWriter::create(&dir, key, Arc::clone(&metrics))?);
            }
            (_, ArchiveMode::OwnResumable) => {
                let (w, a) = ArchiveWriter::create_or_resume(&dir, key, Arc::clone(&metrics))?;
                pass.writer = Some(w);
                pass.adopted = a;
            }
            (_, ArchiveMode::Attach) => {
                pass.writer = Some(ArchiveWriter::attach(&dir, key, Arc::clone(&metrics))?);
            }
        }
        pass.store_metrics = Some(metrics);
        Ok(pass)
    }

    /// The per-cell executor over this pass's state.
    fn runner<'a>(&'a self, ctx: &'a Context) -> CellRunner<'a> {
        CellRunner {
            emitter: TraceEmitter::with_scenario(
                &ctx.registry,
                &ctx.corpus,
                ctx.config,
                &ctx.scenario,
            ),
            reader: self.reader.as_ref(),
            writer: self.writer.as_ref(),
            adopted: &self.adopted,
            plane: self.plane.as_ref(),
            supervisor: &self.supervisor,
            store_metrics: self.store_metrics.as_ref(),
            subs: &self.subs,
        }
    }

    /// End a pass: publish or checkpoint the archive, attribute
    /// quarantined cells to the figures they starve, and assemble the
    /// output. A complete pass publishes the manifest; a degraded pass
    /// (any quarantined cell) must not claim completeness, so it
    /// checkpoints the journal instead, leaving the archive resumable. A
    /// pass that failed on the archive itself never gets here and leaves
    /// it manifest-less (= absent).
    fn conclude(
        self,
        consumers: Vec<Box<dyn AnyConsumer>>,
        tallies: Tallies,
        mut quarantined: Vec<QuarantinedCell>,
        workers: usize,
    ) -> Result<EngineOutput, StoreError> {
        quarantined.sort_by_key(|q| q.cell);
        if let Some(w) = &self.writer {
            if quarantined.is_empty() {
                w.finish()?;
            } else {
                w.checkpoint()?;
            }
        }
        let supervisor_metrics = self.supervisor.metrics();
        supervisor_metrics
            .quarantined_cells
            .set_max(quarantined.len() as u64);
        supervisor_metrics.resumed_cells.set_max(tallies.resumed);
        let retries = supervisor_metrics.retries.get();
        let stats = EngineStats {
            demands: consumers.len(),
            cells_demanded: self.cells_demanded,
            cells_generated: tallies.generated,
            cells_replayed: tallies.replayed,
            cells_resumed: tallies.resumed,
            cells_quarantined: quarantined.len() as u64,
            retries,
            flows_emitted: tallies.flows,
            workers,
        };
        let degraded = (!quarantined.is_empty()).then(|| {
            let mut affected: BTreeMap<&str, u64> = BTreeMap::new();
            for q in &quarantined {
                let labels: BTreeSet<&str> = self
                    .subs
                    .iter()
                    .filter(|sub| sub.covers(q.cell))
                    .map(|sub| sub.label.as_deref().unwrap_or("unlabeled"))
                    .collect();
                for label in labels {
                    *affected.entry(label).or_default() += 1;
                }
            }
            DegradedReport {
                affected: affected
                    .into_iter()
                    .map(|(label, n)| (label.to_string(), n))
                    .collect(),
                quarantined,
                retries,
            }
        });
        Ok(EngineOutput {
            stats,
            consumers: consumers.into_iter().map(Some).collect(),
            audit: self.plane.as_ref().map(|p| p.audit_report()),
            wire_metrics: self.plane.map(|p| p.metrics()),
            store_metrics: self.store_metrics,
            supervisor_metrics,
            degraded,
        })
    }
}

/// Run a plan with an explicit worker count, surfacing archive errors:
/// resolve the archive (adopting an interrupted predecessor's journal),
/// let the workers claim the sorted cell list between them, merge their
/// consumers in worker order, conclude. Output is bit-identical for any
/// count (see module docs) and for warm vs. cold archive passes
/// (`tests/equivalence.rs`).
pub fn run_with_workers(
    ctx: &Context,
    plan: EnginePlan,
    workers: usize,
) -> Result<EngineOutput, StoreError> {
    let pass = Pass::resolve(ctx, plan, 0..usize::MAX, ArchiveMode::OwnResumable)?;
    let workers = workers.max(1).min(pass.cells.len().max(1));
    let partial = pass.runner(ctx).run(&pass.cells, workers);
    let quarantined = pass.supervisor.quarantined();
    pass.conclude(partial.consumers, partial.tallies, quarantined, workers)
}

/// The cell source a fetched pass is assembled from.
pub type Fetch<'a> = dyn FnMut(Cell) -> Result<Arc<Vec<FlowRecord>>, StoreError> + 'a;

/// Run a plan over cells the *caller* supplies: pull every distinct cell
/// once through `fetch`, fan each batch out to the covering subscriptions,
/// and hand back the redeemable output (every cell counts as replayed).
/// This is the serving path's pass — `fetch` is whatever read layer the
/// caller owns — so the plan's own wire and archive options must be
/// unset.
pub fn run_fetched(
    ctx: &Context,
    plan: EnginePlan,
    fetch: &mut Fetch<'_>,
) -> Result<EngineOutput, StoreError> {
    assert!(
        plan.wire.is_none() && plan.archive.is_none(),
        "a fetched pass reads only through its fetch"
    );
    let pass = Pass::resolve(ctx, plan, 0..usize::MAX, ArchiveMode::Own)?;
    let mut consumers = fresh_consumers(&pass.subs);
    let mut tallies = Tallies::default();
    for &cell in &pass.cells {
        let records = fetch(cell)?;
        tallies.replayed += 1;
        tallies.flows += records.len() as u64;
        fan_out(&pass.subs, &mut consumers, cell, &records);
    }
    pass.conclude(consumers, tallies, Vec::new(), 1)
}

/// Everything one shard worker hands back after running a cell-index
/// slice of a plan: serialized consumer states, cell accounting, the
/// archive segment inventory it spilled, and any quarantined cells.
#[derive(Debug, Default)]
pub struct SliceOutcome {
    /// One encoded state frame per subscription, in subscription order
    /// (consumers whose windows miss the slice still contribute an empty
    /// state — merging it is the identity).
    pub states: Vec<Vec<u8>>,
    /// Flow records fanned out across the slice's cells.
    pub flows: u64,
    /// Distinct cells generated.
    pub generated: u64,
    /// Distinct cells replayed from the archive.
    pub replayed: u64,
    /// Of the replayed cells, how many came from journal adoption.
    pub resumed: u64,
    /// Cell attempts beyond the first.
    pub retries: u64,
    /// Segments this slice spilled (cold archived slices only); the
    /// coordinator adopts these into the one published manifest.
    pub segments: Vec<SegmentMeta>,
    /// Cells the slice's supervisor quarantined.
    pub quarantined: Vec<QuarantinedCell>,
}

/// Run one cell-index slice `[range.start, range.end)` of a plan's sorted
/// cell list — the shard worker's half of a coordinated pass. Semantics
/// match [`run_with_workers`] except:
///
/// * only the slice's cells execute, with this thread the one claimant
///   (worker *processes* are the parallelism, so a second thread pool
///   inside each would fight the scheduler);
/// * the archive is resolved against the slice alone, and a cold slice
///   spills through [`ArchiveWriter::attach`] — packs of its own, never
///   the manifest or journal, which belong to the coordinator;
/// * nothing is published: the consumers come back as codec frames for
///   [`ShardAssembler::absorb`] to merge.
///
/// The plan must be built identically on both sides (guarded by the plan
/// hash in the shard protocol); wire mode does not cross the shard
/// boundary.
pub fn run_slice(
    ctx: &Context,
    plan: EnginePlan,
    range: std::ops::Range<usize>,
) -> Result<SliceOutcome, StoreError> {
    assert!(
        plan.wire.is_none(),
        "wire mode does not cross the shard boundary"
    );
    let pass = Pass::resolve(ctx, plan, range, ArchiveMode::Attach)?;
    let partial = pass.runner(ctx).run(&pass.cells, 1);
    Ok(SliceOutcome {
        states: partial
            .consumers
            .iter()
            .map(|c| c.encode_state_frame())
            .collect(),
        flows: partial.tallies.flows,
        generated: partial.tallies.generated,
        replayed: partial.tallies.replayed,
        resumed: partial.tallies.resumed,
        retries: pass.supervisor.metrics().retries.get(),
        segments: pass.writer.as_ref().map(|w| w.metas()).unwrap_or_default(),
        quarantined: pass.supervisor.quarantined(),
    })
}

/// The shard coordinator's merge half: owns the archive index, merges
/// worker [`SliceOutcome`]s through the consumer-state codec, and
/// produces an [`EngineOutput`] indistinguishable from a single-process
/// [`run_with_workers`] pass over the same plan.
///
/// Construction resolves the archive (warm manifest kept, anything else
/// invalidated) *before* any worker opens it, so every worker sees a
/// consistent warm/cold decision.
pub struct ShardAssembler {
    pass: Pass,
    merged: Vec<Box<dyn AnyConsumer>>,
    tallies: Tallies,
    quarantined: Vec<QuarantinedCell>,
}

impl ShardAssembler {
    /// Prepare a coordinated pass: build the merge targets and resolve
    /// the archive. Wire mode is not supported across the shard boundary.
    pub fn new(ctx: &Context, plan: EnginePlan) -> Result<ShardAssembler, StoreError> {
        assert!(
            plan.wire.is_none(),
            "wire mode does not cross the shard boundary"
        );
        // The coordinator invalidates rather than resumes: workers spill
        // fresh segments for it to adopt.
        let pass = Pass::resolve(ctx, plan, 0..usize::MAX, ArchiveMode::Own)?;
        Ok(ShardAssembler {
            merged: fresh_consumers(&pass.subs),
            pass,
            tallies: Tallies::default(),
            quarantined: Vec::new(),
        })
    }

    /// Fingerprint of the deduplicated cell plan; workers echo it back so
    /// an assignment can never run against a differently built plan.
    pub fn plan_hash(&self) -> u64 {
        self.pass.plan_hash
    }

    /// Number of cells in the sorted plan (the assignment index space).
    pub fn cell_count(&self) -> usize {
        self.pass.cells.len()
    }

    /// Whether the pass replays a warm archive (workers decode segments
    /// instead of generating, and no segments come back to adopt).
    pub fn is_warm(&self) -> bool {
        self.pass.reader.is_some()
    }

    /// Merge one worker's slice into the coordinator state: consumer
    /// frames through the codec, tallies additively, segments adopted
    /// into the pending manifest. A frame that fails to decode is
    /// surfaced as archive-grade corruption — the slice must be re-run,
    /// not silently dropped.
    pub fn absorb(&mut self, outcome: SliceOutcome) -> Result<(), StoreError> {
        if outcome.states.len() != self.merged.len() {
            return Err(StoreError::Corrupt {
                segment: "consumer state".to_string(),
                detail: format!(
                    "worker returned {} states for {} subscriptions",
                    outcome.states.len(),
                    self.merged.len()
                ),
            });
        }
        for (consumer, frame) in self.merged.iter_mut().zip(&outcome.states) {
            consumer
                .merge_state_frame(frame)
                .map_err(|e| StoreError::Corrupt {
                    segment: "consumer state".to_string(),
                    detail: e.to_string(),
                })?;
        }
        self.tallies.add(Tallies {
            flows: outcome.flows,
            generated: outcome.generated,
            replayed: outcome.replayed,
            resumed: outcome.resumed,
        });
        self.pass.supervisor.metrics().retries.add(outcome.retries);
        if let Some(w) = &self.pass.writer {
            for meta in outcome.segments {
                w.adopt(meta)?;
            }
        }
        self.quarantined.extend(outcome.quarantined);
        Ok(())
    }

    /// Quarantine a whole assignment range: every replica of these cells
    /// died. The archive must not claim any of them, and each cell is
    /// reported exactly like a supervisor quarantine.
    pub fn quarantine_range(&mut self, range: std::ops::Range<usize>, attempts: u32, error: &str) {
        let cells = &self.pass.cells;
        let start = range.start.min(cells.len());
        let end = range.end.min(cells.len()).max(start);
        for &cell in &cells[start..end] {
            if let Some(w) = &self.pass.writer {
                w.remove(cell);
            }
            self.quarantined.push(QuarantinedCell {
                cell,
                attempts,
                error: error.to_string(),
            });
        }
    }

    /// Publish and assemble: manifest on a clean pass, resumable journal
    /// on a degraded one, and an [`EngineOutput`] carrying the merged
    /// consumers, the combined stats and the degraded-mode report.
    /// `workers` is recorded in the stats (worker processes, not threads).
    pub fn finish(self, workers: usize) -> Result<EngineOutput, StoreError> {
        self.pass
            .conclude(self.merged, self.tallies, self.quarantined, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use lockdown_analysis::timeseries::HourlyVolume;
    use lockdown_topology::vantage::VantagePoint;

    #[test]
    fn overlapping_subscriptions_share_cells() {
        let ctx = Context::with_seed(Fidelity::Test, 3);
        let mut plan = EnginePlan::new();
        let vp = VantagePoint::IxpSe;
        let d1 = Date::new(2020, 2, 3);
        let d2 = Date::new(2020, 2, 6);
        let a = plan.subscribe(Stream::Vantage(vp), d1, d2, HourlyVolume::new);
        let b = plan.subscribe(Stream::Vantage(vp), d1, d1, HourlyVolume::new);
        let mut out = run_with_workers(&ctx, plan, 2).expect("archive-free pass cannot fail");
        let stats = out.stats();
        // 4 + 1 days demanded, 4 distinct days generated.
        assert_eq!(stats.cells_demanded, 5 * 24);
        assert_eq!(stats.cells_generated, 4 * 24);
        let full = out.take(a);
        let first_day = out.take(b);
        assert_eq!(full.daily_total(d1), first_day.daily_total(d1));
        assert!(first_day.daily_total(d2) == 0, "window gates fan-out");
    }

    #[test]
    fn sharded_slices_match_single_process() {
        let ctx = Context::with_seed(Fidelity::Test, 9);
        let d1 = Date::new(2020, 3, 9);
        let d2 = Date::new(2020, 3, 12);
        let build = |plan: &mut EnginePlan| {
            plan.subscribe(
                Stream::Vantage(VantagePoint::IxpSe),
                d1,
                d2,
                HourlyVolume::new,
            )
        };
        let mut plan = EnginePlan::new();
        let h = build(&mut plan);
        let mut reference = run_with_workers(&ctx, plan, 1).expect("archive-free pass cannot fail");
        let series = reference.take(h).hourly_series(d1, d2);

        // Three disjoint slices, each run through its own plan instance
        // (as worker processes would), absorbed out of order.
        let mut coord_plan = EnginePlan::new();
        let ch = build(&mut coord_plan);
        let mut asm = ShardAssembler::new(&ctx, coord_plan).expect("assembler");
        let n = asm.cell_count();
        assert_eq!(n, 4 * 24);
        let cuts = [0, n / 3, 2 * n / 3, n];
        let mut outcomes = Vec::new();
        for w in 0..3 {
            let mut p = EnginePlan::new();
            build(&mut p);
            outcomes.push(run_slice(&ctx, p, cuts[w]..cuts[w + 1]).expect("slice"));
        }
        outcomes.rotate_left(1);
        for o in outcomes {
            asm.absorb(o).expect("absorb");
        }
        let mut merged = asm.finish(3).expect("finish");
        assert_eq!(merged.stats().cells_generated, (4 * 24) as u64);
        assert!(merged.degraded().is_none());
        assert_eq!(merged.take(ch).hourly_series(d1, d2), series);
    }

    #[test]
    fn quarantined_ranges_degrade_the_assembled_pass() {
        let ctx = Context::with_seed(Fidelity::Test, 9);
        let d = Date::new(2020, 3, 9);
        let mut plan = EnginePlan::new();
        plan.scoped("fig-x", |p| {
            p.subscribe(
                Stream::Vantage(VantagePoint::IxpSe),
                d,
                d,
                HourlyVolume::new,
            )
        });
        let mut asm = ShardAssembler::new(&ctx, plan).expect("assembler");
        asm.quarantine_range(0..2, 3, "worker died (test)");
        let out = asm.finish(2).expect("finish");
        let report = out.degraded().expect("degraded");
        assert_eq!(report.quarantined.len(), 2);
        assert_eq!(report.affected, vec![("fig-x".to_string(), 2)]);
        assert!(report
            .render()
            .contains("DEGRADED PASS: 2 cells quarantined"));
    }

    #[test]
    fn seeded_chaos_degrades_identically_at_any_worker_count() {
        let ctx = Context::with_seed(Fidelity::Test, 11);
        let (d1, d2) = (Date::new(2020, 3, 2), Date::new(2020, 3, 4));
        let degraded = |workers: usize| {
            let mut plan = EnginePlan::new();
            plan.with_chaos(ChaosConfig {
                seed: 0xC4A05,
                panic: 0.5,
                attempts: 2,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
                ..ChaosConfig::zero()
            });
            let h = plan.scoped("fig-x", |p| {
                p.subscribe(
                    Stream::Vantage(VantagePoint::IxpSe),
                    d1,
                    d2,
                    HourlyVolume::new,
                )
            });
            let mut out = run_with_workers(&ctx, plan, workers).expect("archive-free pass");
            let report = out.degraded().expect("half the attempts panic").clone();
            (
                report,
                out.stats().flows_emitted,
                out.take(h).hourly_series(d1, d2),
            )
        };
        let single = degraded(1);
        assert!(!single.0.quarantined.is_empty() && single.0.retries > 0);
        assert_eq!(single, degraded(4));
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let ctx = Context::with_seed(Fidelity::Test, 5);
        let d1 = Date::new(2020, 3, 1);
        let d2 = Date::new(2020, 3, 4);
        let mut reference: Option<Vec<(lockdown_flow::time::Timestamp, u64)>> = None;
        for workers in [1usize, 2, 3, 8] {
            let mut plan = EnginePlan::new();
            let h = plan.subscribe(
                Stream::Vantage(VantagePoint::IspCe),
                d1,
                d2,
                HourlyVolume::new,
            );
            let mut out =
                run_with_workers(&ctx, plan, workers).expect("archive-free pass cannot fail");
            let series = out.take(h).hourly_series(d1, d2);
            match &reference {
                None => reference = Some(series),
                Some(r) => assert_eq!(r, &series, "workers={workers}"),
            }
        }
    }
}
