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
//! Scheduling and determinism: a pass is one work queue of [`Claim`]s —
//! a range of the sorted cell list and an attempt number — and one
//! driver that hands them to [`Link`]s. A link is a thread of this
//! process or a worker process behind a socket (`lockdown_shard`), and
//! the driver treats both alike: a claim a link did not finish goes back
//! on the queue with its attempt + 1, a lost link is retired, and a claim
//! whose attempts are spent is quarantined. A thread link's claim is a
//! day of one stream (at most `RUN_CELLS`, 24, consecutive cells), so
//! each thread stays busy until the queue runs dry however unevenly the
//! flows are spread over it (the first half of the suite's cells carries
//! 78% of its flows), and a warm pass reads each claimed day with one
//! positioned read per day pack. Each cell of a claim is still run,
//! supervised and fanned out on its own, into the link's one consumer
//! column. Every partial — another thread's column, encoded once when
//! the pass ends, or a worker process's slice — merges through the one
//! consumer-state codec ([`FlowConsumer::merge_state`], every consumer's
//! one merge) into the first thread's column, so a one-thread pass
//! encodes nothing.
//!
//! A cell has one way in and one way out. In: a cell the pass's archive
//! reader names (a warm pass's manifest, or what a resuming pass adopted)
//! is decoded from its claim's day-pack read; any other is generated.
//! Out: its flows, its fate (retries, quarantine) and its wire audit go
//! into the link's column, so a pass's end reads them from the merged one.
//!
//! Which link ends up with which cells differs from run to run, and the
//! output does not: cells are independently seeded, so a cell's flows are
//! the same on any link; each cell is run to completion exactly once; and
//! every consumer's codec merge is commutative and associative over
//! disjoint cell sets, so the merged result depends only on the set of
//! cells. It is therefore bit-identical for any worker count, any claim
//! order and either kind of link, and identical to the old per-figure
//! regeneration. `tests/determinism.rs` and `tests/equivalence.rs` assert
//! it.

use crate::context::Context;
use crate::supervisor::{
    isolate, AttemptError, DegradedReport, QuarantinedCell, Supervisor, SupervisorMetrics,
};
use lockdown_analysis::codec::{encode_frame, merge_frame};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_base::fault::{FaultProfile, WriteFault};
use lockdown_collect::audit::{CellKey, Ledger};
use lockdown_collect::{CollectMetrics, CollectionPlane, WireConfig};
use lockdown_flow::record::{hour_runs, FlowRecord};
use lockdown_flow::time::Date;
use lockdown_store::{
    ArchiveReader, ArchiveWriter, SegmentMeta, SegmentRun, SpillFault, StoreError, StoreKey,
    StoreMetrics,
};
use lockdown_traffic::plan::{Cell, Stream, TraceEmitter, TracePlan};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// One subscription's consumer in a link's column. Its state leaves the
/// column only as a codec frame; [`EngineOutput::take`] downcasts it.
type Boxed = Box<dyn FlowConsumer + Send>;

struct Subscription {
    stream: Stream,
    start: Date,
    end: Date,
    /// Figure label from [`EnginePlan::scoped`]; attributes quarantined
    /// cells to the figures they starve in the degraded-mode report.
    label: Option<String>,
    factory: Box<dyn Fn() -> Boxed + Send + Sync>,
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
    chaos: FaultProfile,
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
    /// default, [`FaultProfile::zero`], injects nothing.
    pub fn with_chaos(&mut self, cfg: FaultProfile) -> &mut EnginePlan {
        self.chaos = cfg;
        self
    }

    /// Run `f` with every subscription it records labeled `label` (the
    /// figure being planned). Labels drive the degraded-mode report's
    /// "affected figures" attribution; unlabeled subscriptions are
    /// reported under `unlabeled`.
    pub(crate) fn scoped<R>(&mut self, label: &str, f: impl FnOnce(&mut EnginePlan) -> R) -> R {
        let prev = self.scope.replace(label.to_string());
        let out = f(self);
        self.scope = prev;
        out
    }

    /// Subscribe a consumer to an inclusive date window of one stream.
    /// `factory` builds one fresh consumer per link column; partials merge
    /// through the consumer-state codec after the pass.
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
            factory: Box::new(move || Box::new(factory())),
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
    pub(crate) fn plan_hash(&self) -> u64 {
        self.trace.plan_hash()
    }

    /// Every distinct cell the plan demands, ordered by
    /// `(stream, date, hour)` — the shard assignment index space.
    pub(crate) fn cells(&self) -> Vec<Cell> {
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
    /// Links the pass ran on: threads, or a coordinated pass's worker
    /// processes.
    pub workers: usize,
}

impl EngineStats {
    /// How many times over per-figure regeneration would have re-made the
    /// average cell.
    pub(crate) fn dedup_ratio(&self) -> f64 {
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

/// Merged consumer states of one engine pass, redeemable by [`Demand`].
pub struct EngineOutput {
    consumers: Vec<Option<Boxed>>,
    stats: EngineStats,
    wire_metrics: Option<Arc<CollectMetrics>>,
    audit: Option<lockdown_collect::audit::Report>,
    store_metrics: Option<Arc<StoreMetrics>>,
    supervisor_metrics: Arc<SupervisorMetrics>,
    degraded: Option<DegradedReport>,
}

impl EngineOutput {
    /// Take the merged consumer of one subscription (each demand can be
    /// taken once). Panics on misuse: a demand taken twice, or redeemed
    /// as another consumer type.
    pub fn take<C: FlowConsumer + Send + 'static>(&mut self, demand: Demand<C>) -> C {
        let fail = |why: &str| -> ! { panic!("engine demand redemption failed: {why}") };
        let boxed: Box<dyn Any + Send> = match self.consumers.get_mut(demand.idx) {
            Some(slot) => slot
                .take()
                .unwrap_or_else(|| fail("demand already taken from this engine output")),
            None => fail("demand type does not match its subscription"),
        };
        *boxed
            .downcast::<C>()
            .unwrap_or_else(|_| fail("demand type does not match its subscription"))
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
    pub fn audit(&self) -> Option<&lockdown_collect::audit::Report> {
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
pub(crate) fn run_standalone<H, T>(
    ctx: &Context,
    plan: impl FnOnce(&mut EnginePlan) -> H,
    finish: impl FnOnce(H, &mut EngineOutput) -> T,
) -> T {
    let mut eplan = EnginePlan::new();
    let handles = plan(&mut eplan);
    let mut out = run(ctx, eplan).expect("archive-free engine pass cannot fail");
    finish(handles, &mut out)
}

/// One link's consumers, one per subscription, and the counts and fates
/// of the cells it ran (`counts.states` stays empty until
/// [`Column::encode`]).
struct Column {
    consumers: Vec<Boxed>,
    counts: SliceOutcome,
}

impl Column {
    /// One fresh consumer per subscription, in subscription order.
    fn new(subs: &[Subscription]) -> Column {
        Column {
            consumers: subs.iter().map(|s| (s.factory)()).collect(),
            counts: SliceOutcome::default(),
        }
    }

    /// Close the column: every consumer's state as one codec frame.
    fn encode(self) -> SliceOutcome {
        SliceOutcome {
            states: self
                .consumers
                .iter()
                .map(|c| encode_frame(c.as_ref()))
                .collect(),
            ..self.counts
        }
    }

    /// The one merge: fold a closed partial — another thread's column or
    /// a worker process's slice — into this column through the codec. A
    /// frame that fails to decode is archive-grade corruption: the
    /// partial must be re-run, not silently dropped.
    fn absorb(&mut self, partial: SliceOutcome) -> Result<(), StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            segment: "consumer state".to_string(),
            detail,
        };
        if partial.states.len() != self.consumers.len() {
            return Err(corrupt(format!(
                "a partial holds {} states for {} subscriptions",
                partial.states.len(),
                self.consumers.len()
            )));
        }
        for (consumer, frame) in self.consumers.iter_mut().zip(&partial.states) {
            merge_frame(consumer.as_mut(), frame).map_err(|e| corrupt(e.to_string()))?;
        }
        let counts = &mut self.counts;
        counts.flows += partial.flows;
        counts.generated += partial.generated;
        counts.replayed += partial.replayed;
        counts.resumed += partial.resumed;
        counts.retries += partial.retries;
        counts.segments.extend(partial.segments);
        counts.quarantined.extend(partial.quarantined);
        counts.ledger.absorb(partial.ledger);
        Ok(())
    }
}

/// Hand one cell's batch to every subscription whose window covers it.
/// The batch is split into hour runs once, and each covering consumer
/// observes every run, so a run's boundaries, calendar facts and byte sum
/// are found once per cell rather than once per subscription.
fn fan_out(subs: &[Subscription], consumers: &mut [Boxed], cell: Cell, batch: &[FlowRecord]) {
    for run in hour_runs(batch) {
        for (sub, consumer) in subs.iter().zip(consumers.iter_mut()) {
            if sub.covers(cell) {
                consumer.observe_run(&run);
            }
        }
    }
}

/// Most cells one claim covers: a whole day of one stream, the cells one
/// day pack holds. Plans are whole days, so every claim is one.
const RUN_CELLS: usize = 24;

/// A claimed cell's place in its run: the run's segments, read ahead on a
/// warm pass, and the cell's index among them.
#[derive(Clone, Copy)]
struct Slot<'r> {
    segments: &'r SegmentRun,
    index: usize,
}

/// Everything one engine pass shares across its thread links to execute
/// a cell: generation, replay, the wire plane and the supervisor. Every
/// cell a pass generates or replays, on a thread of this process or of a
/// worker process, runs through [`CellRunner::process`], so supervised
/// semantics cannot drift between worker counts or between threads and
/// worker processes.
struct CellRunner<'a> {
    emitter: TraceEmitter<'a>,
    reader: Option<&'a ArchiveReader>,
    writer: Option<&'a ArchiveWriter>,
    plane: Option<&'a CollectionPlane>,
    supervisor: &'a Supervisor,
    subs: &'a [Subscription],
}

impl CellRunner<'_> {
    /// One attempt; `Ok(true)` when it replayed the cell, `Ok(false)` when
    /// it generated it. Every injected failure point precedes the cell's
    /// wire processing and ledger posts, so a retried attempt leaves no
    /// partial side effects behind.
    fn fill_attempt(
        &self,
        cell: Cell,
        slot: Slot<'_>,
        attempt: u32,
        force_generate: bool,
        buf: &mut Vec<FlowRecord>,
    ) -> Result<bool, AttemptError> {
        let sup = self.supervisor;
        let chaos = sup.decide(cell, attempt);
        if chaos.panic {
            std::panic::panic_any(sup.injected_panic(cell, attempt));
        }
        let replayed = 'fill: {
            if let Some(r) = self.reader.filter(|_| !force_generate) {
                // Replay from the claim's read. A cell the index does not
                // name is generated; a segment that is unreadable or
                // corrupt is regenerated inline.
                match r.decode_run(slot.segments, slot.index, buf) {
                    Ok(true) => break 'fill true,
                    Ok(false) => {}
                    Err(_) => sup.metrics().replay_corruptions.inc(),
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
            false
        };
        if chaos.stall && self.plane.is_some() {
            // The exporter fleet timed out before delivering anything:
            // the attempt is abandoned before any conservation post.
            sup.metrics().stalls.inc();
            return Err(AttemptError::Stall);
        }
        Ok(replayed)
    }

    /// The attempt loop: catch panics, back off, retry, and quarantine
    /// once the budget is spent. A cell's retries and its quarantine are
    /// written into the link's `counts`, its one ledger. Returns whether
    /// the cell was replayed, `None` when it was quarantined.
    fn fill(
        &self,
        cell: Cell,
        slot: Slot<'_>,
        buf: &mut Vec<FlowRecord>,
        counts: &mut SliceOutcome,
    ) -> Option<bool> {
        let sup = self.supervisor;
        let budget = sup.attempts();
        let mut force_generate = false;
        let mut last_error = String::new();
        for attempt in 1..=budget {
            if attempt > 1 {
                sup.backoff(cell, attempt - 1);
                counts.retries += 1;
            }
            let err = match isolate(|| self.fill_attempt(cell, slot, attempt, force_generate, buf))
            {
                Ok(Ok(replayed)) => return Some(replayed),
                Ok(Err(e)) => e,
                Err(message) => {
                    sup.metrics().panics_caught.inc();
                    AttemptError::Panic(message)
                }
            };
            // Whatever the failure left behind (a torn range, a half
            // filled buffer), the next attempt regenerates from scratch
            // rather than trusting on-disk state.
            force_generate = true;
            last_error = err.render();
        }
        // Budget exhausted: quarantine. The archive must not claim the
        // cell, and `Pass::conclude` marks it in the audit ledger.
        if let Some(w) = self.writer {
            w.remove(cell);
        }
        counts.quarantined.push(QuarantinedCell {
            cell,
            attempts: budget,
            error: last_error,
        });
        None
    }

    /// Run one cell end to end: fill, wire processing (its ledger entry
    /// goes into `column`), and fan-out into `column`. Quarantined cells
    /// skip everything downstream.
    fn process(&self, cell: Cell, slot: Slot<'_>, buf: &mut Vec<FlowRecord>, column: &mut Column) {
        let counts = &mut column.counts;
        let Some(replayed) = self.fill(cell, slot, buf, counts) else {
            return;
        };
        counts.generated += u64::from(!replayed);
        counts.replayed += u64::from(replayed);
        // A pass that replays beside a writer is resuming.
        counts.resumed += u64::from(replayed && self.writer.is_some());
        counts.flows += buf.len() as u64;
        let wired;
        let batch: &[FlowRecord] = match self.plane {
            Some(pl) => {
                wired = pl.process_audited(cell, buf, &mut counts.ledger);
                &wired
            }
            None => buf,
        };
        fan_out(self.subs, &mut column.consumers, cell, batch);
    }
}

/// A claim on a link: cells `start..end` of a pass's sorted cell list, on
/// its `attempt` (0 the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// First cell index.
    pub start: u32,
    /// One past the last cell index.
    pub end: u32,
    /// Attempts this claim has had before this one.
    pub attempt: u32,
}

/// Why a link did not finish a claim. Either way the claim is charged
/// the attempt: it goes back on the queue, or is quarantined once its
/// attempts are spent.
#[derive(Debug)]
pub enum LinkFault {
    /// The claim failed on a healthy link, which stays in rotation.
    Failed(String),
    /// The link is gone, and the driver retires it.
    Lost(String),
}

/// What runs a pass's claims for the driver: a thread of this process, or
/// a worker process behind a socket.
pub trait Link: Send {
    /// Run one claim. A thread link runs it into its own column and
    /// answers `None`; a process link answers with the slice the worker
    /// sent back.
    fn run(&mut self, claim: Claim) -> Result<Option<SliceOutcome>, LinkFault>;
}

/// A thread of this process as a link: it runs each claim, a day run,
/// cell by cell into its own column, reading a warm run's segments at once.
struct ThreadLink<'p> {
    runner: &'p CellRunner<'p>,
    cells: &'p [Cell],
    column: Column,
    buf: Vec<FlowRecord>,
    segments: SegmentRun,
}

impl Link for ThreadLink<'_> {
    fn run(&mut self, claim: Claim) -> Result<Option<SliceOutcome>, LinkFault> {
        let run = &self.cells[claim.start as usize..claim.end as usize];
        if let Some(r) = self.runner.reader {
            r.read_run(run, &mut self.segments);
        }
        for (index, &cell) in run.iter().enumerate() {
            let slot = Slot {
                segments: &self.segments,
                index,
            };
            self.runner
                .process(cell, slot, &mut self.buf, &mut self.column);
        }
        // The supervisor retries or quarantines a failing cell, so a
        // thread link finishes every claim.
        Ok(None)
    }
}

/// What a pass over process links did, beyond its output: the driver
/// counts the links, claims and their fates, and the links' owner (the
/// shard coordinator) adds what its links did on the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveStats {
    /// Worker processes (links) at the start of the pass.
    pub workers: usize,
    /// Ranges (first claims) the plan was split into.
    pub chunks: u32,
    /// Claims handed to a link: first attempts and retries.
    pub assignments: u32,
    /// Claims put back on the queue after a failure or a lost link.
    pub reassignments: u32,
    /// Links retired as lost.
    pub workers_lost: u32,
    /// Claims quarantined: their attempts, or the live links, ran out.
    pub quarantined_ranges: u32,
    /// Successful redial-and-rehandshake recoveries after wire failures.
    pub reconnects: u32,
    /// Ranges re-adopted from a reconnected worker's retained inventory
    /// — completed work that a wire failure did *not* force us to redo.
    pub ranges_resumed: u32,
}

impl DriveStats {
    /// One-line summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "coordinated {} workers: {} ranges, {} assignments, {} reassigned, \
             {} workers lost, {} ranges quarantined, {} reconnects, {} ranges resumed",
            self.workers,
            self.chunks,
            self.assignments,
            self.reassignments,
            self.workers_lost,
            self.quarantined_ranges,
            self.reconnects,
            self.ranges_resumed
        )
    }
}

/// The work queue the links of one pass share.
struct Queue {
    /// Claims waiting for a link.
    claims: VecDeque<Claim>,
    /// Claims some link is running.
    in_flight: usize,
    /// Links not yet retired.
    live: usize,
    /// The slices process links sent back.
    done: Vec<SliceOutcome>,
    /// Quarantined claims (`attempt`: the attempts spent) and last errors.
    quarantined: Vec<(Claim, String)>,
    stats: DriveStats,
}

impl Queue {
    /// Put a claim a link did not finish back on the queue with one more
    /// attempt, or quarantine it once its attempts, or the live links,
    /// are spent. With no link left, nothing queued will ever run.
    fn fail(&mut self, claim: Claim, attempts: u32, error: String) {
        let next = Claim {
            attempt: claim.attempt + 1,
            ..claim
        };
        if next.attempt < attempts && self.live > 0 {
            self.claims.push_back(next);
            self.stats.reassignments += 1;
        } else {
            self.quarantined.push((next, error));
            self.stats.quarantined_ranges += 1;
        }
        if self.live == 0 {
            let stranded = self.claims.drain(..);
            self.stats.quarantined_ranges += stranded.len() as u32;
            self.quarantined
                .extend(stranded.map(|claim| (claim, "no live links left".to_string())));
        }
    }
}

/// Takes a claim off the in-flight count however its run ends, an
/// unwinding link included, so no other link waits on it forever.
struct Settle<'q>(&'q Mutex<Queue>, &'q Condvar);

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight -= 1;
        self.1.notify_all();
    }
}

/// The one driver: every link takes the next claim of `ranges` off one
/// queue until the queue is dry and nothing is in flight (a running
/// claim may yet fail and come back). A claim a link did not finish goes
/// back on the queue with its attempt + 1, a lost link is retired, and a
/// claim that has had `attempts` is quarantined. The first link runs on
/// this thread.
fn drive<L: Link>(ranges: &[(u32, u32)], links: &mut [L], attempts: u32) -> Queue {
    let queue = Mutex::new(Queue {
        claims: ranges
            .iter()
            .map(|&(start, end)| Claim {
                start,
                end,
                attempt: 0,
            })
            .collect(),
        in_flight: 0,
        live: links.len(),
        done: Vec::new(),
        quarantined: Vec::new(),
        stats: DriveStats {
            workers: links.len(),
            chunks: ranges.len() as u32,
            ..DriveStats::default()
        },
    });
    let ready = Condvar::new();
    let serve = |link: &mut L| loop {
        let claim = {
            let mut q = queue.lock().expect("work queue lock");
            loop {
                if let Some(claim) = q.claims.pop_front() {
                    q.in_flight += 1;
                    q.stats.assignments += 1;
                    break claim;
                }
                if q.in_flight == 0 {
                    return;
                }
                q = ready.wait(q).expect("work queue lock");
            }
        };
        let settle = Settle(&queue, &ready);
        let result = link.run(claim);
        let lost = matches!(result, Err(LinkFault::Lost(_)));
        let mut q = queue.lock().expect("work queue lock");
        match result {
            Ok(outcome) => q.done.extend(outcome),
            Err(LinkFault::Failed(error)) => q.fail(claim, attempts, error),
            Err(LinkFault::Lost(error)) => {
                q.live -= 1;
                q.stats.workers_lost += 1;
                q.fail(claim, attempts, error);
            }
        }
        drop(q);
        drop(settle);
        if lost {
            return;
        }
    };
    std::thread::scope(|scope| {
        if let Some((first, rest)) = links.split_first_mut() {
            for link in rest {
                scope.spawn(|| serve(link));
            }
            serve(first);
        }
    });
    queue.into_inner().expect("work queue lock")
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

/// A plan with its archive resolved: the state every entry point —
/// [`run_with_workers`], [`run_links`], [`run_range`], [`run_fetched`] —
/// starts from, and the one [`Pass::conclude`] they end in.
struct Pass {
    subs: Vec<Subscription>,
    /// The cells this pass answers for, in plan order: the whole plan, or
    /// a shard worker's range of it.
    cells: Vec<Cell>,
    cells_demanded: u64,
    plane: Option<CollectionPlane>,
    supervisor: Supervisor,
    store_metrics: Option<Arc<StoreMetrics>>,
    /// A warm pass's manifest, or a resuming pass's adopted entries.
    reader: Option<ArchiveReader>,
    writer: Option<ArchiveWriter>,
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
            // Wire mode: each cell's flows cross the export → transport →
            // collect plane before fan-out. The plane is per-cell seeded,
            // so the delivered batch is the same whichever worker
            // processes the cell.
            plane: wire.map(CollectionPlane::new),
            supervisor: Supervisor::new(chaos),
            store_metrics: None,
            reader: None,
            writer: None,
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
                let (w, r) = ArchiveWriter::create_or_resume(&dir, key, Arc::clone(&metrics))?;
                pass.writer = Some(w);
                pass.reader = Some(r);
            }
            (_, ArchiveMode::Attach) => {
                pass.writer = Some(ArchiveWriter::attach(&dir, key, Arc::clone(&metrics))?);
            }
        }
        pass.store_metrics = Some(metrics);
        Ok(pass)
    }

    /// Run this pass's cells over up to `workers` thread links, a claim
    /// per day run of at most `RUN_CELLS` cells, and merge every other
    /// link's column, encoded once, into the first's. Returns the merged
    /// column and the link count.
    fn run_threads(&self, ctx: &Context, workers: usize) -> Result<(Column, usize), StoreError> {
        let workers = workers.max(1).min(self.cells.len().max(1));
        let runner = CellRunner {
            emitter: TraceEmitter::with_scenario(
                &ctx.registry,
                &ctx.corpus,
                ctx.config,
                &ctx.scenario,
            ),
            reader: self.reader.as_ref(),
            writer: self.writer.as_ref(),
            plane: self.plane.as_ref(),
            supervisor: &self.supervisor,
            subs: &self.subs,
        };
        let mut end = 0;
        let runs: Vec<(u32, u32)> = self
            .cells
            .chunk_by(|a, b| (a.stream, a.date) == (b.stream, b.date))
            .flat_map(|day| day.chunks(RUN_CELLS))
            .map(|run| {
                end += run.len() as u32;
                (end - run.len() as u32, end)
            })
            .collect();
        let mut links: Vec<ThreadLink> = (0..workers)
            .map(|_| ThreadLink {
                runner: &runner,
                cells: &self.cells,
                column: Column::new(&self.subs),
                buf: Vec::new(),
                segments: SegmentRun::default(),
            })
            .collect();
        // Thread links finish every claim into their columns.
        drive(&runs, &mut links, self.supervisor.attempts());
        let mut columns = links.into_iter().map(|link| link.column);
        let mut merged = columns
            .next()
            .expect("a pass runs at least one thread link");
        for column in columns {
            merged.absorb(column.encode())?;
        }
        Ok((merged, workers))
    }

    /// End a pass: adopt the segments its process links spilled,
    /// quarantine every cell of a claim the driver gave up on, publish or
    /// checkpoint the archive, attribute quarantined cells to the figures
    /// they starve, and assemble the output. A complete pass publishes
    /// the manifest; a degraded pass (any quarantined cell) must not
    /// claim completeness, so it checkpoints the journal instead, leaving
    /// the archive resumable. A pass that failed on the archive itself
    /// never gets here and leaves it manifest-less (= absent).
    fn conclude(
        self,
        column: Column,
        lost_claims: Vec<(Claim, String)>,
        workers: usize,
    ) -> Result<EngineOutput, StoreError> {
        let Column { consumers, counts } = column;
        let mut quarantined = counts.quarantined;
        if let Some(w) = &self.writer {
            for meta in counts.segments {
                w.adopt(meta)?;
            }
        }
        for (claim, error) in lost_claims {
            for &cell in &self.cells[claim.start as usize..claim.end as usize] {
                if let Some(w) = &self.writer {
                    w.remove(cell);
                }
                quarantined.push(QuarantinedCell {
                    cell,
                    attempts: claim.attempt,
                    error: error.clone(),
                });
            }
        }
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
        supervisor_metrics.resumed_cells.set_max(counts.resumed);
        supervisor_metrics.retries.add(counts.retries);
        // Every quarantined cell, a supervisor's or a lost claim's, is
        // marked once, from the one sorted list, and the pass audited.
        let audit = self.plane.as_ref().map(|pl| {
            let mut ledger = counts.ledger;
            for q in &quarantined {
                ledger.quarantine(CellKey::from(&q.cell));
            }
            let report = ledger.report();
            let m = pl.metrics();
            m.audit_cells.set_max(report.cells);
            m.audit_violations.set_max(report.violations.len() as u64);
            report
        });
        let stats = EngineStats {
            demands: consumers.len(),
            cells_demanded: self.cells_demanded,
            cells_generated: counts.generated,
            cells_replayed: counts.replayed,
            cells_resumed: counts.resumed,
            cells_quarantined: quarantined.len() as u64,
            retries: counts.retries,
            flows_emitted: counts.flows,
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
                retries: counts.retries,
            }
        });
        Ok(EngineOutput {
            stats,
            consumers: consumers.into_iter().map(Some).collect(),
            audit,
            wire_metrics: self.plane.map(|p| p.metrics()),
            store_metrics: self.store_metrics,
            supervisor_metrics,
            degraded,
        })
    }
}

/// Run a plan with an explicit worker count, surfacing archive errors:
/// resolve the archive (adopting an interrupted predecessor's journal),
/// drive the sorted cell list over `workers` thread links, merge their
/// columns through the codec, conclude. Output is bit-identical for any
/// count (see module docs) and for warm vs. cold archive passes
/// (`tests/equivalence.rs`).
pub fn run_with_workers(
    ctx: &Context,
    plan: EnginePlan,
    workers: usize,
) -> Result<EngineOutput, StoreError> {
    let pass = Pass::resolve(ctx, plan, 0..usize::MAX, ArchiveMode::OwnResumable)?;
    let (column, workers) = pass.run_threads(ctx, workers)?;
    pass.conclude(column, Vec::new(), workers)
}

/// Run a plan over links the caller owns — worker processes behind a
/// socket — a claim per range of `ranges`: resolve the archive before any
/// link runs (a stale or partial one is invalidated, and the links spill
/// packs of their own for this pass to adopt), drive, merge every slice
/// through the codec, conclude. `EngineStats::workers` counts the links.
/// Wire mode does not cross a process link.
pub(crate) fn run_links<L: Link>(
    ctx: &Context,
    plan: EnginePlan,
    ranges: &[(u32, u32)],
    links: &mut [L],
) -> Result<(EngineOutput, DriveStats), StoreError> {
    assert!(
        plan.wire.is_none(),
        "wire mode does not cross a process link"
    );
    let pass = Pass::resolve(ctx, plan, 0..usize::MAX, ArchiveMode::Own)?;
    let queue = drive(ranges, links, pass.supervisor.attempts());
    let mut merged = Column::new(&pass.subs);
    for slice in queue.done {
        merged.absorb(slice)?;
    }
    let out = pass.conclude(merged, queue.quarantined, links.len())?;
    Ok((out, queue.stats))
}

/// Run the cells `range` of a plan's sorted cell list as the far end of a
/// process link: one thread link over the range's day runs (worker
/// processes are the parallelism of a coordinated pass), its column
/// encoded once for the coordinator's [`run_links`] to merge. The archive
/// is resolved against the range alone, and a cold range spills through
/// [`ArchiveWriter::attach`] — packs of its own, never the manifest or
/// journal, which belong to the coordinator. The plan must be built
/// identically on both sides (the shard handshake guards the plan hash).
pub(crate) fn run_range(
    ctx: &Context,
    plan: EnginePlan,
    range: std::ops::Range<usize>,
) -> Result<SliceOutcome, StoreError> {
    assert!(
        plan.wire.is_none(),
        "wire mode does not cross a process link"
    );
    let pass = Pass::resolve(ctx, plan, range, ArchiveMode::Attach)?;
    let (column, _) = pass.run_threads(ctx, 1)?;
    Ok(SliceOutcome {
        segments: pass.writer.as_ref().map(|w| w.metas()).unwrap_or_default(),
        ..column.encode()
    })
}

/// The cell source a fetched pass is assembled from.
pub type Fetch<'a> = dyn FnMut(Cell) -> Result<Arc<Vec<FlowRecord>>, StoreError> + 'a;

/// Run a plan over cells the *caller* supplies: pull every distinct cell
/// once through `fetch`, fan each batch out to the covering subscriptions,
/// and hand back the redeemable output (every cell counts as replayed).
/// This is the serving path's pass — `fetch` is whatever read layer the
/// caller owns — so the plan's own wire and archive options must be
/// unset.
pub(crate) fn run_fetched(
    ctx: &Context,
    plan: EnginePlan,
    fetch: &mut Fetch<'_>,
) -> Result<EngineOutput, StoreError> {
    assert!(
        plan.wire.is_none() && plan.archive.is_none(),
        "a fetched pass reads only through its fetch"
    );
    let pass = Pass::resolve(ctx, plan, 0..usize::MAX, ArchiveMode::Own)?;
    let mut column = Column::new(&pass.subs);
    for &cell in &pass.cells {
        let records = fetch(cell)?;
        column.counts.replayed += 1;
        column.counts.flows += records.len() as u64;
        fan_out(&pass.subs, &mut column.consumers, cell, &records);
    }
    pass.conclude(column, Vec::new(), 1)
}

/// A closed partial of a pass: a link's serialized consumer states, cell
/// accounting, the archive segment inventory it spilled, and its cells'
/// fates and audit — what a worker process sends back for a claim, and
/// the one ledger of a thread link's column.
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
    /// Of the replayed cells, how many a resuming pass adopted.
    pub resumed: u64,
    /// Cell attempts beyond the first.
    pub retries: u64,
    /// Segments this slice spilled (cold archived slices only); the
    /// coordinator adopts these into the one published manifest.
    pub segments: Vec<SegmentMeta>,
    /// Cells the slice quarantined after exhausting their attempt budget.
    pub quarantined: Vec<QuarantinedCell>,
    /// The wire plane's conservation entry of every cell the slice ran.
    /// Wire mode does not cross a process link, so a worker's slice
    /// leaves this empty and the shard protocol does not carry it.
    pub ledger: Ledger,
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

    /// A process link without the process: each claim runs through
    /// [`run_range`] on a plan instance of its own, as a worker's would;
    /// a `dead` link loses every claim.
    struct Remote<'c> {
        ctx: &'c Context,
        plan: fn() -> EnginePlan,
        dead: bool,
    }

    impl Link for Remote<'_> {
        fn run(&mut self, claim: Claim) -> Result<Option<SliceOutcome>, LinkFault> {
            if self.dead {
                return Err(LinkFault::Lost("worker died (test)".into()));
            }
            let range = claim.start as usize..claim.end as usize;
            run_range(self.ctx, (self.plan)(), range)
                .map(Some)
                .map_err(|e| LinkFault::Failed(e.to_string()))
        }
    }

    /// The four days `four_days` subscribes.
    fn days() -> (Date, Date) {
        (Date::new(2020, 3, 9), Date::new(2020, 3, 12))
    }

    fn four_days(plan: &mut EnginePlan) -> Demand<HourlyVolume> {
        let (d1, d2) = days();
        plan.scoped("fig-x", |p| {
            p.subscribe(
                Stream::Vantage(VantagePoint::IxpSe),
                d1,
                d2,
                HourlyVolume::new,
            )
        })
    }

    fn four_day_plan() -> EnginePlan {
        let mut plan = EnginePlan::new();
        four_days(&mut plan);
        plan
    }

    /// A link with a bug: it panics on any claim.
    struct Unwinding;

    impl Link for Unwinding {
        fn run(&mut self, _: Claim) -> Result<Option<SliceOutcome>, LinkFault> {
            panic!("a link bug (test)");
        }
    }

    /// Whichever link takes the one claim unwinds; the other must not
    /// wait on it forever, so the pass panics instead of hanging.
    #[test]
    #[should_panic]
    fn a_link_that_unwinds_leaves_no_link_waiting() {
        drive(&[(0, 1)], &mut [Unwinding, Unwinding], 1);
    }

    #[test]
    fn process_links_match_thread_links() {
        let ctx = Context::with_seed(Fidelity::Test, 9);
        let (d1, d2) = days();
        let mut plan = EnginePlan::new();
        let h = four_days(&mut plan);
        let mut reference = run_with_workers(&ctx, plan, 1).expect("archive-free pass cannot fail");
        let series = reference.take(h).hourly_series(d1, d2);

        // Three links, each claim run through its own plan instance, the
        // slices merged in whatever order they finish.
        let mut plan = EnginePlan::new();
        let h = four_days(&mut plan);
        let n = 4 * 24;
        let ranges = [(0, n / 3), (n / 3, 2 * n / 3), (2 * n / 3, n)];
        let mut links: Vec<Remote> = (0..3)
            .map(|_| Remote {
                ctx: &ctx,
                plan: four_day_plan,
                dead: false,
            })
            .collect();
        let (mut merged, stats) = run_links(&ctx, plan, &ranges, &mut links).expect("pass");
        assert_eq!((stats.assignments, stats.reassignments), (3, 0));
        assert_eq!(merged.stats().cells_generated, u64::from(n));
        assert_eq!(merged.stats().workers, 3);
        assert!(merged.degraded().is_none());
        assert_eq!(merged.take(h).hourly_series(d1, d2), series);
    }

    #[test]
    fn a_lost_last_link_quarantines_its_claim_and_the_stranded_ones() {
        let ctx = Context::with_seed(Fidelity::Test, 9);
        let mut links = [Remote {
            ctx: &ctx,
            plan: four_day_plan,
            dead: true,
        }];
        let (out, stats) =
            run_links(&ctx, four_day_plan(), &[(0, 2), (2, 3)], &mut links).expect("pass");
        assert_eq!((stats.workers_lost, stats.quarantined_ranges), (1, 2));
        let report = out.degraded().expect("degraded");
        let errors: Vec<(u32, &str)> = report
            .quarantined
            .iter()
            .map(|q| (q.attempts, q.error.as_str()))
            .collect();
        let (died, stranded) = ((1, "worker died (test)"), (0, "no live links left"));
        assert_eq!(errors, [died, died, stranded]);
        assert_eq!(report.affected, vec![("fig-x".to_string(), 3)]);
        assert!(report
            .render()
            .contains("DEGRADED PASS: 3 cells quarantined"));
    }

    #[test]
    fn seeded_chaos_degrades_identically_at_any_worker_count() {
        let ctx = Context::with_seed(Fidelity::Test, 11);
        let (d1, d2) = (Date::new(2020, 3, 2), Date::new(2020, 3, 4));
        let degraded = |workers: usize| {
            let mut plan = EnginePlan::new();
            plan.with_chaos(FaultProfile {
                seed: 0xC4A05,
                panic: 0.5,
                attempts: 2,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
                ..FaultProfile::zero()
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
