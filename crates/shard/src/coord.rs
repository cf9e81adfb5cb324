//! The coordinator: dispatch cell ranges, merge streamed state.
//!
//! The coordinator owns the whole pass. It resolves the archive (warm
//! vs. cold) *before* any worker runs, splits the full-suite cell plan
//! into contiguous index ranges, and keeps every worker busy from a
//! shared work queue — a dead worker's range goes back on the queue for
//! a live one, carrying its attempt count so the seeded fault schedule
//! keys on `(range, attempt)` rather than on which process happens to
//! run it. Ranges that outlive the attempt budget are quarantined; the
//! assembled suite then degrades exactly like a single-process pass
//! (same report, same exit-3 contract).
//!
//! Liveness is deadline-based on two clocks: silence past
//! [`CoordOptions::heartbeat_timeout`] between frames, or a single
//! frame whose bytes trickle past the same budget after it started
//! (see [`proto::read_frame_deadline`]) — so neither a dead worker nor
//! a byte-per-tick hostile wire can hold an assignment hostage.
//!
//! A failed link is not immediately a failed worker: the coordinator
//! redials the worker's address and re-handshakes first. Workers retain
//! finished slices across connections (see [`crate::worker`]) and
//! advertise them in HELLO_ACK, so re-driving the same assignment after
//! a transient reset re-adopts completed work — byte-identical, zero
//! cells recomputed — instead of recomputing the range. Only when the
//! redial fails (process dead, listener gone) or the reconnect budget
//! is spent does the range go back on the queue for another worker.

use lockdown_base::fault::Schedule;
use lockdown_core::engine::{panic_message, SliceOutcome};
use lockdown_core::experiments::suite::{ShardSuiteOptions, Suite, SuiteAssembler};
use lockdown_core::Context;
use std::collections::VecDeque;
use std::io::BufRead;
use std::net::TcpStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::proto::{self, Assign, Identity};
use crate::ShardError;

/// Consecutive reconnects the coordinator grants one assignment before
/// declaring the worker dead. Wire failures are not charged against the
/// range's attempt budget — they are the link's fault, not the work's —
/// so this cap is what keeps a persistently hostile wire bounded.
pub(crate) const RECONNECTS_PER_ASSIGNMENT: u32 = 2;

/// How long a redial keeps trying when the connection is not being
/// actively refused (a refused dial means the listener is gone and the
/// worker is dead — that fails fast).
const REDIAL_WINDOW: Duration = Duration::from_secs(2);

/// How a coordinated pass is tuned. `suite` must describe the same
/// context the workers were started with — the hello exchange verifies
/// seed, scenario and plan fingerprints before any work is assigned.
#[derive(Debug, Clone)]
pub struct CoordOptions {
    /// Archive/chaos options, shared verbatim with workers.
    pub suite: ShardSuiteOptions,
    /// Target work-queue granularity: ranges per worker. More ranges
    /// mean finer rebalancing after a death, at more protocol round
    /// trips. Zero means one range per worker.
    pub chunks_per_worker: usize,
    /// Declare a worker dead after this long without a frame — and
    /// declare a frame dead this long after it started.
    pub heartbeat_timeout: Duration,
}

impl Default for CoordOptions {
    fn default() -> CoordOptions {
        CoordOptions {
            suite: ShardSuiteOptions::default(),
            chunks_per_worker: 4,
            heartbeat_timeout: Duration::from_millis(2_000),
        }
    }
}

/// One connected worker: the socket, plus the child process handle and
/// its stdout (kept open so the child never takes SIGPIPE) when the
/// coordinator spawned it.
#[derive(Debug)]
pub struct WorkerLink {
    /// The protocol connection.
    pub stream: TcpStream,
    /// The child process, for spawned (not attached) workers.
    pub child: Option<Child>,
    /// Kept alive for the child's lifetime.
    stdout: Option<std::process::ChildStdout>,
    /// Where the worker is, for reports — and for redialing it after a
    /// wire failure.
    pub label: String,
}

/// What the coordinator did, beyond the suite itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordStats {
    /// Worker processes at the start of the pass.
    pub workers: usize,
    /// Ranges the plan was split into.
    pub chunks: u32,
    /// Assignments sent (first attempts plus retries).
    pub assignments: u32,
    /// Ranges reassigned after a worker death or slice failure.
    pub reassignments: u32,
    /// Workers declared dead during the pass.
    pub workers_lost: u32,
    /// Ranges whose attempt budget ran out.
    pub quarantined_ranges: u32,
    /// Successful redial-and-rehandshake recoveries after wire failures.
    pub reconnects: u32,
    /// Ranges re-adopted from a reconnected worker's retained inventory
    /// — completed work that a wire failure did *not* force us to redo.
    pub ranges_resumed: u32,
}

impl CoordStats {
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

/// A finished coordinated pass.
pub struct Coordinated {
    /// The assembled suite — byte-identical to a single-process pass
    /// when nothing was quarantined. `None` when quarantine holes left
    /// the figure assembly unable to run (see `assembly_error`); the
    /// pass still ends in a *named* degraded outcome, never a crash.
    pub suite: Option<Suite>,
    /// Why assembly produced no suite, when it did not: the panic
    /// message of the figure that could not compute from partial data.
    pub assembly_error: Option<String>,
    /// Scheduling statistics.
    pub stats: CoordStats,
}

impl Coordinated {
    /// Whether this pass must exit with the degraded contract (exit 3):
    /// either the suite computed from partial data, or the quarantine
    /// holes were too large for it to compute at all.
    pub fn is_degraded(&self) -> bool {
        self.assembly_error.is_some() || self.suite.as_ref().is_some_and(|s| s.degraded.is_some())
    }

    /// Rendered sections: the suite's own (annotated when degraded), or
    /// a single named degraded section when assembly could not run.
    pub fn renders(&self) -> Vec<String> {
        match &self.suite {
            Some(suite) => suite.renders(),
            None => vec![format!(
                "[degraded: no figures — {} quarantined range(s) left the suite \
                 unable to assemble: {}]",
                self.stats.quarantined_ranges,
                self.assembly_error.as_deref().unwrap_or("unknown failure")
            )],
        }
    }
}

/// Split `cells` indices into up to `workers * chunks_per_worker`
/// contiguous near-equal ranges (never more ranges than cells).
pub fn chunk_ranges(cells: usize, workers: usize, chunks_per_worker: usize) -> Vec<(u32, u32)> {
    if cells == 0 || workers == 0 {
        return Vec::new();
    }
    let n = (workers * chunks_per_worker.max(1)).min(cells);
    let base = cells / n;
    let extra = cells % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0usize;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push((start as u32, (start + len) as u32));
        start += len;
    }
    out
}

/// Connect to already-running workers at `host:port` addresses.
pub fn attach_workers(addrs: &[String]) -> Result<Vec<WorkerLink>, ShardError> {
    addrs
        .iter()
        .map(|addr| {
            let stream = TcpStream::connect(addr)
                .map_err(|e| ShardError::io(format!("connecting to worker {addr}"), &e))?;
            let _ = stream.set_nodelay(true);
            Ok(WorkerLink {
                stream,
                child: None,
                stdout: None,
                label: addr.clone(),
            })
        })
        .collect()
}

/// Spawn `n` local worker processes (`exe worker <args>`) on ephemeral
/// ports and connect to each. The worker's first stdout line —
/// `listening on HOST:PORT`, the same contract collectd and serve
/// honour — carries the port back.
pub fn spawn_workers(
    exe: &std::path::Path,
    args: &[String],
    n: usize,
) -> Result<Vec<WorkerLink>, ShardError> {
    let mut links = Vec::with_capacity(n);
    for i in 0..n {
        let mut child = Command::new(exe)
            .arg("worker")
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| ShardError::io(format!("spawning worker {i}"), &e))?;
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        {
            let mut reader = std::io::BufReader::new(&mut stdout);
            reader
                .read_line(&mut line)
                .map_err(|e| ShardError::io(format!("reading worker {i} address"), &e))?;
        }
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| {
                let _ = child.kill();
                ShardError::Protocol(format!("worker {i} printed {line:?}, not its address"))
            })?
            .to_string();
        let stream = TcpStream::connect(&addr)
            .map_err(|e| ShardError::io(format!("connecting to spawned worker at {addr}"), &e))?;
        let _ = stream.set_nodelay(true);
        links.push(WorkerLink {
            stream,
            child: Some(child),
            stdout: Some(stdout),
            label: addr,
        });
    }
    Ok(links)
}

/// Work-queue state shared by the per-worker dispatch threads.
struct Dispatch {
    /// `(start, end, attempt)` ranges awaiting a worker.
    queue: VecDeque<(u32, u32, u32)>,
    /// Ranges currently running on some worker.
    in_flight: usize,
    /// Workers not yet declared dead.
    live: usize,
    /// Completed `(range start, outcome)` pairs.
    done: Vec<(u32, SliceOutcome)>,
    /// `(start, end, attempts spent, error)` for exhausted ranges.
    quarantined: Vec<(u32, u32, u32, String)>,
    stats: CoordStats,
}

impl Dispatch {
    /// Requeue a failed range, or quarantine it when the budget (or the
    /// worker pool) is exhausted.
    fn fail(&mut self, start: u32, end: u32, attempt: u32, budget: u32, error: &str) {
        let spent = attempt + 1;
        if spent < budget && self.live > 0 {
            self.queue.push_back((start, end, spent));
            self.stats.reassignments += 1;
        } else {
            self.quarantined
                .push((start, end, spent, error.to_string()));
            self.stats.quarantined_ranges += 1;
        }
    }

    /// With no workers left, nothing queued will ever run.
    fn drain_to_quarantine(&mut self) {
        while let Some((start, end, attempt)) = self.queue.pop_front() {
            self.quarantined
                .push((start, end, attempt, "no live workers left".to_string()));
            self.stats.quarantined_ranges += 1;
        }
    }
}

/// What one assignment round-trip produced.
enum Reply {
    Done(SliceOutcome),
    Failed(String),
}

/// Send one assignment and pump frames until DONE/FAILED. Heartbeats
/// reset the idle clock; silence past the timeout, a frame trickling
/// past the same budget, EOF, or protocol garbage mean the link is
/// gone.
fn drive_assignment(
    stream: &mut TcpStream,
    assign: &Assign,
    timeout: Duration,
) -> Result<Reply, ShardError> {
    proto::write_frame(stream, proto::T_ASSIGN, &proto::encode_assign(assign))
        .map_err(|e| ShardError::io("sending assignment", &e))?;
    loop {
        match proto::read_frame_deadline(stream, Some(timeout), timeout) {
            Ok(Some((proto::T_HEARTBEAT, _))) => continue,
            Ok(Some((proto::T_DONE, payload))) => {
                return Ok(Reply::Done(proto::decode_outcome(&payload)?))
            }
            Ok(Some((proto::T_FAILED, payload))) => {
                return Ok(Reply::Failed(proto::decode_failed(&payload)?))
            }
            Ok(Some((kind, _))) => {
                return Err(ShardError::Protocol(format!(
                    "unexpected frame type {kind} during assignment"
                )))
            }
            Ok(None) => {
                return Err(ShardError::Protocol(
                    "worker closed the connection mid-assignment".into(),
                ))
            }
            Err(ShardError::Io { detail, .. }) => {
                return Err(ShardError::Protocol(format!(
                    "connection failed mid-assignment ({detail})"
                )))
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run a coordinated full-suite pass over `links`.
///
/// The hello exchange rejects any worker whose seed, scenario or cell
/// plan differs from the coordinator's; after that, range dispatch,
/// retry, reconnect, quarantine and merge all happen here. Spawned
/// children are shut down (or killed, if dead) before this returns.
///
/// A pass whose quarantine holes are too large for the figure suite to
/// assemble still returns `Ok` — with [`Coordinated::suite`] `None` and
/// the failure named — because "the network lost that much work" is a
/// degraded outcome under the exit-3 contract, not a crash.
pub fn coordinate(
    ctx: &Context,
    opts: &CoordOptions,
    links: Vec<WorkerLink>,
) -> Result<Coordinated, ShardError> {
    if links.is_empty() {
        return Err(ShardError::Protocol("no workers to coordinate".into()));
    }
    // Resolve the archive (delete a stale index, or commit to warm
    // replay) before any worker can open it.
    let mut assembler = SuiteAssembler::new(ctx, &opts.suite)?;
    let identity = Identity {
        seed: ctx.config.seed,
        scenario_hash: ctx.scenario_hash(),
        plan_hash: assembler.plan_hash(),
        cells: assembler.cell_count() as u64,
    };

    let mut links = links;
    for link in &mut links {
        handshake(link, &identity, opts.heartbeat_timeout)?;
    }

    let schedule = Schedule::new(opts.suite.chaos);
    let budget = opts.suite.chaos.attempts.max(1);
    let chunks = chunk_ranges(assembler.cell_count(), links.len(), opts.chunks_per_worker);
    let dispatch = Mutex::new(Dispatch {
        queue: chunks.iter().map(|&(s, e)| (s, e, 0)).collect(),
        in_flight: 0,
        live: links.len(),
        done: Vec::with_capacity(chunks.len()),
        quarantined: Vec::new(),
        stats: CoordStats {
            workers: links.len(),
            chunks: chunks.len() as u32,
            ..CoordStats::default()
        },
    });
    let ready = Condvar::new();
    let stall_ms = (2 * opts.heartbeat_timeout.as_millis()).min(u128::from(u32::MAX)) as u32;

    std::thread::scope(|scope| {
        for link in links {
            scope.spawn(|| {
                worker_loop(
                    link,
                    &dispatch,
                    &ready,
                    &identity,
                    &schedule,
                    budget,
                    stall_ms,
                    opts.heartbeat_timeout,
                );
            });
        }
    });

    let state = dispatch.into_inner().expect("no thread held the lock");
    let stats = state.stats;
    let quarantined = !state.quarantined.is_empty();

    // Deterministic merge order — not required for correctness (the
    // merges are additive over disjoint cells) but it keeps two runs of
    // the same pass bit-for-bit alike in every internal ordering.
    let mut done = state.done;
    done.sort_by_key(|(start, _)| *start);
    for (_, outcome) in done {
        assembler.absorb(outcome)?;
    }
    for (start, end, attempts, error) in state.quarantined {
        assembler.quarantine_range(start as usize..end as usize, attempts, &error);
    }

    // Figure assembly asserts it has the data its windows demand; a
    // badly-holed quarantine pattern can make that impossible. Under
    // quarantine, an assembly panic is a *named degraded outcome* — the
    // robustness contract is "recovery or degraded, never a crash" —
    // while a panic on complete data is a genuine bug and re-raised.
    match catch_unwind(AssertUnwindSafe(|| assembler.finish(ctx, stats.workers))) {
        Ok(Ok(suite)) => Ok(Coordinated {
            suite: Some(suite),
            assembly_error: None,
            stats,
        }),
        Ok(Err(e)) => Err(e.into()),
        Err(panic) => {
            if quarantined {
                Ok(Coordinated {
                    suite: None,
                    assembly_error: Some(panic_message(panic)),
                    stats,
                })
            } else {
                resume_unwind(panic)
            }
        }
    }
}

/// Exchange identities with one worker and verify them field by field.
/// Returns the worker's retained-range inventory (empty on a first
/// connection; possibly not after a reconnect).
fn handshake(
    link: &mut WorkerLink,
    ours: &Identity,
    timeout: Duration,
) -> Result<Vec<(u32, u32)>, ShardError> {
    proto::write_frame(
        &mut link.stream,
        proto::T_HELLO,
        &proto::encode_identity(ours),
    )
    .map_err(|e| ShardError::io(format!("greeting worker {}", link.label), &e))?;
    // Hello asks the worker to build its suite plan; give it headroom
    // beyond the steady-state heartbeat timeout.
    let budget = timeout.max(Duration::from_secs(10));
    let (theirs, retained) =
        match proto::read_frame_deadline(&mut link.stream, Some(budget), budget)? {
            Some((proto::T_HELLO_ACK, payload)) => proto::decode_hello_ack(&payload)?,
            Some((kind, _)) => {
                return Err(ShardError::Protocol(format!(
                    "worker {} answered HELLO with frame type {kind}",
                    link.label
                )))
            }
            None => {
                return Err(ShardError::Protocol(format!(
                    "worker {} hung up during handshake",
                    link.label
                )))
            }
        };
    if theirs != *ours {
        return Err(ShardError::Protocol(format!(
            "worker {} identity mismatch: worker has seed {:#x} scenario {:#018x} \
             plan {:#018x} ({} cells); coordinator has seed {:#x} scenario {:#018x} \
             plan {:#018x} ({} cells) — start workers with the same \
             --fidelity/--scenario/--archive",
            link.label,
            theirs.seed,
            theirs.scenario_hash,
            theirs.plan_hash,
            theirs.cells,
            ours.seed,
            ours.scenario_hash,
            ours.plan_hash,
            ours.cells,
        )));
    }
    Ok(retained)
}

/// Redial a failed link and re-handshake. A refused dial fails fast —
/// the listener is gone, so the worker process is dead — while other
/// dial errors retry inside [`REDIAL_WINDOW`]. Returns the worker's
/// retained-range inventory on success.
fn reconnect(link: &mut WorkerLink, ours: &Identity, timeout: Duration) -> Option<Vec<(u32, u32)>> {
    let deadline = Instant::now() + REDIAL_WINDOW;
    loop {
        match TcpStream::connect(&link.label) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                link.stream = stream;
                // Connected but garbled (corrupt wire, wrong identity,
                // hang-up): the link is not coming back usable.
                return handshake(link, ours, timeout).ok();
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => return None,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => return None,
        }
    }
}

/// One worker's dispatch loop: pull ranges until the queue is dry and
/// nothing is in flight, then shut the worker down.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut link: WorkerLink,
    dispatch: &Mutex<Dispatch>,
    ready: &Condvar,
    identity: &Identity,
    schedule: &Schedule,
    budget: u32,
    stall_ms: u32,
    timeout: Duration,
) {
    // Ranges the worker advertised as retained at its last handshake:
    // completing one of these after a reconnect is resumed work, not
    // recomputed work.
    let mut inventory: Vec<(u32, u32)> = Vec::new();
    loop {
        let job = {
            let mut d = dispatch.lock().expect("dispatch lock");
            loop {
                if let Some(job) = d.queue.pop_front() {
                    d.in_flight += 1;
                    d.stats.assignments += 1;
                    break Some(job);
                }
                if d.in_flight == 0 {
                    break None;
                }
                // A running range may yet fail and come back.
                d = ready.wait(d).expect("dispatch lock");
            }
        };
        let Some((start, end, attempt)) = job else {
            shutdown_link(&mut link);
            return;
        };

        let chaos = schedule.decide_worker(start, end, attempt);
        let assign = Assign {
            start,
            end,
            attempt,
            kill: chaos.kill,
            stall_ms: if chaos.stall { stall_ms } else { 0 },
        };
        let mut redials_left = RECONNECTS_PER_ASSIGNMENT;
        loop {
            match drive_assignment(&mut link.stream, &assign, timeout) {
                Ok(Reply::Done(outcome)) => {
                    let resumed = inventory.contains(&(start, end));
                    let mut d = dispatch.lock().expect("dispatch lock");
                    d.in_flight -= 1;
                    d.done.push((start, outcome));
                    if resumed {
                        d.stats.ranges_resumed += 1;
                    }
                    ready.notify_all();
                    break;
                }
                Ok(Reply::Failed(message)) => {
                    // The slice failed but the worker is healthy: charge
                    // the attempt and keep the worker in rotation.
                    let mut d = dispatch.lock().expect("dispatch lock");
                    d.in_flight -= 1;
                    d.fail(start, end, attempt, budget, &message);
                    ready.notify_all();
                    break;
                }
                Err(e) => {
                    // The *link* failed (timeout, EOF, garbage). Redial
                    // before declaring the worker dead: a worker that
                    // answers retains its finished slices, so the same
                    // assignment re-adopts work instead of redoing it.
                    // The wire failure is not charged as an attempt.
                    if redials_left > 0 {
                        redials_left -= 1;
                        if let Some(inv) = reconnect(&mut link, identity, timeout) {
                            inventory = inv;
                            let mut d = dispatch.lock().expect("dispatch lock");
                            d.stats.reconnects += 1;
                            continue;
                        }
                    }
                    // Dead for real: release the range, retire the
                    // worker, reap any child.
                    {
                        let mut d = dispatch.lock().expect("dispatch lock");
                        d.in_flight -= 1;
                        d.live -= 1;
                        d.stats.workers_lost += 1;
                        d.fail(start, end, attempt, budget, &e.to_string());
                        if d.live == 0 {
                            d.drain_to_quarantine();
                        }
                        ready.notify_all();
                    }
                    reap_link(&mut link);
                    return;
                }
            }
        }
    }
}

/// Clean shutdown: best-effort SHUTDOWN frame, then wait for a spawned
/// child to exit.
fn shutdown_link(link: &mut WorkerLink) {
    let _ = proto::write_frame(&mut link.stream, proto::T_SHUTDOWN, &[]);
    if let Some(child) = &mut link.child {
        let _ = child.wait();
    }
    let _ = link.stdout.take();
}

/// A dead worker: kill the child (a wedged process won't exit on its
/// own) and reap it.
fn reap_link(link: &mut WorkerLink) {
    if let Some(child) = &mut link.child {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = link.stdout.take();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_exactly_once() {
        for (cells, workers, cpw) in [(96, 3, 4), (7, 3, 4), (1, 8, 4), (100, 1, 1), (0, 3, 4)] {
            let ranges = chunk_ranges(cells, workers, cpw);
            let mut next = 0u32;
            for &(s, e) in &ranges {
                assert_eq!(s, next, "contiguous");
                assert!(e > s, "non-empty");
                next = e;
            }
            assert_eq!(next as usize, cells, "covers all cells");
            if cells > 0 {
                assert!(ranges.len() <= cells);
                assert!(ranges.len() <= workers * cpw.max(1));
                let sizes: Vec<u32> = ranges.iter().map(|(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "near-equal sizes: {sizes:?}");
            }
        }
    }
}
