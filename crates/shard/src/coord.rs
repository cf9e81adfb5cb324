//! The coordinator: worker processes as links of the engine's driver.
//!
//! A coordinated pass is the engine's one driver (`lockdown_core::engine`)
//! over process links instead of thread links. The coordinator checks
//! every worker's identity and splits the full-suite cell plan into
//! contiguous index ranges ([`chunk_ranges`]); the driver keeps every
//! worker busy from one queue, requeues a range a worker failed or lost
//! with its attempt + 1 (so the seeded fault schedule keys on `(range,
//! attempt)`, not on which process runs it), retires a lost worker,
//! quarantines a range that outlives the attempt budget, and merges each
//! slice through the codec it merges a thread's column with. The
//! assembled suite then degrades exactly like a single-process pass. What
//! lives here is the process link: spawn, attach, handshake, liveness and
//! redial/resume.
//!
//! Liveness is deadline-based on two clocks: silence past
//! [`CoordOptions::heartbeat_timeout`] between frames, or a single
//! frame whose bytes trickle past the same budget after it started
//! (see [`proto::read_frame_deadline`]) — so neither a dead worker nor
//! a byte-per-tick hostile wire can hold an assignment hostage.
//!
//! A failed connection is not yet a lost link: the process link redials
//! the worker's address and re-handshakes first. Workers retain finished
//! slices across connections (see [`crate::worker`]) and advertise them
//! in HELLO_ACK, so re-driving the same assignment after a transient
//! reset re-adopts completed work — byte-identical, zero cells
//! recomputed. Only when the redial fails (process dead, listener gone)
//! or the reconnect budget is spent is the link lost and its range back
//! on the queue.

use lockdown_base::fault::Schedule;
use lockdown_core::engine::{panic_message, Claim, DriveStats, Link, LinkFault, SliceOutcome};
use lockdown_core::experiments::suite::{self, ShardSuiteOptions, Suite};
use lockdown_core::Context;
use std::io::BufRead;
use std::net::TcpStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::proto::{self, Assign, Identity};
use crate::worker::worker_identity;
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
    pub stats: DriveStats,
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

/// Send one assignment and pump frames until DONE, or FAILED (`Ok(Err)`:
/// the slice failed on a healthy worker). Heartbeats reset the idle
/// clock; silence past the timeout, a frame trickling past the same
/// budget, EOF, or protocol garbage mean the connection is gone.
fn drive_assignment(
    stream: &mut TcpStream,
    assign: &Assign,
    timeout: Duration,
) -> Result<Result<SliceOutcome, String>, ShardError> {
    proto::write_frame(stream, proto::T_ASSIGN, &proto::encode_assign(assign))
        .map_err(|e| ShardError::io("sending assignment", &e))?;
    loop {
        match proto::read_frame_deadline(stream, Some(timeout), timeout) {
            Ok(Some((proto::T_HEARTBEAT, _))) => continue,
            Ok(Some((proto::T_DONE, payload))) => return Ok(Ok(proto::decode_outcome(&payload)?)),
            Ok(Some((proto::T_FAILED, payload))) => {
                return Ok(Err(proto::decode_failed(&payload)?))
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
/// plan differs from the coordinator's; after that, the engine's driver
/// runs the ranges over the workers as process links — dispatch, retry,
/// quarantine and merge — and each link redials and resumes its own
/// worker. Spawned children are shut down (or killed, if dead) before
/// this returns.
///
/// A pass whose quarantine holes are too large for the figure suite to
/// assemble still returns `Ok` — with [`Coordinated::suite`] `None` and
/// the failure named — because "the network lost that much work" is a
/// degraded outcome under the exit-3 contract, not a crash.
pub fn coordinate(
    ctx: &Context,
    opts: &CoordOptions,
    mut links: Vec<WorkerLink>,
) -> Result<Coordinated, ShardError> {
    if links.is_empty() {
        return Err(ShardError::Protocol("no workers to coordinate".into()));
    }
    let identity = worker_identity(ctx, &opts.suite);
    for worker in &mut links {
        handshake(worker, &identity, opts.heartbeat_timeout)?;
    }

    let schedule = Schedule::new(opts.suite.chaos);
    let mut links: Vec<ProcessLink> = links
        .into_iter()
        .map(|worker| ProcessLink {
            worker,
            identity: &identity,
            schedule: &schedule,
            timeout: opts.heartbeat_timeout,
            inventory: Vec::new(),
            reconnects: 0,
            resumed: 0,
            lost: false,
        })
        .collect();
    let ranges = chunk_ranges(identity.cells as usize, links.len(), opts.chunks_per_worker);
    // The pass resolves the archive (deleting a stale index, or
    // committing to warm replay) before any worker can open it.
    let driven = suite::run_suite_links(ctx, &opts.suite, &ranges, &mut links);
    for link in &mut links {
        if !link.lost {
            shutdown_link(&mut link.worker);
        }
    }
    let (mut stats, assemble) = driven?;
    stats.reconnects = links.iter().map(|link| link.reconnects).sum();
    stats.ranges_resumed = links.iter().map(|link| link.resumed).sum();

    // Figure assembly asserts it has the data its windows demand; a
    // badly-holed quarantine pattern can make that impossible. Under
    // quarantine, an assembly panic is a *named degraded outcome* — the
    // robustness contract is "recovery or degraded, never a crash" —
    // while a panic on complete data is a genuine bug and re-raised.
    let (suite, assembly_error) = match catch_unwind(AssertUnwindSafe(assemble)) {
        Ok(suite) => (Some(suite), None),
        Err(panic) if stats.quarantined_ranges > 0 => (None, Some(panic_message(panic))),
        Err(panic) => resume_unwind(panic),
    };
    Ok(Coordinated {
        suite,
        assembly_error,
        stats,
    })
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

/// A worker process as a link of the engine's driver: it sends a claim
/// as one assignment and pumps frames until the worker answers, and it
/// redials a failed connection before it declares the worker lost.
struct ProcessLink<'a> {
    worker: WorkerLink,
    identity: &'a Identity,
    schedule: &'a Schedule,
    /// The heartbeat timeout; an injected stall lasts twice as long.
    timeout: Duration,
    /// Ranges the worker advertised as retained at its last handshake:
    /// completing one of these after a reconnect is resumed work, not
    /// recomputed work.
    inventory: Vec<(u32, u32)>,
    reconnects: u32,
    resumed: u32,
    lost: bool,
}

impl Link for ProcessLink<'_> {
    fn run(&mut self, claim: Claim) -> Result<Option<SliceOutcome>, LinkFault> {
        let chaos = self
            .schedule
            .decide_worker(claim.start, claim.end, claim.attempt);
        let assign = Assign {
            start: claim.start,
            end: claim.end,
            attempt: claim.attempt,
            kill: chaos.kill,
            stall_ms: match chaos.stall {
                true => (2 * self.timeout.as_millis()).min(u128::from(u32::MAX)) as u32,
                false => 0,
            },
        };
        let mut redials_left = RECONNECTS_PER_ASSIGNMENT;
        loop {
            match drive_assignment(&mut self.worker.stream, &assign, self.timeout) {
                Ok(Ok(outcome)) => {
                    if self.inventory.contains(&(claim.start, claim.end)) {
                        self.resumed += 1;
                    }
                    return Ok(Some(outcome));
                }
                // The slice failed but the worker is healthy: the driver
                // charges the attempt and keeps the worker in rotation.
                Ok(Err(message)) => return Err(LinkFault::Failed(message)),
                Err(e) => {
                    // The *connection* failed (timeout, EOF, garbage).
                    // Redial before declaring the worker lost: a worker
                    // that answers retains its finished slices, so the
                    // same assignment re-adopts work instead of redoing
                    // it. The wire failure is not charged as an attempt.
                    if redials_left > 0 {
                        redials_left -= 1;
                        if let Some(inventory) =
                            reconnect(&mut self.worker, self.identity, self.timeout)
                        {
                            self.inventory = inventory;
                            self.reconnects += 1;
                            continue;
                        }
                    }
                    // Lost for real: reap any child; the driver retires
                    // the link and requeues the range.
                    reap_link(&mut self.worker);
                    self.lost = true;
                    return Err(LinkFault::Lost(e.to_string()));
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
