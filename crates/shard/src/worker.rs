//! The worker side: serve coordinator connections, retain finished work.
//!
//! A worker is the far end of a process link: it binds a TCP listener,
//! answers one coordinator at a time, and runs each assigned cell range
//! through [`suite::run_suite_slice`] — the engine's driver over one
//! thread link, because worker *processes* are the parallelism of a
//! coordinated pass — sending back that thread's column, encoded. While
//! a slice runs, a sidecar thread heartbeats every
//! 100 ms (`HEARTBEAT`) so the coordinator can tell "slow"
//! from "dead" without guessing at cell runtimes; it stops the moment
//! the slice does.
//!
//! **Reconnect-and-resume.** The wire between coordinator and worker is
//! allowed to fail without costing compute. Every completed slice is
//! retained — as its already-encoded DONE payload — for the lifetime of
//! the process, and when a connection dies (reset, corrupt frame, EOF)
//! the worker goes back to its listener for up to 5 s (`RECONNECT_WAIT`)
//! instead of exiting. The next HELLO_ACK advertises the retained range
//! inventory, and a re-ASSIGN of a retained range is answered straight
//! from the cache: zero cells recomputed, byte-identical payload. Only
//! a coordinator that never returns ends the worker.
//!
//! Injected faults arrive *in the assignment* (the coordinator draws
//! them from the seeded schedule, keyed on the range, so they survive
//! reassignment): `kill` drops the connection and reports
//! [`WorkerExit::ChaosKilled`] — observationally identical to a crashed
//! process; a stall goes silent for the requested window first.

use lockdown_base::net::{accept_within, Stop};
use lockdown_core::experiments::suite::{
    self, suite_shard_cell_count, suite_shard_plan_hash, ShardSuiteOptions,
};
use lockdown_core::Context;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::proto::{self, Identity};
use crate::ShardError;

/// Heartbeat cadence while an assignment is running.
pub(crate) const HEARTBEAT: Duration = Duration::from_millis(100);

/// How long a worker that lost its coordinator waits at the listener
/// for a reconnect before giving up and exiting.
pub(crate) const RECONNECT_WAIT: Duration = Duration::from_secs(5);

/// Budget for one inbound frame once its first byte lands. Generous —
/// assignments are tiny — but finite, so a trickling coordinator can
/// never wedge a worker.
const FRAME_BUDGET: Duration = Duration::from_secs(10);

/// Why `serve_worker` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The coordinator sent SHUTDOWN: clean end of a finished pass.
    Shutdown,
    /// The coordinator hung up without SHUTDOWN and never reconnected
    /// within 5 s (`RECONNECT_WAIT`). Nothing left to serve.
    Disconnected,
    /// An injected fault terminated this worker mid-pass.
    ChaosKilled,
}

/// Completed slices this worker still holds, as encoded DONE payloads
/// keyed by `(start, end)`. Serving one is a write, not a recompute.
pub(crate) type Retained = HashMap<(u32, u32), Vec<u8>>;

/// The worker's own identity under `opts` — what it echoes in
/// HELLO_ACK for the coordinator to verify.
pub(crate) fn worker_identity(ctx: &Context, opts: &ShardSuiteOptions) -> Identity {
    Identity {
        seed: ctx.config.seed,
        scenario_hash: ctx.scenario_hash(),
        plan_hash: suite_shard_plan_hash(ctx, opts),
        cells: suite_shard_cell_count(ctx, opts) as u64,
    }
}

/// Serve coordinator connections on `listener` until a clean shutdown,
/// an injected kill, or a disconnect that outlives the reconnect
/// window. Finished slices survive connection churn.
pub fn serve_worker(
    ctx: &Context,
    opts: &ShardSuiteOptions,
    listener: TcpListener,
) -> Result<WorkerExit, ShardError> {
    let mut retained = Retained::new();
    let (mut stream, _peer) = listener
        .accept()
        .map_err(|e| ShardError::io("accepting coordinator connection", &e))?;
    loop {
        match serve_connection(ctx, opts, stream, &mut retained) {
            Ok(WorkerExit::Shutdown) => return Ok(WorkerExit::Shutdown),
            Ok(WorkerExit::ChaosKilled) => return Ok(WorkerExit::ChaosKilled),
            // A lost or garbled connection is a *wire* failure, not a
            // work failure: hold the finished slices and wait for the
            // coordinator to come back.
            Ok(WorkerExit::Disconnected) | Err(_) => {
                match accept_within(&listener, Instant::now() + RECONNECT_WAIT) {
                    Ok(Some(next)) => stream = next,
                    Ok(None) | Err(_) => return Ok(WorkerExit::Disconnected),
                }
            }
        }
    }
}

/// Serve one already-accepted coordinator connection (the testable core
/// of [`serve_worker`]). `retained` carries finished slices across
/// connections; re-assigned retained ranges are answered from it
/// without recomputation.
pub(crate) fn serve_connection(
    ctx: &Context,
    opts: &ShardSuiteOptions,
    mut stream: TcpStream,
    retained: &mut Retained,
) -> Result<WorkerExit, ShardError> {
    // Heartbeats are tiny and latency-sensitive; don't batch them.
    let _ = stream.set_nodelay(true);
    let identity = worker_identity(ctx, opts);

    match proto::read_frame_deadline(&mut stream, None, FRAME_BUDGET)? {
        Some((proto::T_HELLO, _payload)) => {
            // The coordinator's identity is informational here — the
            // *coordinator* enforces the match (it owns the merged
            // output); the worker just announces honestly, including
            // which finished ranges it can re-serve.
            let mut inventory: Vec<(u32, u32)> = retained.keys().copied().collect();
            inventory.sort_unstable();
            proto::write_frame(
                &mut stream,
                proto::T_HELLO_ACK,
                &proto::encode_hello_ack(&identity, &inventory),
            )
            .map_err(|e| ShardError::io("sending hello ack", &e))?;
        }
        Some((kind, _)) => {
            return Err(ShardError::Protocol(format!(
                "expected HELLO, got frame type {kind}"
            )))
        }
        None => return Ok(WorkerExit::Disconnected),
    }

    loop {
        match proto::read_frame_deadline(&mut stream, None, FRAME_BUDGET)? {
            Some((proto::T_ASSIGN, payload)) => {
                let assign = proto::decode_assign(&payload)?;
                if assign.kill {
                    // Simulated crash: vanish without a goodbye. The
                    // coordinator sees EOF exactly as for a real death.
                    return Ok(WorkerExit::ChaosKilled);
                }
                if assign.stall_ms > 0 {
                    // Simulated wedge: silence past the coordinator's
                    // heartbeat timeout, then die.
                    std::thread::sleep(Duration::from_millis(u64::from(assign.stall_ms)));
                    return Ok(WorkerExit::ChaosKilled);
                }
                if let Some(encoded) = retained.get(&(assign.start, assign.end)) {
                    // Resume: the slice already ran to completion on
                    // this process; replay its encoded outcome verbatim.
                    proto::write_frame(&mut stream, proto::T_DONE, encoded)
                        .map_err(|e| ShardError::io("re-sending retained outcome", &e))?;
                    continue;
                }
                run_assignment(ctx, opts, &mut stream, assign, retained)?;
            }
            Some((proto::T_SHUTDOWN, _)) => return Ok(WorkerExit::Shutdown),
            Some((kind, _)) => {
                return Err(ShardError::Protocol(format!(
                    "unexpected frame type {kind} while idle"
                )))
            }
            None => return Ok(WorkerExit::Disconnected),
        }
    }
}

/// Run one assigned range with heartbeats, then report DONE or FAILED.
/// A completed outcome is retained *before* the send is attempted, so a
/// wire failure during DONE still leaves the slice resumable.
fn run_assignment(
    ctx: &Context,
    opts: &ShardSuiteOptions,
    stream: &mut TcpStream,
    assign: proto::Assign,
    retained: &mut Retained,
) -> Result<(), ShardError> {
    let stop = Stop::default();
    let mut beat_stream = stream
        .try_clone()
        .map_err(|e| ShardError::io("cloning stream for heartbeats", &e))?;
    let beats = {
        let stop = stop.clone();
        // Until stopped, or until the coordinator is gone (the main
        // thread finds out when it sends the outcome).
        std::thread::spawn(move || {
            while proto::write_frame(&mut beat_stream, proto::T_HEARTBEAT, &[]).is_ok()
                && !stop.sleep(HEARTBEAT)
            {}
        })
    };

    let result = suite::run_suite_slice(ctx, opts, assign.start as usize..assign.end as usize);

    stop.stop();
    beats.join().expect("heartbeat thread never panics");

    match result {
        Ok(outcome) => {
            let key = (assign.start, assign.end);
            retained.insert(key, proto::encode_outcome(&outcome));
            let encoded = retained.get(&key).expect("just inserted");
            proto::write_frame(stream, proto::T_DONE, encoded)
                .map_err(|e| ShardError::io("sending slice outcome", &e))
        }
        Err(e) => {
            // The slice failed but this process is healthy: report and
            // stay in rotation — the coordinator charges the attempt.
            proto::write_frame(
                stream,
                proto::T_FAILED,
                &proto::encode_failed(&e.to_string()),
            )
            .map_err(|e| ShardError::io("sending slice failure", &e))
        }
    }
}
