//! Sharded scale-out: one coordinator, N worker processes.
//!
//! The engine already proves that a figure-suite pass is a fold over
//! disjoint `(stream, date, hour)` cells: consumer merges are additive,
//! so any partition of the cell list produces byte-identical figures.
//! This crate stretches that property across *process* boundaries: a
//! worker process is a link of the engine's one driver, like a thread. A
//! coordinator splits the full-suite cell plan into contiguous index
//! ranges, hands them to workers over a hand-rolled length-prefixed TCP
//! protocol ([`proto`]), and the driver merges the serialized consumer
//! states each worker streams back through the codec it merges a
//! thread's column with. Worker archive segments are adopted into the
//! coordinator's single manifest, so a sharded cold pass leaves exactly
//! the archive a single-process pass would.
//!
//! Failure semantics are the driver's: a worker that stops heartbeating
//! (killed, stalled, unplugged) is a lost link, its range is retried on a
//! live worker, and a range that outlives its attempt budget is
//! quarantined — the assembled suite then degrades (exit 3) instead of
//! aborting, with every missing cell named.
//!
//! The wire itself is treated as hostile (PR 10): every frame carries a
//! CRC-32 check, every socket read runs under a monotonic whole-frame
//! deadline, and a transient connection loss triggers reconnect —
//! workers retain finished slices and re-offer them in HELLO_ACK, so a
//! reset costs a round trip, not a recomputation.
//!
//! The split of labour:
//!
//! - [`proto`] — frames and message codecs; no sockets, pure bytes.
//! - [`worker`] — serve one coordinator connection; run slices.
//! - [`coord`] — spawn/attach workers, the process link, report.

#![warn(unreachable_pub)]

pub mod coord;
pub mod proto;
pub mod worker;

use lockdown_flow::wire::WireError;
use lockdown_store::StoreError;
use std::fmt;

/// Everything that can go wrong across the shard boundary.
#[derive(Debug)]
pub enum ShardError {
    /// A socket or process operation failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// The peer spoke the protocol wrong (bad magic, unknown frame,
    /// truncated payload, CRC mismatch, identity mismatch).
    Protocol(String),
    /// The peer went silent (no frame inside the idle budget) or
    /// trickled (a started frame outlived its whole-frame deadline).
    Timeout(String),
    /// The merge or archive side failed.
    Store(StoreError),
}

impl ShardError {
    /// Wrap an I/O error with what was being attempted.
    pub(crate) fn io(context: impl Into<String>, err: &std::io::Error) -> ShardError {
        ShardError::Io {
            context: context.into(),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io { context, detail } => write!(f, "{context}: {detail}"),
            ShardError::Protocol(msg) => write!(f, "shard protocol: {msg}"),
            ShardError::Timeout(msg) => write!(f, "shard timeout: {msg}"),
            ShardError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<StoreError> for ShardError {
    fn from(e: StoreError) -> ShardError {
        ShardError::Store(e)
    }
}

/// A payload that does not decode is the peer speaking the protocol
/// wrong, named by the field that failed.
impl From<WireError> for ShardError {
    fn from(e: WireError) -> ShardError {
        ShardError::Protocol(format!("shard frame: {e}"))
    }
}
