//! The query plane: serve the archive, don't just replay it.
//!
//! The columnar store (PR 4) was built with one consumer — the figure
//! suite's replay path. This crate turns it into a read-serving layer
//! with a second, independent consumer: a [`plan::QueryPlan`] predicate
//! language (time range, vantage, traffic class, AS, port, direction)
//! compiled against the archive manifest, executed by a
//! [`engine::QueryEngine`] with predicate pushdown — manifest time spans
//! and segment zone-map footers prune whole segments before any column
//! is decoded, and a plan with no record predicate sums a whole-hour
//! segment from its manifest entry — and a byte-budgeted LRU (`cache`) of decoded hot
//! segments so dashboard-style repeat queries never re-decode. On top
//! sit a hand-rolled HTTP/1.1 server ([`http`]) over
//! `std::net::TcpListener` with a bounded connection pool and a
//! Prometheus-style `query_*` metrics family ([`metrics`]), and a
//! client ([`loadgen`]) that *verifies* a running server: the served
//! figures must be byte-identical to the engine's own output. (Load and
//! latency under a request mix are lockbench's serve workloads.)
//!
//! Like its siblings the crate is dependency-free beyond the workspace:
//! HTTP parsing and JSON encoding are hand-rolled over `std`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
pub mod engine;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod plan;

pub use engine::{QueryEngine, QueryOutput};
pub use http::{Request, Response, Server};
pub use metrics::QueryMetrics;
pub use plan::QueryPlan;
