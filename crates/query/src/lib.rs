//! The query plane: serve the archive, don't just replay it.
//!
//! The columnar store (PR 4) was built with one consumer — the figure
//! suite's replay path. This crate turns it into a read-serving layer
//! with a second, independent consumer: a [`plan::QueryPlan`] predicate
//! language (time range, vantage, traffic class, AS, port, direction)
//! compiled against the archive manifest, executed by a
//! [`engine::QueryEngine`] with predicate pushdown — manifest time spans
//! and segment zone-map footers prune whole segments before any column
//! is decoded — and a byte-budgeted LRU (`cache`) of decoded hot
//! segments so dashboard-style repeat queries never re-decode. On top
//! sit a hand-rolled HTTP/1.1 server ([`http`]) over
//! `std::net::TcpListener` with a bounded connection pool and a
//! Prometheus-style `query_*` metrics family ([`metrics`]), and a
//! concurrent load generator ([`loadgen`]) that both *verifies* (served
//! figures must be byte-identical to the engine's own output) and
//! *stresses* (thousands of keep-alive clients, p50/p99/p999 reporting).
//!
//! Like its siblings the crate is dependency-free beyond the workspace:
//! HTTP parsing, JSON encoding and the seeded request mix are all
//! hand-rolled over `std`.

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
pub use loadgen::LoadConfig;
pub use metrics::QueryMetrics;
pub use plan::QueryPlan;
