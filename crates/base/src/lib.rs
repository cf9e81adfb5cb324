//! The primitives every plane shares, each said exactly once.
//!
//! The reproduction compares vantage points only because one definition is
//! applied at all of them; its own planes hold to the same rule. This
//! crate sits at the bottom of the dependency graph (it depends on
//! nothing) and owns the things that used to be re-derived per crate or
//! taken from an external one:
//!
//! - [`hash`] — the splitmix64 step, the seeded fold that every
//!   fingerprint, fault schedule and cell stream is addressed by, and its
//!   stateful stream with the draws the generators make from it (`[0, 1)`
//!   float, `below`/`range`, `chance`, `pick`, `shuffle`);
//! - [`prop`] — the seeded case driver every property test runs under;
//! - [`crc`] — the table-driven IEEE CRC-32 that segments, manifests,
//!   consumer-state frames and shard frames carry;
//! - [`spec`] — the `key=value,key=value` grammar behind `--chaos`;
//! - [`fault`] — the one fault schedule: every fault kind of every plane,
//!   its `--chaos` key, its salt and its decision;
//! - [`metrics`] — the atomic registry, its one Prometheus-style renderer,
//!   and [`metrics_family!`], which declares a family's metrics once;
//! - [`net`] — socket lifecycle: the one poll tick, the stop handle, the
//!   accept loop every TCP server runs and the bounded accept.
//!
//! Seeded output is a contract: every value here is pinned by a test, and
//! `scripts/verify.sh` fails by name if a primitive is copied elsewhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod crc;
pub mod fault;
pub mod hash;
pub mod metrics;
pub mod net;
pub mod prop;
pub mod spec;
