//! The primitives every plane shares, each said exactly once.
//!
//! The reproduction compares vantage points only because one definition is
//! applied at all of them; its own planes hold to the same rule. This
//! crate sits at the bottom of the dependency graph (it depends on
//! nothing) and owns the four things that used to be re-derived per crate:
//!
//! - [`hash`] — the splitmix64 step, its stateful stream, the seeded fold
//!   that every fingerprint and fault schedule is built from, and the
//!   top-53-bits `[0, 1)` draw;
//! - [`crc`] — the table-driven IEEE CRC-32 that segments, manifests,
//!   consumer-state frames and shard frames carry;
//! - [`spec`] — the `key=value,key=value` grammar behind both `--chaos`
//!   flags;
//! - [`metrics`] — the atomic registry, its one Prometheus-style renderer,
//!   and [`metrics_family!`], which declares a family's metrics once.
//!
//! Seeded output is a contract: every value here is pinned by a test, and
//! `scripts/verify.sh` fails by name if a primitive is copied elsewhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod hash;
pub mod metrics;
pub mod spec;
