//! Umbrella crate re-exporting the whole `lockdown` workspace, plus the
//! HTTP application ([`app`]) shared by `lockdown serve` and the tests,
//! and the seeded wire-chaos proxy ([`wirechaos`]) behind `lockdown
//! chaosproxy`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod app;
pub mod wirechaos;

pub use lockdown_analysis as analysis;
pub use lockdown_base as base;
pub use lockdown_collect as collect;
pub use lockdown_core as core;
pub use lockdown_flow as flow;
pub use lockdown_query as query;
pub use lockdown_scenario as scenario;
pub use lockdown_shard as shard;
pub use lockdown_store as store;
pub use lockdown_topology as topology;
pub use lockdown_traffic as traffic;
