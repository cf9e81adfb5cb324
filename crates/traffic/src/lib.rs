//! # lockdown-traffic
//!
//! Deterministic synthetic flow-trace generation: the stand-in for the
//! paper's proprietary NetFlow/IPFIX feeds.
//!
//! The generator materializes [`lockdown_flow::record::FlowRecord`]s whose
//! aggregate statistics follow the calibrated demand model of
//! `lockdown-scenario`: per-class volumes, diurnal shapes, lockdown growth,
//! per-AS attribution, VPN endpoints from the DNS corpus, and the EDU
//! network's directional flip. Every `(vantage, class, date, hour)` cell is
//! independently seeded, so experiments regenerate any slice of the trace
//! bit-identically and in parallel.
//!
//! * [`config`] — resolution knobs (flows and users per Gbps);
//! * [`sizes`] — heavy-tailed flow sizes, packet counts, durations;
//! * `picker` — endpoint selection (AS, address, port) with hypergiant
//!   shares and real VPN gateway addresses;
//! * [`generate`] — the main generator plus the ISP transit view (§3.4);
//! * [`plan`] — deduplicated generation plans shared across consumers
//!   (the substrate of the single-pass trace engine);
//! * [`edu_gen`] — the §7 educational-network generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod config;
pub mod edu_gen;
pub mod generate;
mod picker;
pub mod plan;
pub mod sizes;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::config::GeneratorConfig;
    pub use crate::edu_gen::EduGenerator;
    pub use crate::generate::TrafficGenerator;
    pub use crate::plan::{Cell, Stream, TraceEmitter, TracePlan};
}
