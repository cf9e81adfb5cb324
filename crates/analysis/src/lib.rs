//! # lockdown-analysis
//!
//! The paper's measurement pipeline, reimplemented over synthetic flow
//! records. Nothing here reads the scenario's demand model: every result is
//! recovered from flow data alone, which is what makes the figure
//! reproductions meaningful.
//!
//! * [`timeseries`] — hourly/daily/weekly binning and normalization;
//! * [`ecdf`] — empirical CDFs (Fig. 5's presentation);
//! * [`dayclass`] — the 6-hour workday-/weekend-like classifier (Fig. 2);
//! * [`linkutil`] — calibrated IXP member port utilization (Fig. 5);
//! * [`asgroup`] — hypergiant/other splits (Fig. 4), remote-work AS
//!   grouping and the residential-shift scatter (§3.4, Fig. 6);
//! * [`ports`] — service-port attribution and top-port profiles (Fig. 7);
//! * [`appclass`] — the Table 1 filter inventory, classification, Fig. 9
//!   heatmaps and Fig. 8 usage metrics;
//! * [`vpn`] — §6's two VPN identification methods (Fig. 10);
//! * [`edu`] — §7's directionality and connection-level analysis
//!   (Figs. 11–12);
//! * [`codec`] — versioned, CRC-checked consumer-state frames for the
//!   coordinator/worker shard subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod appclass;
pub mod asgroup;
pub mod codec;
pub mod consumer;
pub mod dayclass;
pub mod ecdf;
pub mod edu;
pub mod linkutil;
pub mod ports;
mod slots;
pub mod timeseries;
pub mod vpn;

#[cfg(test)]
mod reference;
/// The seeded record generator of this crate's integration tests, which
/// name the crate as `lockdown_analysis`.
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;
#[cfg(test)]
extern crate self as lockdown_analysis;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::appclass::{heatmap_diff, Classifier, PaperClass, WeekHeatmap};
    pub use crate::asgroup::{
        residential_shift, shift_correlation, DayPart, HypergiantSplit, QuadrantCounts, RatioGroup,
        ResidentialShift,
    };
    pub use crate::codec::{encode_frame, merge_frame, CodecError, ConsumerTag, StateReader};
    pub use crate::consumer::{
        AsTotalsConsumer, ClassUsageConsumer, FlowConsumer, HeatmapConsumer, HypergiantConsumer,
        PortConsumer,
    };
    pub use crate::dayclass::{ClassificationSummary, ClassifiedDay, DayClassifier, DayPattern};
    pub use crate::ecdf::Ecdf;
    pub use crate::edu::{EduAnalysis, EduTrafficClass, Orientation};
    pub use crate::linkutil::{AsHourly, LinkUtilization, MemberUtilization};
    pub use crate::ports::{tcp443, tcp80, PortProfile, ServiceKey};
    pub use crate::timeseries::{mean, median, normalize, normalize_by_min, HourlyVolume};
    pub use crate::vpn::{is_port_vpn, VpnClassifier, VpnMethod};
}
