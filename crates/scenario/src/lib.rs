//! # lockdown-scenario
//!
//! The COVID-19 scenario model: *when* behaviour changed and *how much*,
//! per region, application class, and hour of day.
//!
//! This crate is the reproduction's substitute for reality. The paper
//! measures what the pandemic did to traffic; this crate encodes those
//! measured effects as a generative model, so the synthetic traces the
//! `lockdown-traffic` crate emits carry the same structure the paper's
//! pipeline extracts back out:
//!
//! * [`calendar`] — 2020 day types, holidays (Easter is weekend-like, §4),
//!   and the exact analysis weeks each figure selects;
//! * [`phases`] — lockdown phases and the behavioural intensity curve a
//!   region's measures describe (Europe in March, the US East Coast
//!   trailing);
//! * [`diurnal`] — hour-of-day shapes: workday evening peaks, weekend
//!   morning momentum, the lockdown morph (Fig. 2);
//! * [`apps`] — the application-class taxonomy with port signatures from
//!   §4, Table 1 and Appendix B;
//! * [`demand`] — the calibrated demand model: expected Gbps per
//!   (vantage, class, date, hour), with events (resolution reduction,
//!   gaming outage) and vantage-level factors (mobile dip, roaming
//!   collapse);
//! * [`edu`] — the §7 educational-network model: campus presence, remote
//!   activity, per-class connection growth (VPN 4.8×, SSH 9.1×, …);
//! * [`measures`] — the scenario DSL: declarative dated measures and
//!   events that the phase/demand/edu interpreters evaluate; the default
//!   spring-2020 calibration is `scenarios/covid-spring-2020.toml`,
//!   compiled in;
//! * [`toml`] — the in-crate TOML subset parser scenario files use.
//!
//! Calibration numbers flow *only* through generated traffic: the analysis
//! crate never reads this model, so reproducing a figure means the pipeline
//! actually recovered the effect from flow data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod apps;
pub mod calendar;
pub mod demand;
pub mod diurnal;
pub mod edu;
pub mod measures;
pub mod phases;
pub mod toml;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::apps::{AppClass, PortSig, GAMING_PORTS};
    pub use crate::calendar::{
        day_type, study_start, AnalysisWeek, DayType, APPCLASS_ISP_WEEKS, APPCLASS_IXP_WEEKS,
        EDU_WEEKS, FIG3_WEEKS, PORTS_ISP_WEEKS, PORTS_IXP_WEEKS,
    };
    pub use crate::demand::{app_share, DayDemand, DemandModel};
    pub use crate::diurnal::{blend, peak_hour, shape, DiurnalProfile};
    pub use crate::edu::{EduClass, EduModel};
    pub use crate::measures::ScenarioSpec;
}
