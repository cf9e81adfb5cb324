//! One driver per figure and table of the paper.
//!
//! Every driver declares its trace demands on an [`crate::engine`] plan
//! (`plan(..)`), and assembles its typed result from the finished pass
//! (`finish(..)`); a back-compat `run(..)` wraps both in a standalone
//! engine pass. [`figures::FIGURES`] lists every driver once, and
//! [`suite::run_all`] composes them all onto one shared plan so each
//! overlapping `(stream, date, hour)` cell is generated exactly once.
//! Every result carries a plain-text `render()`.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig1`] | Fig. 1 — weekly traffic across vantage points |
//! | [`fig2`] | Fig. 2 — diurnal patterns and day classification |
//! | [`fig3`] | Fig. 3 — hourly volumes for the four analysis weeks |
//! | [`fig4`] | Fig. 4 — hypergiant vs. other-AS growth |
//! | [`fig5`] | Fig. 5 — IXP port-utilization ECDFs |
//! | [`fig6`] | Fig. 6 — per-AS total vs. residential shifts |
//! | [`fig7`] | Fig. 7 — top application ports |
//! | [`fig8`] | Fig. 8 — gaming at IXP-SE |
//! | [`fig9`] | Fig. 9 — application-class heatmaps |
//! | [`fig10`] | Fig. 10 — VPN: port- vs. domain-identified |
//! | [`fig11_12`] | Figs. 11–12 and §7 statistics — the EDU network |
//! | [`sec3_4`] | §3.4 — remote-work AS ratio groups |
//! | [`sec9`] | §9 — peak vs. valley growth decomposition |
//! | [`tables`] | Table 1 (filters) and Table 2 (hypergiants) |

pub mod fig1;
pub mod fig10;
pub mod fig11_12;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod sec3_4;
pub mod sec9;
pub mod tables;

pub mod figures;
pub mod suite;

/// The seeds a paper claim that sits near its band's edge is asserted
/// over, every one: a claim that holds at one seed and not the next is a
/// calibration bug a single replicate hides.
#[cfg(test)]
pub(crate) const CLAIM_SEEDS: std::ops::RangeInclusive<u64> = 1..=16;

/// The stress slices and contract check of `lockdown-analysis`' consumer
/// tests, for the two consumers private to this crate.
#[cfg(test)]
#[path = "../../../analysis/tests/support/mod.rs"]
mod hour_slices;
