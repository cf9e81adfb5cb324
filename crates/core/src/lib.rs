//! # lockdown-core
//!
//! Experiment drivers reproducing every figure and table of "The Lockdown
//! Effect" (IMC 2020) over the synthetic substrate, plus text/CSV report
//! rendering. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod context;
pub mod engine;
pub mod experiments;
pub mod matrix;
pub mod report;
pub mod serve;
pub mod supervisor;

pub use context::{Context, Fidelity};
pub use matrix::{run_matrix, MatrixOptions, MatrixScenario};
