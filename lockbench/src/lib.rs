//! # lockbench
//!
//! The repository's benchmark, built as a package of its own: six workloads
//! over the suite, archive and serve paths, timed from outside through the
//! program's public functions, each run checking the program's output
//! against an in-memory reference rendering. `README.md` beside this crate
//! is the registry of names, the reasons for each workload and the
//! predictions of which layer moves which number.

pub mod cli;
pub mod client;
pub mod json;
pub mod layers;
pub mod names;
pub mod report;
pub mod span;
pub mod stamp;
pub mod stats;
pub mod trace;
pub mod workloads;
