//! Columnar flow archive + replay: spill generated engine cells once,
//! replay them byte-identically forever.
//!
//! The trace engine's cost is dominated by flow generation. This crate
//! adds a persistence layer beneath it: each generated `(stream, date,
//! hour)` cell is encoded as a per-column segment ([`segment`]) with zone
//! maps and a CRC, filed under a manifest ([`archive`]) keyed by seed,
//! scenario hash and plan hash. A later run with the same generation key
//! replays decoded segments ([`ArchiveReader::read_cell`]) through the
//! identical consumer machinery and produces byte-identical output without
//! generating a single flow; any key mismatch marks the archive stale and
//! the run regenerates. Everything is dependency-light: the encodings are
//! hand-rolled varints/deltas over `std::fs`, no serialization or
//! compression crates involved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod codec;
pub mod metrics;
pub mod scan;
pub mod segment;

pub use archive::{
    gc_dir, scenario_subdir, segment_file_name, ArchiveReader, ArchiveWriter, GcReport,
    SegmentMeta, SpillFault, StoreKey, VerifyReport, JOURNAL_NAME, MANIFEST_NAME, SEGMENTS_DIR,
};
pub use metrics::StoreMetrics;
pub use scan::TimeRange;
pub use segment::{Column, SegmentFooter, ZoneMap};

use std::fmt;

/// Errors from the archive layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A segment or manifest failed CRC or structural validation. Always
    /// names the offending file.
    Corrupt {
        /// File name of the bad segment (or the manifest).
        segment: String,
        /// What failed.
        detail: String,
    },
    /// Something the caller demanded is not in the archive.
    Missing {
        /// What was demanded.
        what: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => write!(f, "archive I/O error at {path}: {detail}"),
            StoreError::Corrupt { segment, detail } => {
                write!(f, "corrupt archive file {segment}: {detail}")
            }
            StoreError::Missing { what } => write!(f, "missing from archive: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_context() {
        let e = StoreError::Corrupt {
            segment: "seg-1-18300-09.lks".into(),
            detail: "CRC mismatch".into(),
        };
        assert_eq!(
            e.to_string(),
            "corrupt archive file seg-1-18300-09.lks: CRC mismatch"
        );
        let e = StoreError::Io {
            path: "/tmp/x".into(),
            detail: "denied".into(),
        };
        assert!(e.to_string().contains("/tmp/x"));
    }
}
