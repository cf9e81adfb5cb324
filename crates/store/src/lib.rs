//! Columnar flow archive + replay: spill generated engine cells once,
//! replay them byte-identically forever.
//!
//! The trace engine's cost is dominated by flow generation. This crate
//! adds a persistence layer beneath it: each generated `(stream, date,
//! hour)` cell is encoded as a per-column segment ([`segment`]) with zone
//! maps and a CRC, appended to its `(stream, day)` pack and indexed by a
//! manifest ([`archive`], its entries in the wire form the shard protocol
//! shares) keyed by seed, scenario hash and plan hash. A
//! later run with the same generation key replays decoded segments (a
//! day pack at a time: [`ArchiveReader::read_run`]) through the identical
//! consumer machinery and produces byte-identical output without
//! generating a single flow;
//! any key mismatch marks the archive stale and the run regenerates.
//! Everything is dependency-light: the encodings are hand-rolled
//! bit-packed columns and varints over `std::fs`, no serialization or
//! compression crates involved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod archive;
mod codec;
pub mod metrics;
pub mod scan;
pub mod segment;

pub use archive::{
    gc_dir, scenario_subdir, ArchiveReader, ArchiveWriter, SegmentMeta, SegmentRun, SpillFault,
    StoreKey, JOURNAL_NAME, MANIFEST_NAME, MANIFEST_VERSION, PACKS_DIR,
};
pub use metrics::StoreMetrics;
pub use scan::TimeRange;
pub use segment::Column;

use lockdown_flow::wire::WireError;
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
    /// An archive file (manifest, journal or segment) of another format
    /// version: an archive to rebuild, not to read.
    Version {
        /// The file's name.
        file: String,
        /// The version it carries.
        found: u16,
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
            StoreError::Version { file, found } => write!(
                f,
                "archive file {file} is format version {found}; this build reads version \
                 {MANIFEST_VERSION}: rebuild the archive"
            ),
            StoreError::Missing { what } => write!(f, "missing from archive: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// A failed read of `file`'s bytes: a container header of another
    /// version is [`StoreError::Version`], anything else corruption.
    pub(crate) fn wire(file: &str, e: WireError) -> StoreError {
        match e {
            WireError::BadVersion { found, .. } => StoreError::Version {
                file: file.to_string(),
                found,
            },
            e => corrupt(file, e.to_string()),
        }
    }
}

pub(crate) fn corrupt(file: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        segment: file.to_string(),
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_context() {
        let e = StoreError::Corrupt {
            segment: "pack-1-18300.lkp@4096".into(),
            detail: "CRC mismatch".into(),
        };
        assert_eq!(
            e.to_string(),
            "corrupt archive file pack-1-18300.lkp@4096: CRC mismatch"
        );
        let e = StoreError::Version {
            file: "manifest.lks".into(),
            found: 1,
        };
        assert_eq!(
            e.to_string(),
            "archive file manifest.lks is format version 1; this build reads version 4: \
             rebuild the archive"
        );
        let e = StoreError::Io {
            path: "/tmp/x".into(),
            detail: "denied".into(),
        };
        assert!(e.to_string().contains("/tmp/x"));
    }
}
