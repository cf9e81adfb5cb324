//! # lockdown-flow
//!
//! The flow-record substrate for the `lockdown` workspace — everything the
//! paper's vantage points use to *represent* traffic.
//!
//! "The Lockdown Effect" (Feldmann et al., IMC 2020) analyzes NetFlow and
//! IPFIX flow summaries: the ISP exports NetFlow at its border routers, the
//! three IXPs export IPFIX from their peering fabrics, and the educational
//! network provides anonymized NetFlow (§2). This crate implements that
//! data plane from the wire up:
//!
//! * [`record`] — the normalized [`record::FlowRecord`] all analyses consume;
//! * [`protocol`] — IP protocol numbers and TCP flags;
//! * [`time`] — a minimal civil-time substrate (the paper's analyses are
//!   organized by 2020 calendar weeks, workdays, and lockdown dates);
//! * [`wire`] — cursor-based, allocation-free big-endian parsing helpers
//!   following the `check`/`parse` idiom;
//! * [`netflow::v5`], [`netflow::v9`], [`ipfix`] — encoders and decoders for
//!   the three export formats, including v9/IPFIX template machinery;
//! * [`exporter`] / [`collector`] — the stateful endpoints that batch
//!   records into datagrams and reassemble them, with template refresh and
//!   mid-stream-join semantics;
//! * [`anon`] — prefix-preserving IP anonymization (the paper's §2.1 hashes
//!   addresses; prefix preservation keeps IP-to-AS attribution working).
//!
//! ## Example
//!
//! ```
//! use lockdown_flow::prelude::*;
//! use std::net::Ipv4Addr;
//!
//! let boot = Date::new(2020, 3, 25).midnight();
//! let now = boot.add_hours(8);
//! let flow = FlowRecord::builder(
//!     FlowKey {
//!         src_addr: Ipv4Addr::new(100, 64, 0, 1),
//!         dst_addr: Ipv4Addr::new(192, 0, 2, 1),
//!         src_port: 54_321,
//!         dst_port: 443,
//!         protocol: IpProtocol::Tcp,
//!     },
//!     now,
//! )
//! .end(now.add_secs(42))
//! .bytes(1_000_000)
//! .packets(700)
//! .build();
//!
//! // Export as IPFIX, collect, and get the record back.
//! let mut exporter = Exporter::new(ExporterConfig::new(ExportFormat::Ipfix, boot));
//! let datagrams = exporter.export_all(&[flow], now.add_secs(60));
//! let mut collector = Collector::new();
//! collector.ingest_all(datagrams.iter().map(|d| d.as_slice()));
//! assert_eq!(collector.records()[0].bytes, 1_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod anon;
pub mod collector;
pub mod exporter;
pub mod ipfix;
pub mod netflow;
pub mod protocol;
pub mod record;
pub mod sampling;
pub mod time;
pub mod tracefile;
pub mod wire;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::anon::Anonymizer;
    pub use crate::collector::{Collector, CollectorStats};
    pub use crate::exporter::{ExportFormat, Exporter, ExporterConfig};
    pub use crate::netflow::{FieldSpec, Template};
    pub use crate::protocol::{IpProtocol, TcpFlags};
    pub use crate::record::{hour_runs, Direction, FlowKey, FlowRecord, HourRun};
    pub use crate::sampling::{FlowSampler, ThresholdSampler};
    pub use crate::time::{Date, Timestamp, Weekday};
    pub use crate::tracefile::{TraceReader, TraceWriter};
    pub use crate::wire::{WireError, WireResult};
}
