//! Seeded wire-chaos: a deterministic TCP/UDP fault-injecting proxy.
//!
//! A [`TcpProxy`] or [`UdpProxy`] sits between any two planes of the
//! pipeline — coordinator↔worker, export↔collectd, loadgen↔serve — and
//! mangles traffic on the schedule of a
//! [`lockdown_base::fault::FaultProfile`]: a TCP chunk's fault is keyed on
//! `(connection, direction, chunk)`, a datagram's on its arrival index.
//! The same seed replays the same faults, so a failing run is a repro
//! case, not an anecdote. The fault vocabulary and every decision live in
//! `lockdown_base::fault`; this crate relays, and tallies what it did.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod tcp;
mod udp;

pub use tcp::TcpProxy;
pub use udp::UdpProxy;

lockdown_base::metrics_family! {
    /// Lock-free tallies of what a proxy actually did — the ground truth a
    /// fault-matrix test checks injected faults against. Rendered by the one
    /// exposition renderer, same school as every other plane's family.
    pub struct ProxyMetrics {
        connections: counter("wirechaos_connections", "TCP connections accepted"),
        chunks: counter("wirechaos_chunks", "TCP chunks relayed (mangled or not)"),
        bytes_up: counter("wirechaos_bytes_up", "Bytes relayed client to upstream"),
        bytes_down: counter("wirechaos_bytes_down", "Bytes relayed upstream to client"),
        corrupted: counter("wirechaos_corrupted", "Chunks or datagrams with a byte flipped"),
        /// (by `trunc` or the one-shot `cut-payload`).
        truncated: counter("wirechaos_truncated", "Chunks cut in half, severing the link"),
        split: counter("wirechaos_split", "Chunks relayed one byte per write"),
        delayed: counter("wirechaos_delayed", "Chunks or datagrams held for added latency"),
        resets: counter("wirechaos_resets", "Connections severed by a reset draw"),
        stalls: counter("wirechaos_stalls", "Directions stalled forever"),
        datagrams: counter("wirechaos_datagrams", "UDP datagrams relayed"),
        dropped: counter("wirechaos_dropped", "UDP datagrams swallowed"),
        duplicated: counter("wirechaos_duplicated", "UDP datagrams delivered twice"),
    }
}
