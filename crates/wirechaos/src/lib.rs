//! Seeded wire-chaos: a deterministic TCP/UDP fault-injecting proxy.
//!
//! `crates/chaos` owns *process*-level faults (worker kills, torn
//! spills); this crate owns the *wire*. A [`TcpProxy`] or [`UdpProxy`]
//! sits between any two planes of the pipeline — coordinator↔worker,
//! export↔collectd, loadgen↔serve — and mangles traffic on a schedule
//! that is a pure function of `(seed, connection, direction, chunk)`:
//! the same seed replays the same faults, so a failing run is a
//! repro case, not an anecdote.
//!
//! The fault vocabulary (all opt-in via [`WireChaosConfig::parse`]):
//!
//! | key            | plane | effect                                           |
//! |----------------|-------|--------------------------------------------------|
//! | `corrupt=P`    | TCP   | flip one byte of a relayed chunk                 |
//! | `trunc=P`      | TCP   | forward half a chunk, then sever the connection  |
//! | `split=P`      | TCP   | relay the chunk one byte per `write` call        |
//! | `delay=P` + `delay-ms=N` | both | hold a chunk/datagram for `N` ms       |
//! | `reset=P`      | TCP   | sever the connection before relaying the chunk   |
//! | `stall=P`      | TCP   | stop relaying this direction forever (hold open) |
//! | `cut-payload=N`| TCP   | once per proxy: first server→client chunk of at  |
//! |                |       | least `N` bytes is cut in half, then severed     |
//! | `min-len=N`    | TCP   | `corrupt`/`trunc` draws only consider chunks of  |
//! |                |       | at least `N` bytes (spares tiny control frames)  |
//! | `drop=P`       | UDP   | swallow the datagram                             |
//! | `dup=P`        | UDP   | deliver the datagram twice                       |
//! | `corrupt=P`    | UDP   | flip one byte of the datagram                    |
//!
//! Like its process-level sibling this crate has no external
//! dependencies and does all randomness through `lockdown-base`'s
//! splitmix64 folding, so schedules never shift when unrelated draws are
//! added.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tcp;
mod udp;

pub use tcp::TcpProxy;
pub use udp::UdpProxy;

use lockdown_base::hash::{fold, unit};
use lockdown_base::spec::{self, Key, Set::Count, Set::Prob};

/// Relay buffer size: one proxied "chunk" is one `read` into this much.
pub const CHUNK_LEN: usize = 64 << 10;

/// Salt for byte-corruption draws.
const CORRUPT_SALT: u64 = 0x0005_7c1c_0477_u64;
/// Salt for truncation draws.
const TRUNC_SALT: u64 = 0x0057_c172_411c_u64;
/// Salt for write-splitting draws.
const SPLIT_SALT: u64 = 0x0005_7c15_9117_u64;
/// Salt for latency draws.
const DELAY_SALT: u64 = 0x0005_7c1d_e1a1_u64;
/// Salt for connection-reset draws.
const RESET_SALT: u64 = 0x0005_7c14_e5e7_u64;
/// Salt for stall draws.
const STALL_SALT: u64 = 0x0005_7c15_7a11_u64;
/// Salt for UDP drop draws.
const DROP_SALT: u64 = 0x57c1_d409_u64;
/// Salt for UDP duplication draws.
const DUP_SALT: u64 = 0x57c1_d119_u64;
/// Salt for picking which byte to flip and what to xor it with.
const FLIP_SALT: u64 = 0x57c1_f119_u64;

/// Initial constant of every schedule fold; every draw in this crate is
/// a pure function of the folded keys, never of call order. Historical:
/// proxy schedules are pinned to it (`lockdown_base::hash` tests hold the
/// vector).
const SCHEDULE_INIT: u64 = 0x10cd_d047_2020_c4a5;

/// Traffic direction through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → upstream (what the dialing side sends).
    Up,
    /// Upstream → client (what the accepting side answers).
    Down,
}

impl Direction {
    fn code(self) -> u64 {
        match self {
            Direction::Up => 0,
            Direction::Down => 1,
        }
    }

    /// Short label for metrics and logs.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Up => "up",
            Direction::Down => "down",
        }
    }
}

/// Parsed wire-chaos specification. All probabilities are per-chunk
/// (TCP) or per-datagram (UDP); a zeroed config is a pure passthrough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireChaosConfig {
    /// Root of every schedule.
    pub seed: u64,
    /// Probability a relayed TCP chunk (or UDP datagram) has one byte
    /// flipped.
    pub corrupt: f64,
    /// Probability a relayed chunk is cut in half and the connection
    /// severed.
    pub trunc: f64,
    /// Probability a chunk is written one byte per syscall.
    pub split: f64,
    /// Probability a chunk/datagram is delayed by [`Self::delay_ms`].
    pub delay: f64,
    /// Added latency for delayed chunks, milliseconds.
    pub delay_ms: u64,
    /// Probability the connection is severed before a chunk is relayed.
    pub reset: f64,
    /// Probability this direction of the connection stalls forever
    /// (held open, nothing relayed again).
    pub stall: f64,
    /// When non-zero: exactly once per proxy lifetime, the first
    /// upstream→client chunk of at least this many bytes is forwarded
    /// only halfway, then the connection is severed. A deterministic
    /// mid-frame reset for reconnect/resume gates.
    pub cut_payload: usize,
    /// `corrupt` and `trunc` draws only consider chunks of at least
    /// this many bytes; small control traffic passes clean.
    pub min_len: usize,
    /// Probability a UDP datagram is swallowed.
    pub drop: f64,
    /// Probability a UDP datagram is delivered twice.
    pub dup: f64,
}

impl WireChaosConfig {
    /// A passthrough config: no faults, seed zero.
    pub fn zero() -> WireChaosConfig {
        WireChaosConfig {
            seed: 0,
            corrupt: 0.0,
            trunc: 0.0,
            split: 0.0,
            delay: 0.0,
            delay_ms: 10,
            reset: 0.0,
            stall: 0.0,
            cut_payload: 0,
            min_len: 0,
            drop: 0.0,
            dup: 0.0,
        }
    }

    /// Whether every fault channel is off.
    pub fn is_zero(&self) -> bool {
        self.corrupt == 0.0
            && self.trunc == 0.0
            && self.split == 0.0
            && self.delay == 0.0
            && self.reset == 0.0
            && self.stall == 0.0
            && self.cut_payload == 0
            && self.drop == 0.0
            && self.dup == 0.0
    }

    /// Parse a `key=value,key=value` spec (same grammar as the
    /// process-chaos `--chaos` flag). Unknown keys, malformed numbers
    /// and out-of-range probabilities are errors, not defaults.
    pub fn parse(spec: &str) -> Result<WireChaosConfig, String> {
        let mut cfg = WireChaosConfig::zero();
        spec::parse("wire-chaos", KEYS, spec, &mut cfg)?;
        Ok(cfg)
    }
}

/// The `chaosproxy --chaos` vocabulary (the table in the crate docs).
const KEYS: &[Key<WireChaosConfig>] = &[
    ("seed", Count(|c, v| c.seed = v)),
    ("corrupt", Prob(|c, v| c.corrupt = v)),
    ("trunc", Prob(|c, v| c.trunc = v)),
    ("split", Prob(|c, v| c.split = v)),
    ("delay", Prob(|c, v| c.delay = v)),
    ("delay-ms", Count(|c, v| c.delay_ms = v)),
    ("reset", Prob(|c, v| c.reset = v)),
    ("stall", Prob(|c, v| c.stall = v)),
    ("cut-payload", Count(|c, v| c.cut_payload = v as usize)),
    ("min-len", Count(|c, v| c.min_len = v as usize)),
    ("drop", Prob(|c, v| c.drop = v)),
    ("dup", Prob(|c, v| c.dup = v)),
];

/// What the schedule says to do with one TCP chunk. At most one fault
/// fires per chunk; severing faults win over mangling ones so a chunk
/// is never both corrupted and cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFault {
    /// Relay unmodified.
    None,
    /// Sever the connection without relaying this chunk.
    Reset,
    /// Stop relaying this direction forever, holding the socket open.
    Stall,
    /// Relay the first half, then sever.
    Truncate,
    /// Flip `byte index` with `xor` (xor is never zero).
    Corrupt {
        /// Index into the chunk of the byte to flip.
        index: usize,
        /// Non-zero value to xor the byte with.
        xor: u8,
    },
    /// Relay one byte per `write` call.
    Split,
    /// Sleep this many milliseconds, then relay unmodified.
    Delay(u64),
}

/// The seeded decision engine. Cheap to copy; every proxy connection
/// shares one.
#[derive(Debug, Clone, Copy)]
pub struct WireSchedule {
    cfg: WireChaosConfig,
}

impl WireSchedule {
    /// Build a schedule over `cfg`.
    pub fn new(cfg: WireChaosConfig) -> WireSchedule {
        WireSchedule { cfg }
    }

    /// The config this schedule draws from.
    pub fn config(&self) -> &WireChaosConfig {
        &self.cfg
    }

    /// Decide the fate of TCP chunk `chunk_idx` of `len` bytes flowing
    /// in `dir` on connection `conn`. Pure: same keys, same fault.
    pub fn tcp_fault(&self, conn: u64, dir: Direction, chunk_idx: u64, len: usize) -> ChunkFault {
        let c = &self.cfg;
        let keys = |salt: u64| [c.seed, salt, conn, dir.code(), chunk_idx];
        if c.reset > 0.0 && unit(fold(SCHEDULE_INIT, keys(RESET_SALT))) < c.reset {
            return ChunkFault::Reset;
        }
        if c.stall > 0.0 && unit(fold(SCHEDULE_INIT, keys(STALL_SALT))) < c.stall {
            return ChunkFault::Stall;
        }
        let big_enough = len >= c.min_len;
        if big_enough && c.trunc > 0.0 && unit(fold(SCHEDULE_INIT, keys(TRUNC_SALT))) < c.trunc {
            return ChunkFault::Truncate;
        }
        if big_enough
            && c.corrupt > 0.0
            && unit(fold(SCHEDULE_INIT, keys(CORRUPT_SALT))) < c.corrupt
        {
            let h = fold(SCHEDULE_INIT, keys(FLIP_SALT));
            return ChunkFault::Corrupt {
                index: (h as usize) % len.max(1),
                xor: ((h >> 32) as u8).max(1),
            };
        }
        if c.split > 0.0 && unit(fold(SCHEDULE_INIT, keys(SPLIT_SALT))) < c.split {
            return ChunkFault::Split;
        }
        if c.delay > 0.0 && unit(fold(SCHEDULE_INIT, keys(DELAY_SALT))) < c.delay {
            return ChunkFault::Delay(c.delay_ms);
        }
        ChunkFault::None
    }

    /// Decide the fate of UDP datagram number `idx` of `len` bytes.
    pub fn udp_fault(&self, idx: u64, len: usize) -> UdpFault {
        let c = &self.cfg;
        let keys = |salt: u64| [c.seed, salt, idx];
        if c.drop > 0.0 && unit(fold(SCHEDULE_INIT, keys(DROP_SALT))) < c.drop {
            return UdpFault::Drop;
        }
        if c.dup > 0.0 && unit(fold(SCHEDULE_INIT, keys(DUP_SALT))) < c.dup {
            return UdpFault::Duplicate;
        }
        if len >= c.min_len
            && c.corrupt > 0.0
            && unit(fold(SCHEDULE_INIT, keys(CORRUPT_SALT))) < c.corrupt
        {
            let h = fold(SCHEDULE_INIT, keys(FLIP_SALT));
            return UdpFault::Corrupt {
                index: (h as usize) % len.max(1),
                xor: ((h >> 32) as u8).max(1),
            };
        }
        if c.delay > 0.0 && unit(fold(SCHEDULE_INIT, keys(DELAY_SALT))) < c.delay {
            return UdpFault::Delay(c.delay_ms);
        }
        UdpFault::None
    }
}

/// What the schedule says to do with one UDP datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpFault {
    /// Forward unmodified.
    None,
    /// Swallow the datagram.
    Drop,
    /// Forward it twice.
    Duplicate,
    /// Flip one byte, then forward.
    Corrupt {
        /// Index into the datagram of the byte to flip.
        index: usize,
        /// Non-zero value to xor the byte with.
        xor: u8,
    },
    /// Sleep this many milliseconds, then forward.
    Delay(u64),
}

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

impl ProxyMetrics {
    /// Total chunks/datagrams that had any fault applied.
    pub fn faults(&self) -> u64 {
        [
            &self.corrupted,
            &self.truncated,
            &self.split,
            &self.delayed,
            &self.resets,
            &self.stalls,
            &self.dropped,
            &self.duplicated,
        ]
        .iter()
        .map(|m| m.get())
        .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grammar itself is tested in `lockdown_base::spec`; this pins
    /// the vocabulary: every key of the table lands in its own field.
    #[test]
    fn every_key_of_the_table_round_trips() {
        let spec = "seed=7,corrupt=0.5,trunc=0.1,split=0.2,delay=0.3,delay-ms=25,\
                    reset=0.05,stall=0.01,cut-payload=512,min-len=128,drop=0.4,dup=0.15";
        assert_eq!(spec.split(',').count(), KEYS.len(), "exercise every key");
        let want = WireChaosConfig {
            seed: 7,
            corrupt: 0.5,
            trunc: 0.1,
            split: 0.2,
            delay: 0.3,
            delay_ms: 25,
            reset: 0.05,
            stall: 0.01,
            cut_payload: 512,
            min_len: 128,
            drop: 0.4,
            dup: 0.15,
        };
        assert_eq!(WireChaosConfig::parse(spec), Ok(want));
        assert!(WireChaosConfig::parse("").unwrap().is_zero());
        assert!(WireChaosConfig::parse("seed=9").unwrap().is_zero());
        assert!(WireChaosConfig::parse("frobnicate=1").is_err());
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let cfg = WireChaosConfig::parse("seed=3,corrupt=0.3,reset=0.1,split=0.2").unwrap();
        let s = WireSchedule::new(cfg);
        for conn in 0..4u64 {
            for chunk in 0..64u64 {
                let a = s.tcp_fault(conn, Direction::Up, chunk, 1000);
                let b = s.tcp_fault(conn, Direction::Up, chunk, 1000);
                assert_eq!(a, b, "same keys, same fault");
            }
        }
        // A different seed must produce a different fault pattern.
        let other = WireSchedule::new(WireChaosConfig { seed: 4, ..cfg });
        let pattern = |s: &WireSchedule| -> Vec<ChunkFault> {
            (0..256u64)
                .map(|i| s.tcp_fault(0, Direction::Down, i, 1000))
                .collect()
        };
        assert_ne!(pattern(&s), pattern(&other));
    }

    #[test]
    fn min_len_spares_small_chunks() {
        let cfg = WireChaosConfig::parse("seed=1,corrupt=1,min-len=512").unwrap();
        let s = WireSchedule::new(cfg);
        for chunk in 0..128u64 {
            assert_eq!(
                s.tcp_fault(0, Direction::Up, chunk, 100),
                ChunkFault::None,
                "chunks under min-len pass clean"
            );
            assert!(matches!(
                s.tcp_fault(0, Direction::Up, chunk, 512),
                ChunkFault::Corrupt { .. }
            ));
        }
    }

    #[test]
    fn corrupt_xor_is_never_zero_and_index_in_range() {
        let cfg = WireChaosConfig::parse("seed=11,corrupt=1").unwrap();
        let s = WireSchedule::new(cfg);
        for chunk in 0..512u64 {
            match s.tcp_fault(3, Direction::Down, chunk, 37) {
                ChunkFault::Corrupt { index, xor } => {
                    assert!(index < 37);
                    assert_ne!(xor, 0, "xor 0 would be a silent no-op");
                }
                other => panic!("corrupt=1 must always corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn udp_faults_cover_the_vocabulary() {
        let cfg = WireChaosConfig::parse("seed=5,drop=0.3,dup=0.3,corrupt=0.3").unwrap();
        let s = WireSchedule::new(cfg);
        let mut seen_drop = false;
        let mut seen_dup = false;
        let mut seen_corrupt = false;
        let mut seen_none = false;
        for i in 0..512u64 {
            match s.udp_fault(i, 64) {
                UdpFault::Drop => seen_drop = true,
                UdpFault::Duplicate => seen_dup = true,
                UdpFault::Corrupt { index, xor } => {
                    assert!(index < 64);
                    assert_ne!(xor, 0);
                    seen_corrupt = true;
                }
                UdpFault::None => seen_none = true,
                UdpFault::Delay(_) => {}
            }
        }
        assert!(seen_drop && seen_dup && seen_corrupt && seen_none);
    }
}
