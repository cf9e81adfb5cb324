//! The one fault schedule: every injected fault of every plane is spelled
//! in [`KEYS`] and decided by [`Schedule`].
//!
//! A fault is decided by one rule, `unit(fold(domain, [seed, salt,
//! keys…])) < p`: a pure function of the seed, the fault kind's salt and
//! the identity of the thing it may hit — a `(cell, attempt)`, a shard
//! range, a TCP chunk, a datagram — never of the thread, the wall clock
//! or how many draws came before. The same seed replays the same faults,
//! so a failing run is a repro case, and two views of one pass (the
//! in-process transport, the UDP proxy, a test's prediction) name the
//! *same* dropped datagrams. A kind at `p == 0` hashes nothing.
//!
//! The `--chaos` vocabulary, one row per key. Each row names the plane it
//! acts on; a command refuses a key of a plane it does not run.
//!
//! | key            | plane      | effect                                        |
//! |----------------|------------|-----------------------------------------------|
//! | `seed=N`       | every      | root of every schedule                        |
//! | `panic=P`      | supervisor | panic the worker at the top of a cell attempt |
//! | `torn=P`       | supervisor | write the cell's segment short, then fail     |
//! | `enospc=P`     | supervisor | fail the segment spill with "no space left"   |
//! | `attempts=N`   | supervisor | attempt budget per cell (at least 1)          |
//! | `backoff=MS`   | supervisor | base of the doubling retry backoff            |
//! | `cap=MS`       | supervisor | bound on any one backoff                      |
//! | `wkill=P`      | shard      | kill the worker running a range attempt       |
//! | `wstall=P`     | shard      | stall it past the heartbeat timeout           |
//! | `stall=P`      | wire       | stall a cell's exporter fleet past its timeout|
//! | `restart=N`    | wire       | reboot each exporter every `N` datagrams      |
//! | `reorder=P`    | wire       | swap a delivered datagram with the one before |
//! | `drop=P`       | datagram   | swallow the datagram                          |
//! | `dup=P`        | datagram   | deliver the datagram twice                    |
//! | `corrupt=P`    | proxy      | flip one byte of a chunk or datagram          |
//! | `delay=P`      | proxy      | hold a chunk or datagram for `delay-ms`       |
//! | `delay-ms=MS`  | proxy      | the added latency (default 10)                |
//! | `min-len=N`    | proxy      | `corrupt`/`trunc` spare chunks under `N` bytes|
//! | `trunc=P`      | tcp        | forward half a chunk, then sever              |
//! | `split=P`      | tcp        | relay the chunk one byte per `write`          |
//! | `reset=P`      | tcp        | sever the connection before the chunk         |
//! | `hold=P`       | tcp        | stop relaying this direction, held open       |
//! | `cut-payload=N`| tcp        | once per proxy: cut the first server→client   |
//! |                |            | chunk of at least `N` bytes in half, sever    |
//!
//! Datagram probabilities are bounded by 0.95 (a transport that drops
//! everything makes loss accounting vacuous); every other by 1.

use crate::hash::{fold, unit};
use crate::spec::{self, Key, Set::Count, Set::Prob};

/// Domain of the process schedules (cells, shard ranges, backoff).
/// Historical: `lockdown_base::hash` tests hold the vector.
const PROCESS: u64 = 0x243F_6A88_85A3_08D3;
/// Domain of the wire schedules (TCP chunks, datagrams). Historical too.
const WIRE: u64 = 0x10cd_d047_2020_c4a5;

// One salt per fault kind, so no two kinds correlate.
const PANIC_SALT: u64 = 0x7061_6E69_6321_2121; // "panic!!!"
const TORN_SALT: u64 = 0x746F_726E_5F77_7274; // "torn_wrt"
const ENOSPC_SALT: u64 = 0x656E_6F73_7063_2121; // "enospc!!"
const STALL_SALT: u64 = 0x7374_616C_6C5F_7878; // "stall_xx"
const JITTER_SALT: u64 = 0x6A69_7474_6572_2121; // "jitter!!"
const WKILL_SALT: u64 = 0x776B_696C_6C21_2121; // "wkill!!!"
const WSTALL_SALT: u64 = 0x7773_7461_6C6C_2121; // "wstall!!"
const CORRUPT_SALT: u64 = 0x0005_7c1c_0477;
const TRUNC_SALT: u64 = 0x0057_c172_411c;
const SPLIT_SALT: u64 = 0x0005_7c15_9117;
const DELAY_SALT: u64 = 0x0005_7c1d_e1a1;
const RESET_SALT: u64 = 0x0005_7c14_e5e7;
const HOLD_SALT: u64 = 0x0005_7c15_7a11;
const DROP_SALT: u64 = 0x57c1_d409;
const DUP_SALT: u64 = 0x57c1_d119;
const REORDER_SALT: u64 = 0x57c1_4e04;
/// Picks which byte a corruption flips and what it is xored with.
const FLIP_SALT: u64 = 0x57c1_f119;

/// The bound of every datagram probability.
const DATAGRAM_MAX: f64 = 0.95;

/// What a fault key acts on. A command runs some planes and refuses the
/// keys of every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Every plane: the root seed.
    Every,
    /// The pass supervisor: per-`(cell, attempt)` faults, budget, backoff.
    Supervisor,
    /// Shard workers, per `(range, attempt)`, decided by the coordinator.
    Shard,
    /// The in-process wire of `figures --wire`: exporter fleet and transport.
    Wire,
    /// Datagrams: the in-process transport and the UDP proxy.
    Datagram,
    /// Both proxies, chunk or datagram alike.
    Proxy,
    /// TCP chunks at the TCP proxy.
    Tcp,
}

/// Every fault probability, cadence and budget of every plane: what one
/// `--chaos SPEC` says. [`FaultProfile::zero`] injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Root seed of every schedule.
    pub seed: u64,
    /// Per-(cell, attempt) probability of an injected worker panic.
    pub panic: f64,
    /// Per-(cell, attempt) probability of a torn segment write.
    pub torn: f64,
    /// Per-(cell, attempt) probability of a simulated ENOSPC on spill.
    pub enospc: f64,
    /// Per-cell attempt budget; a cell that fails every attempt is
    /// quarantined.
    pub attempts: u32,
    /// Base backoff before retry `n`, milliseconds, doubled per attempt.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff, milliseconds.
    pub backoff_cap_ms: u64,
    /// Per-(range, attempt) probability of a shard worker kill.
    pub wkill: f64,
    /// Per-(range, attempt) probability of a shard worker heartbeat stall.
    pub wstall: f64,
    /// Per-(cell, attempt) probability of an exporter stall timeout.
    pub stall: f64,
    /// Restart each exporter after this many emitted datagrams (0: never).
    pub restart_every: u32,
    /// Probability a delivered datagram swaps with the one before it.
    pub reorder: f64,
    /// Probability a datagram is swallowed.
    pub drop: f64,
    /// Probability a datagram that is not dropped is delivered twice.
    pub dup: f64,
    /// Probability a chunk or datagram has one byte flipped.
    pub corrupt: f64,
    /// Probability a chunk or datagram is held for [`Self::delay_ms`].
    pub delay: f64,
    /// Added latency of a delayed chunk or datagram, milliseconds.
    pub delay_ms: u64,
    /// `corrupt` and `trunc` only consider chunks of at least this many
    /// bytes, so small control traffic passes clean.
    pub min_len: usize,
    /// Probability a chunk is cut in half and the connection severed.
    pub trunc: f64,
    /// Probability a chunk is written one byte per syscall.
    pub split: f64,
    /// Probability the connection is severed before a chunk is relayed.
    pub reset: f64,
    /// Probability a direction stops relaying forever, held open.
    pub hold: f64,
    /// When non-zero, once per proxy: the first server→client chunk of at
    /// least this many bytes is forwarded halfway, then severed.
    pub cut_payload: usize,
}

impl FaultProfile {
    /// No faults, default budget, backoff and delay.
    pub fn zero() -> FaultProfile {
        FaultProfile {
            seed: 0,
            panic: 0.0,
            torn: 0.0,
            enospc: 0.0,
            attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            wkill: 0.0,
            wstall: 0.0,
            stall: 0.0,
            restart_every: 0,
            reorder: 0.0,
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_ms: 10,
            min_len: 0,
            trunc: 0.0,
            split: 0.0,
            reset: 0.0,
            hold: 0.0,
            cut_payload: 0,
        }
    }

    /// Parse a `--chaos` spec for `command`, which runs the planes `runs`
    /// (and the seed, which every plane reads). A key of another plane, an
    /// unknown key and a value past its row's bound are errors naming the
    /// key.
    pub fn parse(spec: &str, command: &str, runs: &[Plane]) -> Result<FaultProfile, String> {
        let mut cfg = FaultProfile::zero();
        spec::parse("chaos", KEYS, spec, &mut cfg, |name, plane| {
            if plane == Plane::Every || runs.contains(&plane) {
                Ok(())
            } else {
                Err(format!(
                    "chaos key {name:?} acts on the {plane:?} plane, which `{command}` does not run"
                ))
            }
        })?;
        if cfg.attempts == 0 {
            return Err("chaos attempts=0: the budget must be at least 1".into());
        }
        Ok(cfg)
    }
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::zero()
    }
}

/// The `--chaos` vocabulary: the table in the module docs. Counts past
/// a field's range saturate; no pass runs that long.
#[rustfmt::skip] // a table: one row per line
pub const KEYS: &[Key<FaultProfile, Plane>] = &[
    ("seed", Plane::Every, Count(|c, v| c.seed = v)),
    ("panic", Plane::Supervisor, Prob(1.0, |c, v| c.panic = v)),
    ("torn", Plane::Supervisor, Prob(1.0, |c, v| c.torn = v)),
    ("enospc", Plane::Supervisor, Prob(1.0, |c, v| c.enospc = v)),
    ("attempts", Plane::Supervisor, Count(|c, v| c.attempts = v.try_into().unwrap_or(u32::MAX))),
    ("backoff", Plane::Supervisor, Count(|c, v| c.backoff_base_ms = v)),
    ("cap", Plane::Supervisor, Count(|c, v| c.backoff_cap_ms = v)),
    ("wkill", Plane::Shard, Prob(1.0, |c, v| c.wkill = v)),
    ("wstall", Plane::Shard, Prob(1.0, |c, v| c.wstall = v)),
    ("stall", Plane::Wire, Prob(1.0, |c, v| c.stall = v)),
    ("restart", Plane::Wire, Count(|c, v| c.restart_every = v.try_into().unwrap_or(u32::MAX))),
    ("reorder", Plane::Wire, Prob(DATAGRAM_MAX, |c, v| c.reorder = v)),
    ("drop", Plane::Datagram, Prob(DATAGRAM_MAX, |c, v| c.drop = v)),
    ("dup", Plane::Datagram, Prob(DATAGRAM_MAX, |c, v| c.dup = v)),
    ("corrupt", Plane::Proxy, Prob(1.0, |c, v| c.corrupt = v)),
    ("delay", Plane::Proxy, Prob(1.0, |c, v| c.delay = v)),
    ("delay-ms", Plane::Proxy, Count(|c, v| c.delay_ms = v)),
    ("min-len", Plane::Proxy, Count(|c, v| c.min_len = v.try_into().unwrap_or(usize::MAX))),
    ("trunc", Plane::Tcp, Prob(1.0, |c, v| c.trunc = v)),
    ("split", Plane::Tcp, Prob(1.0, |c, v| c.split = v)),
    ("reset", Plane::Tcp, Prob(1.0, |c, v| c.reset = v)),
    ("hold", Plane::Tcp, Prob(1.0, |c, v| c.hold = v)),
    ("cut-payload", Plane::Tcp, Count(|c, v| c.cut_payload = v.try_into().unwrap_or(usize::MAX))),
];

/// A scheduled fault on the segment-spill path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The segment is written short (a torn write), then the spill fails.
    Torn,
    /// The spill fails up front with "no space left on device".
    Enospc,
}

/// Everything scheduled for one `(cell, attempt)` slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellFaults {
    /// Panic the worker at the top of the attempt.
    pub panic: bool,
    /// Fault the segment spill (cold archived passes only).
    pub write: Option<WriteFault>,
    /// Stall the exporter fleet past its timeout (wire mode only).
    pub stall: bool,
}

/// Faults for one `(range, attempt)` slot of a shard worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFaults {
    /// Kill the worker mid-range: no goodbye frame, the stream just dies.
    pub kill: bool,
    /// Stall the worker past the heartbeat timeout, alive but silent.
    pub stall: bool,
}

/// What to do with one TCP chunk. At most one fault fires per chunk, and
/// severing faults win over mangling ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFault {
    /// Relay unmodified.
    None,
    /// Sever the connection without relaying this chunk.
    Reset,
    /// Stop relaying this direction forever, holding the socket open.
    Hold,
    /// Relay the first half, then sever.
    Truncate,
    /// Flip the byte at `index` with the non-zero `xor`.
    Corrupt {
        /// Index of the byte to flip.
        index: usize,
        /// Non-zero value to xor it with.
        xor: u8,
    },
    /// Relay one byte per `write` call.
    Split,
    /// Sleep this many milliseconds, then relay unmodified.
    Delay(u64),
}

/// What to do with one datagram. At most one fault fires per datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramFault {
    /// Deliver unmodified.
    None,
    /// Swallow the datagram.
    Drop,
    /// Deliver it twice.
    Duplicate,
    /// Flip the byte at `index` with the non-zero `xor`, then deliver.
    Corrupt {
        /// Index of the byte to flip.
        index: usize,
        /// Non-zero value to xor it with.
        xor: u8,
    },
    /// Sleep this many milliseconds, then deliver.
    Delay(u64),
}

/// The keys of one `(cell, attempt)` slot.
fn cell_keys(wire_id: u32, day_number: i64, hour: u8, attempt: u32) -> [u64; 4] {
    let day = day_number as u64;
    [wire_id.into(), day, hour.into(), attempt.into()]
}

/// The one decider: every fault of a [`FaultProfile`], as a pure function
/// of the profile and the slot's keys.
#[derive(Debug, Clone, Copy)]
pub struct Schedule(FaultProfile);

impl Schedule {
    /// The schedule `profile` describes.
    pub fn new(profile: FaultProfile) -> Schedule {
        Schedule(profile)
    }

    fn hash(&self, domain: u64, salt: u64, keys: &[u64]) -> u64 {
        let parts = [self.0.seed, salt].into_iter().chain(keys.iter().copied());
        fold(domain, parts)
    }

    /// `unit(fold(domain, [seed, salt, keys…])) < p`, hashing nothing at
    /// `p == 0`.
    fn fires(&self, domain: u64, p: f64, salt: u64, keys: &[u64]) -> bool {
        p > 0.0 && unit(self.hash(domain, salt, keys)) < p
    }

    /// A flip of one of `len` bytes, drawn for `keys`.
    fn flip(&self, keys: &[u64], len: usize) -> (usize, u8) {
        let h = self.hash(WIRE, FLIP_SALT, keys);
        ((h as usize) % len.max(1), ((h >> 32) as u8).max(1))
    }

    /// The faults of one `(cell, attempt)` slot. Torn and ENOSPC are
    /// exclusive (a write fails one way at a time); torn is drawn first.
    pub fn decide(&self, wire_id: u32, day_number: i64, hour: u8, attempt: u32) -> CellFaults {
        let (c, keys) = (&self.0, cell_keys(wire_id, day_number, hour, attempt));
        let write = if self.fires(PROCESS, c.torn, TORN_SALT, &keys) {
            Some(WriteFault::Torn)
        } else if self.fires(PROCESS, c.enospc, ENOSPC_SALT, &keys) {
            Some(WriteFault::Enospc)
        } else {
            None
        };
        CellFaults {
            panic: self.fires(PROCESS, c.panic, PANIC_SALT, &keys),
            write,
            stall: self.fires(PROCESS, c.stall, STALL_SALT, &keys),
        }
    }

    /// The faults of one shard `(range, attempt)` slot, keyed on the
    /// half-open cell-index range so the schedule survives reassignment.
    /// Kill and stall are exclusive; kill is drawn first.
    pub fn decide_worker(&self, range_start: u32, range_end: u32, attempt: u32) -> WorkerFaults {
        let c = &self.0;
        let keys = [range_start.into(), range_end.into(), attempt.into()];
        let kill = self.fires(PROCESS, c.wkill, WKILL_SALT, &keys);
        WorkerFaults {
            kill,
            stall: !kill && self.fires(PROCESS, c.wstall, WSTALL_SALT, &keys),
        }
    }

    /// Bounded exponential backoff before retry `attempt` (1-based):
    /// `min(cap, base << (attempt-1))` plus seeded jitter in `[0, base)`,
    /// milliseconds. A zero base never sleeps.
    pub fn backoff_ms(&self, wire_id: u32, day_number: i64, hour: u8, attempt: u32) -> u64 {
        let (base, cap) = (self.0.backoff_base_ms, self.0.backoff_cap_ms);
        if base == 0 {
            return 0;
        }
        let exp = base.saturating_mul(1 << attempt.saturating_sub(1).min(16));
        let keys = cell_keys(wire_id, day_number, hour, attempt);
        let jitter = self.hash(PROCESS, JITTER_SALT, &keys) % base;
        exp.min(cap).saturating_add(jitter).min(cap)
    }

    /// The fate of TCP chunk `idx` of `len` bytes in direction `dir` of
    /// connection `conn`.
    pub fn chunk(&self, conn: u64, dir: u64, idx: u64, len: usize) -> ChunkFault {
        let (c, keys) = (&self.0, [conn, dir, idx]);
        let big_enough = len >= c.min_len;
        if self.fires(WIRE, c.reset, RESET_SALT, &keys) {
            ChunkFault::Reset
        } else if self.fires(WIRE, c.hold, HOLD_SALT, &keys) {
            ChunkFault::Hold
        } else if big_enough && self.fires(WIRE, c.trunc, TRUNC_SALT, &keys) {
            ChunkFault::Truncate
        } else if big_enough && self.fires(WIRE, c.corrupt, CORRUPT_SALT, &keys) {
            let (index, xor) = self.flip(&keys, len);
            ChunkFault::Corrupt { index, xor }
        } else if self.fires(WIRE, c.split, SPLIT_SALT, &keys) {
            ChunkFault::Split
        } else if self.fires(WIRE, c.delay, DELAY_SALT, &keys) {
            ChunkFault::Delay(c.delay_ms)
        } else {
            ChunkFault::None
        }
    }

    /// The one body of both datagram planes: the fault of datagram `idx`
    /// (of `len` bytes) of `stream` — a cell key in process, 0 at the UDP
    /// proxy, which counts arrivals. A dropped datagram is never
    /// duplicated, and only a single delivery is corrupted or delayed.
    pub fn datagram(&self, stream: u64, idx: u64, len: usize) -> DatagramFault {
        let (c, keys) = (&self.0, [stream, idx]);
        if self.fires(WIRE, c.drop, DROP_SALT, &keys) {
            DatagramFault::Drop
        } else if self.fires(WIRE, c.dup, DUP_SALT, &keys) {
            DatagramFault::Duplicate
        } else if len >= c.min_len && self.fires(WIRE, c.corrupt, CORRUPT_SALT, &keys) {
            let (index, xor) = self.flip(&keys, len);
            DatagramFault::Corrupt { index, xor }
        } else if self.fires(WIRE, c.delay, DELAY_SALT, &keys) {
            DatagramFault::Delay(c.delay_ms)
        } else {
            DatagramFault::None
        }
    }

    /// Whether delivered datagram `pos` of `stream` swaps with the one
    /// before it.
    pub fn reorders(&self, stream: u64, pos: u64) -> bool {
        self.fires(WIRE, self.0.reorder, REORDER_SALT, &[stream, pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::cases;

    const ALL: &[Plane] = &[
        Plane::Supervisor,
        Plane::Shard,
        Plane::Wire,
        Plane::Datagram,
        Plane::Proxy,
        Plane::Tcp,
    ];

    fn profile(spec: &str) -> FaultProfile {
        FaultProfile::parse(spec, "test", ALL).unwrap()
    }

    /// The grammar itself is tested in `crate::spec`; this pins the
    /// vocabulary: every key of the table lands in its own field.
    #[test]
    fn every_key_of_the_table_round_trips() {
        let spec = "seed=42,panic=0.1,torn=0.05,enospc=0.02,attempts=2,backoff=1,cap=50,\
                    wkill=0.2,wstall=0.15,stall=0.03,restart=64,reorder=0.08,drop=0.4,dup=0.15,\
                    corrupt=0.5,delay=0.3,delay-ms=25,min-len=128,trunc=0.1,split=0.2,\
                    reset=0.05,hold=0.01,cut-payload=512";
        assert_eq!(spec.split(',').count(), KEYS.len(), "exercise every key");
        let want = FaultProfile {
            seed: 42,
            panic: 0.1,
            torn: 0.05,
            enospc: 0.02,
            attempts: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 50,
            wkill: 0.2,
            wstall: 0.15,
            stall: 0.03,
            restart_every: 64,
            reorder: 0.08,
            drop: 0.4,
            dup: 0.15,
            corrupt: 0.5,
            delay: 0.3,
            delay_ms: 25,
            min_len: 128,
            trunc: 0.1,
            split: 0.2,
            reset: 0.05,
            hold: 0.01,
            cut_payload: 512,
        };
        assert_eq!(FaultProfile::parse(spec, "test", ALL), Ok(want));
        assert_eq!(profile(""), FaultProfile::zero());
        assert!(FaultProfile::parse("attempts=0", "test", ALL).is_err());
        // Each row has one bound: datagram kinds stop at 0.95.
        for (spec, needle) in [
            ("drop=0.96", "drop=0.96 is outside [0, 0.95]"),
            ("reorder=1", "reorder=1 is outside [0, 0.95]"),
            ("panic=1.5", "panic=1.5 is outside [0, 1]"),
        ] {
            let err = FaultProfile::parse(spec, "test", ALL).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn a_key_of_a_plane_the_command_does_not_run_names_key_and_command() {
        for (spec, runs) in [
            ("drop=0.1", &[Plane::Supervisor][..]),
            ("panic=0.1", &[Plane::Proxy, Plane::Tcp][..]),
            ("trunc=0.1", &[Plane::Supervisor, Plane::Shard][..]),
        ] {
            let err = FaultProfile::parse(spec, "cmd", runs).unwrap_err();
            let key = spec.split('=').next().unwrap();
            assert!(
                err.contains(&format!("{key:?}")) && err.contains("`cmd`"),
                "{err}"
            );
        }
        // The seed belongs to every plane.
        assert!(FaultProfile::parse("seed=3", "cmd", &[]).is_ok());
    }

    #[test]
    fn zero_profile_never_fires() {
        let s = Schedule::new(FaultProfile::zero());
        for attempt in 0..4 {
            for i in 0..24u8 {
                assert_eq!(s.decide(3, 18_341, i, attempt), CellFaults::default());
                assert_eq!(
                    s.decide_worker(u32::from(i), 99, attempt),
                    WorkerFaults::default()
                );
                assert_eq!(s.chunk(1, 0, u64::from(i), 1000), ChunkFault::None);
                assert_eq!(s.datagram(7, u64::from(i), 64), DatagramFault::None);
                assert!(!s.reorders(7, u64::from(i)));
            }
        }
    }

    #[test]
    fn cell_decisions_are_pure_functions_of_cell_and_attempt() {
        let cfg = profile("seed=7,panic=0.3,torn=0.2,enospc=0.2,stall=0.3");
        let (a, b) = (Schedule::new(cfg), Schedule::new(cfg));
        let mut fired = 0;
        for hour in 0..24 {
            for attempt in 0..3 {
                let d = a.decide(5, 18_400, hour, attempt);
                assert_eq!(d, b.decide(5, 18_400, hour, attempt));
                fired += u32::from(d != CellFaults::default());
            }
        }
        assert!(fired > 0, "a 30% schedule over 72 slots must fire");
        let other = Schedule::new(FaultProfile { seed: 8, ..cfg });
        let same = (0..24).all(|h| a.decide(5, 18_400, h, 0) == other.decide(5, 18_400, h, 0));
        assert!(!same, "seed must matter");
    }

    #[test]
    fn worker_decisions_are_pure_and_keyed_on_range() {
        let a = Schedule::new(profile("seed=11,wkill=0.4,wstall=0.4"));
        let (mut kills, mut stalls) = (0, 0);
        for start in (0u32..200).step_by(10) {
            for attempt in 0..3 {
                let d = a.decide_worker(start, start + 10, attempt);
                assert_eq!(d, a.decide_worker(start, start + 10, attempt), "pure");
                assert!(!(d.kill && d.stall), "kill and stall are exclusive");
                kills += u32::from(d.kill);
                stalls += u32::from(d.stall);
            }
        }
        assert!(
            kills > 0 && stalls > 0,
            "a 40% schedule over 60 slots must fire"
        );
        let shifted =
            (0..40).any(|s| a.decide_worker(s, s + 10, 0) != a.decide_worker(s, s + 11, 0));
        assert!(shifted, "range end must matter");
        // Worker faults never leak into the per-cell schedule.
        assert_eq!(a.decide(3, 18_341, 7, 0), CellFaults::default());
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let inj = Schedule::new(profile("backoff=10,cap=100"));
        for attempt in 1..12 {
            let d = inj.backoff_ms(1, 18_341, 3, attempt);
            assert!(d <= 100, "cap must bound every delay, got {d}");
            assert_eq!(d, inj.backoff_ms(1, 18_341, 3, attempt), "deterministic");
        }
        assert_eq!(
            Schedule::new(profile("backoff=0")).backoff_ms(1, 18_341, 3, 5),
            0
        );
    }

    /// Empirical fault rates track the configured probabilities: each
    /// schedule is a real Bernoulli draw, not a degenerate constant.
    #[test]
    fn rates_track_probabilities() {
        cases(32, |rng, _| {
            let (seed, p) = (rng.next_u64(), 0.05 + 0.9 * rng.next_f64());
            let s = Schedule::new(FaultProfile {
                seed,
                panic: p,
                drop: p,
                ..FaultProfile::zero()
            });
            let n = 2_000u32;
            let panics = (0..n)
                .filter(|&i| {
                    s.decide(i % 7, i64::from(i / 7), (i % 24) as u8, i % 3)
                        .panic
                })
                .count() as f64;
            let drops = (0..n)
                .filter(|&i| s.datagram(seed, u64::from(i), 64) == DatagramFault::Drop)
                .count() as f64;
            for rate in [panics / f64::from(n), drops / f64::from(n)] {
                assert!((rate - p).abs() < 0.08, "rate {rate:.3} vs p {p:.3}");
            }
        });
    }

    #[test]
    fn chunk_schedules_are_deterministic_and_seed_sensitive() {
        let cfg = profile("seed=3,corrupt=0.3,reset=0.1,split=0.2");
        let s = Schedule::new(cfg);
        let pattern = |s: &Schedule| -> Vec<ChunkFault> {
            (0..256u64).map(|i| s.chunk(i % 4, 1, i, 1000)).collect()
        };
        assert_eq!(pattern(&s), pattern(&s), "same keys, same fault");
        assert_ne!(
            pattern(&s),
            pattern(&Schedule::new(FaultProfile { seed: 4, ..cfg }))
        );
    }

    #[test]
    fn min_len_spares_small_chunks_and_flips_are_real() {
        let s = Schedule::new(profile("seed=1,corrupt=1,min-len=512"));
        for chunk in 0..128u64 {
            assert_eq!(s.chunk(0, 0, chunk, 100), ChunkFault::None, "under min-len");
            match s.chunk(3, 1, chunk, 512) {
                ChunkFault::Corrupt { index, xor } => assert!(index < 512 && xor != 0),
                other => panic!("corrupt=1 must always corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn datagram_faults_cover_the_vocabulary() {
        let s = Schedule::new(profile("seed=5,drop=0.3,dup=0.3,corrupt=0.3"));
        let mut seen = [false; 4];
        for i in 0..512u64 {
            match s.datagram(0, i, 64) {
                DatagramFault::Drop => seen[0] = true,
                DatagramFault::Duplicate => seen[1] = true,
                DatagramFault::Corrupt { index, xor } => {
                    assert!(index < 64 && xor != 0);
                    seen[2] = true;
                }
                DatagramFault::None => seen[3] = true,
                DatagramFault::Delay(_) => {}
            }
        }
        assert_eq!(seen, [true; 4]);
    }
}
