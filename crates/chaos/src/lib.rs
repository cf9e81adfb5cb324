//! Deterministic chaos injection for the engine supervisor.
//!
//! A production measurement plane survives worker panics, torn segment
//! writes, full disks and stalled exporters. To *test* that survival the
//! failures have to be reproducible: this crate turns a seed and a cell
//! identity into a fault schedule that is a pure function of
//! `(seed, cell, attempt)` — never of the worker thread, the wall clock or
//! the iteration order. Two runs of the same plan under the same
//! [`ChaosConfig`] inject exactly the same faults into exactly the same
//! cells, whatever the worker count, which is what makes a quarantine set
//! assertable in tests and CI.
//!
//! The crate has no external dependencies (only `lockdown-base`, the
//! shared hashing and spec-grammar floor) so every layer — engine, store,
//! CLI — can consume it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lockdown_base::hash::{fold, unit};
use lockdown_base::spec::{self, Key, Set::Count, Set::Prob};

/// Initial constant of every schedule fold. Historical: fault schedules
/// are pinned to it (`lockdown_base::hash` tests hold the vector).
const SCHEDULE_INIT: u64 = 0x243F_6A88_85A3_08D3;

/// Domain separators so the four fault families never correlate.
const PANIC_SALT: u64 = 0x7061_6E69_6321_2121; // "panic!!!"
const TORN_SALT: u64 = 0x746F_726E_5F77_7274; // "torn_wrt"
const ENOSPC_SALT: u64 = 0x656E_6F73_7063_2121; // "enospc!!"
const STALL_SALT: u64 = 0x7374_616C_6C5F_7878; // "stall_xx"
const JITTER_SALT: u64 = 0x6A69_7474_6572_2121; // "jitter!!"
const WKILL_SALT: u64 = 0x776B_696C_6C21_2121; // "wkill!!!"
const WSTALL_SALT: u64 = 0x7773_7461_6C6C_2121; // "wstall!!"

/// Payload of an injected worker panic. Carried through
/// `std::panic::panic_any` so the supervisor's panic hook can tell
/// scheduled chaos (silenced) from a genuine bug (reported as usual).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// Wire id of the stream whose cell panicked.
    pub wire_id: u32,
    /// Day number of the cell's date.
    pub day_number: i64,
    /// Hour of day.
    pub hour: u8,
    /// Which attempt the panic was scheduled for.
    pub attempt: u32,
}

/// A scheduled fault on the segment-spill path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The segment file is written short (a torn write), then the spill
    /// reports an I/O error — what a kill -9 mid-`write` leaves behind.
    Torn,
    /// The spill fails up front with a simulated "no space left on
    /// device"; nothing is written.
    Enospc,
}

/// Everything scheduled for one `(cell, attempt)` slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellChaos {
    /// Panic the worker at the top of the attempt.
    pub panic: bool,
    /// Fault the segment spill (cold archived passes only).
    pub write: Option<WriteFault>,
    /// Stall the exporter fleet past its timeout (wire mode only).
    pub stall: bool,
}

impl CellChaos {
    /// Whether this slot injects nothing.
    pub fn is_clean(&self) -> bool {
        !self.panic && self.write.is_none() && !self.stall
    }
}

/// Faults scheduled for one `(assignment range, attempt)` slot of a shard
/// worker. Unlike [`CellChaos`] these are decided by the *coordinator* —
/// the victim process cannot be trusted to fault itself once it is
/// supposed to be dead — but the decision is still a pure function of
/// `(seed, range, attempt)` so every coordinator replays the same faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerChaos {
    /// Kill the worker process mid-range (SIGKILL semantics: no goodbye
    /// frame, the TCP stream just dies).
    pub kill: bool,
    /// Stall the worker past the coordinator's heartbeat timeout; the
    /// process stays alive but stops answering.
    pub stall: bool,
}

impl WorkerChaos {
    /// Whether this slot injects nothing.
    pub fn is_clean(&self) -> bool {
        !self.kill && !self.stall
    }
}

/// The chaos surface: per-fault probabilities plus the supervisor's retry
/// budget and backoff policy, all parseable from one CLI spec string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Root seed of every fault schedule.
    pub seed: u64,
    /// Per-(cell, attempt) probability of an injected worker panic.
    pub panic: f64,
    /// Per-(cell, attempt) probability of a torn segment write.
    pub torn: f64,
    /// Per-(cell, attempt) probability of a simulated ENOSPC on spill.
    pub enospc: f64,
    /// Per-(cell, attempt) probability of an exporter stall timeout.
    pub stall: f64,
    /// Per-(range, attempt) probability of a shard worker kill.
    pub wkill: f64,
    /// Per-(range, attempt) probability of a shard worker heartbeat stall.
    pub wstall: f64,
    /// Per-cell attempt budget (minimum 1); a cell that fails every
    /// attempt is quarantined.
    pub attempts: u32,
    /// Base backoff delay before retry `n` (milliseconds, doubled per
    /// attempt).
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff delay (milliseconds).
    pub backoff_cap_ms: u64,
}

impl ChaosConfig {
    /// No injected faults, default budget and backoff: what every engine
    /// pass runs under unless told otherwise.
    pub fn zero() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            panic: 0.0,
            torn: 0.0,
            enospc: 0.0,
            stall: 0.0,
            wkill: 0.0,
            wstall: 0.0,
            attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
        }
    }

    /// Whether every fault probability is zero (the schedule never fires).
    pub fn is_zero(&self) -> bool {
        self.panic == 0.0
            && self.torn == 0.0
            && self.enospc == 0.0
            && self.stall == 0.0
            && self.wkill == 0.0
            && self.wstall == 0.0
    }

    /// Parse a CLI spec like
    /// `seed=7,panic=0.05,torn=0.02,enospc=0.01,stall=0.03,wkill=0.1,wstall=0.1,attempts=2,backoff=1,cap=50`.
    /// Every key is optional; unknown keys and out-of-range values are
    /// rejected loudly.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::zero();
        spec::parse("chaos", KEYS, spec, &mut cfg)?;
        if cfg.attempts == 0 {
            return Err("chaos attempts=0: the budget must be at least 1".into());
        }
        Ok(cfg)
    }
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig::zero()
    }
}

/// The `--chaos` vocabulary of the supervisor and the shard coordinator.
const KEYS: &[Key<ChaosConfig>] = &[
    ("seed", Count(|c, v| c.seed = v)),
    ("panic", Prob(|c, v| c.panic = v)),
    ("torn", Prob(|c, v| c.torn = v)),
    ("enospc", Prob(|c, v| c.enospc = v)),
    ("stall", Prob(|c, v| c.stall = v)),
    ("wkill", Prob(|c, v| c.wkill = v)),
    ("wstall", Prob(|c, v| c.wstall = v)),
    // Budgets past u32::MAX saturate; no pass runs that long.
    (
        "attempts",
        Count(|c, v| c.attempts = u32::try_from(v).unwrap_or(u32::MAX)),
    ),
    ("backoff", Count(|c, v| c.backoff_base_ms = v)),
    ("cap", Count(|c, v| c.backoff_cap_ms = v)),
];

/// The seeded fault schedule. Decisions are a pure function of
/// `(config seed, wire_id, day_number, hour, attempt)` — evaluating them
/// twice, in any order, from any thread, gives the same answer.
#[derive(Debug, Clone, Copy)]
pub struct ChaosInjector {
    cfg: ChaosConfig,
}

impl ChaosInjector {
    /// An injector for one configuration.
    pub fn new(cfg: ChaosConfig) -> ChaosInjector {
        ChaosInjector { cfg }
    }

    /// The configuration the schedule is drawn from.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// The schedule hash of one `(salt, cell, attempt)` slot.
    fn cell_hash(&self, salt: u64, wire_id: u32, day_number: i64, hour: u8, attempt: u32) -> u64 {
        fold(
            SCHEDULE_INIT,
            [
                self.cfg.seed,
                salt,
                u64::from(wire_id),
                day_number as u64,
                u64::from(hour),
                u64::from(attempt),
            ],
        )
    }

    fn draw(&self, salt: u64, wire_id: u32, day_number: i64, hour: u8, attempt: u32) -> f64 {
        unit(self.cell_hash(salt, wire_id, day_number, hour, attempt))
    }

    /// The faults scheduled for one `(cell, attempt)` slot. Torn and
    /// ENOSPC are mutually exclusive (a write fails one way at a time);
    /// torn is drawn first.
    pub fn decide(&self, wire_id: u32, day_number: i64, hour: u8, attempt: u32) -> CellChaos {
        if self.cfg.is_zero() {
            return CellChaos::default();
        }
        let write = if self.draw(TORN_SALT, wire_id, day_number, hour, attempt) < self.cfg.torn {
            Some(WriteFault::Torn)
        } else if self.draw(ENOSPC_SALT, wire_id, day_number, hour, attempt) < self.cfg.enospc {
            Some(WriteFault::Enospc)
        } else {
            None
        };
        CellChaos {
            panic: self.draw(PANIC_SALT, wire_id, day_number, hour, attempt) < self.cfg.panic,
            write,
            stall: self.draw(STALL_SALT, wire_id, day_number, hour, attempt) < self.cfg.stall,
        }
    }

    /// The worker-level faults scheduled for one `(assignment, attempt)`
    /// slot. The assignment is identified by its half-open cell-index
    /// range `[range_start, range_end)` in the deterministic plan order,
    /// so the schedule survives reassignment: when a range moves to
    /// another worker on attempt 2, the fresh draw is keyed on the same
    /// range and the new attempt number, never on which process runs it.
    /// Kill and stall are mutually exclusive (kill is drawn first) — a
    /// dead worker cannot also stall.
    pub fn decide_worker(&self, range_start: u32, range_end: u32, attempt: u32) -> WorkerChaos {
        if self.cfg.is_zero() {
            return WorkerChaos::default();
        }
        let draw = |salt: u64| {
            unit(fold(
                SCHEDULE_INIT,
                [
                    self.cfg.seed,
                    salt,
                    u64::from(range_start),
                    u64::from(range_end),
                    u64::from(attempt),
                ],
            ))
        };
        let kill = draw(WKILL_SALT) < self.cfg.wkill;
        WorkerChaos {
            kill,
            stall: !kill && draw(WSTALL_SALT) < self.cfg.wstall,
        }
    }

    /// Deterministic bounded exponential backoff before retry `attempt`
    /// (1-based): `min(cap, base << (attempt-1))` plus seeded jitter in
    /// `[0, base)`. Milliseconds. Zero base means no delay at all.
    pub fn backoff_ms(&self, wire_id: u32, day_number: i64, hour: u8, attempt: u32) -> u64 {
        let base = self.cfg.backoff_base_ms;
        if base == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1).min(16);
        let exp = base
            .saturating_mul(1u64 << shift)
            .min(self.cfg.backoff_cap_ms);
        let jitter = self.cell_hash(JITTER_SALT, wire_id, day_number, hour, attempt) % base;
        exp.saturating_add(jitter).min(self.cfg.backoff_cap_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_base::prop::cases;

    #[test]
    fn zero_config_never_fires() {
        let inj = ChaosInjector::new(ChaosConfig::zero());
        for attempt in 0..4 {
            for hour in 0..24 {
                assert!(inj.decide(3, 18_341, hour, attempt).is_clean());
            }
        }
    }

    /// The grammar itself is tested in `lockdown_base::spec`; this pins
    /// the vocabulary: every key of the table lands in its own field.
    #[test]
    fn every_key_of_the_table_round_trips() {
        let spec = "seed=42,panic=0.1,torn=0.05,enospc=0.02,stall=0.03,wkill=0.2,wstall=0.15,attempts=2,backoff=1,cap=50";
        assert_eq!(spec.split(',').count(), KEYS.len(), "exercise every key");
        let want = ChaosConfig {
            seed: 42,
            panic: 0.1,
            torn: 0.05,
            enospc: 0.02,
            stall: 0.03,
            wkill: 0.2,
            wstall: 0.15,
            attempts: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 50,
        };
        assert_eq!(ChaosConfig::parse(spec), Ok(want));
        // The empty spec is the zero config; a zero attempt budget is the
        // one value the grammar cannot rule out.
        assert!(ChaosConfig::parse("").unwrap().is_zero());
        assert!(ChaosConfig::parse("attempts=0").is_err());
        assert!(ChaosConfig::parse("frobnicate=1").is_err());
    }

    #[test]
    fn decisions_are_pure_functions_of_cell_and_attempt() {
        let cfg = ChaosConfig {
            seed: 7,
            panic: 0.3,
            torn: 0.2,
            enospc: 0.2,
            stall: 0.3,
            ..ChaosConfig::zero()
        };
        let a = ChaosInjector::new(cfg);
        let b = ChaosInjector::new(cfg);
        let mut fired = 0;
        for hour in 0..24 {
            for attempt in 0..3 {
                let d = a.decide(5, 18_400, hour, attempt);
                assert_eq!(d, b.decide(5, 18_400, hour, attempt));
                if !d.is_clean() {
                    fired += 1;
                }
            }
        }
        assert!(fired > 0, "a 30% schedule over 72 slots must fire");
        // A different seed gives a different schedule.
        let other = ChaosInjector::new(ChaosConfig { seed: 8, ..cfg });
        let same = (0..24).all(|h| a.decide(5, 18_400, h, 0) == other.decide(5, 18_400, h, 0));
        assert!(!same, "seed must matter");
    }

    #[test]
    fn worker_decisions_are_pure_and_keyed_on_range() {
        let cfg = ChaosConfig {
            seed: 11,
            wkill: 0.4,
            wstall: 0.4,
            ..ChaosConfig::zero()
        };
        let a = ChaosInjector::new(cfg);
        let b = ChaosInjector::new(cfg);
        let mut kills = 0;
        let mut stalls = 0;
        for start in (0u32..200).step_by(10) {
            for attempt in 0..3 {
                let d = a.decide_worker(start, start + 10, attempt);
                assert_eq!(d, b.decide_worker(start, start + 10, attempt), "pure");
                assert!(!(d.kill && d.stall), "kill and stall are exclusive");
                kills += u32::from(d.kill);
                stalls += u32::from(d.stall);
            }
        }
        assert!(kills > 0, "a 40% kill schedule over 60 slots must fire");
        assert!(stalls > 0, "a 40% stall schedule over 60 slots must fire");
        // The range bounds are part of the key: shifting the range end
        // re-draws the schedule.
        let shifted =
            (0..40).any(|s| a.decide_worker(s, s + 10, 0) != a.decide_worker(s, s + 11, 0));
        assert!(shifted, "range end must matter");
        // Worker faults never leak into the per-cell schedule.
        assert!(a.decide(3, 18_341, 7, 0).is_clean());
        // And a zero config never kills anyone.
        let calm = ChaosInjector::new(ChaosConfig::zero());
        assert!(calm.decide_worker(0, 10, 0).is_clean());
    }

    #[test]
    fn backoff_is_bounded_and_monotone_in_expectation() {
        let cfg = ChaosConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 100,
            ..ChaosConfig::zero()
        };
        let inj = ChaosInjector::new(cfg);
        for attempt in 1..12 {
            let d = inj.backoff_ms(1, 18_341, 3, attempt);
            assert!(d <= 100, "cap must bound every delay, got {d}");
            assert_eq!(d, inj.backoff_ms(1, 18_341, 3, attempt), "deterministic");
        }
        // Zero base means no sleeping at all (the test configuration).
        let fast = ChaosInjector::new(ChaosConfig {
            backoff_base_ms: 0,
            ..ChaosConfig::zero()
        });
        assert_eq!(fast.backoff_ms(1, 18_341, 3, 5), 0);
    }

    /// Empirical fault rates track the configured probabilities: the
    /// schedule is a real Bernoulli draw, not a degenerate constant.
    #[test]
    fn rates_track_probabilities() {
        cases(32, |rng, _| {
            let (seed, p) = (rng.next_u64(), 0.05 + 0.9 * rng.next_f64());
            let cfg = ChaosConfig {
                seed,
                panic: p,
                ..ChaosConfig::zero()
            };
            let inj = ChaosInjector::new(cfg);
            let n = 2_000u32;
            let fired = (0..n)
                .filter(|&i| {
                    inj.decide(i % 7, i64::from(i / 7), (i % 24) as u8, i % 3)
                        .panic
                })
                .count() as f64;
            let rate = fired / f64::from(n);
            assert!((rate - p).abs() < 0.08, "rate {rate:.3} vs p {p:.3}");
        });
    }
}
