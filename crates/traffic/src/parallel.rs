//! Worker-count policy for parallel trace generation.
//!
//! Generation cells are independently seeded (see [`crate::generate`]), so
//! the engine in `lockdown-core` fans a plan's cells out across threads and
//! merges with *no* change in output; this module only says how many.

/// Default worker count: physical parallelism, capped to keep small
/// sweeps from paying spawn overhead.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}
