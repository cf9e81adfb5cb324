//! The seeded case driver behind every property test.
//!
//! A property is a closure over a [`SplitMix`] stream and a `size`; it
//! draws its own inputs and asserts with the standard macros. Case seeds
//! come from a counter, so a run is the same cases every time and a
//! failure reproduces by running the test again: there is no shrinker, no
//! regression file and nothing to configure. `size` ramps from 1 to
//! `MAX_SIZE` (100) with the case index — scale collection lengths by it and
//! the first failing case is already the smallest one tried.

use crate::hash::{fold, SplitMix};

/// The `size` the last of several cases is handed.
pub(crate) const MAX_SIZE: usize = 100;

/// Initial constant of the case-seed fold.
const CASE_INIT: u64 = 0xCA5E_5EED_2020_0019;

/// Run `property` over `n` seeded cases of growing `size`. A panicking
/// case unwinds through here; its seed and size go to stderr on the way.
pub fn cases(n: u32, property: impl FnMut(&mut SplitMix, usize)) {
    run(n, property, &mut |line| eprintln!("{line}"));
}

fn run(n: u32, mut property: impl FnMut(&mut SplitMix, usize), report: &mut dyn FnMut(String)) {
    for case in 0..n {
        let seed = fold(CASE_INIT, [u64::from(case)]);
        let size = 1 + (MAX_SIZE - 1) * case as usize / (n.max(2) - 1) as usize;
        let _guard = Failing {
            case: (case, n, seed, size),
            report: &mut *report,
        };
        property(&mut SplitMix::new(seed), size);
    }
}

/// Reports its case — index, of how many, seed, size — when dropped by a
/// panic.
struct Failing<'a> {
    case: (u32, u32, u64, usize),
    report: &'a mut dyn FnMut(String),
}

impl Drop for Failing<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (case, n, seed, size) = self.case;
            (self.report)(format!(
                "property failed at case {case} of {n}: seed {seed:#018x}, size {size}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn cases_are_the_same_every_run_and_sizes_ramp_to_the_maximum() {
        let trace = |n| {
            let mut seen = Vec::new();
            cases(n, |rng, size| seen.push((rng.next_u64(), size)));
            seen
        };
        let run = trace(64);
        assert_eq!(run, trace(64));
        assert_eq!(run.len(), 64);
        assert_eq!((run[0].1, run[63].1), (1, MAX_SIZE));
        assert!(run.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 != w[1].0));
        // A single case is the smallest; none is no case at all.
        assert_eq!(trace(1)[0], (run[0].0, 1));
        assert!(trace(0).is_empty());
    }

    #[test]
    fn a_failing_property_reports_its_seed_and_size() {
        let mut lines = Vec::new();
        let mut tried = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(
                100,
                |rng, size| {
                    tried.push((rng.clone().next_u64(), size));
                    assert!(size < 40, "deliberate: too big");
                },
                &mut |line| lines.push(line),
            )
        }));
        assert!(outcome.is_err(), "the property's panic must propagate");
        // The run stopped at the first failure — the smallest size that
        // fails — and reported exactly that case.
        let &(first_draw, size) = tried.last().expect("cases ran");
        assert_eq!((size, tried.len()), (40, 40));
        let seed = fold(CASE_INIT, [39]);
        assert_eq!(SplitMix::new(seed).next_u64(), first_draw);
        assert_eq!(
            lines,
            [format!(
                "property failed at case 39 of 100: seed {seed:#018x}, size 40"
            )]
        );
    }
}
