//! The figures, pinned: CRC-32 of every one of the 22 rendered sections at
//! `Fidelity::Test`, for two seeds under both shipped scenarios, recorded
//! before the column-at-a-time segment decoder landed. Each context runs
//! twice against one fresh archive: cold (generate and spill) and warm
//! (replay every cell, generate none). Both passes must render the pinned
//! bytes, so a generator, consumer, encoder or decoder change that moves
//! one figure byte fails here by figure name, seed and scenario.
//!
//! A behavioural change that is meant to move figures (a calibration or
//! draw change, which also bumps `GENERATOR_STREAM`) re-records the rows
//! from the failure message, which prints the full table.

use lockdown::base::crc::crc32;
use lockdown::core::experiments::suite;
use lockdown::core::serve::figure_names;
use lockdown::core::{Context, Fidelity};
use lockdown::scenario::measures::ScenarioSpec;
use std::path::PathBuf;

/// The two seeds: the CLI's default and the benchmark's first.
const SEEDS: [u64; 2] = [0x10CD_2020, 301];

/// `(scenario file, seed, [crc32 of each section, in print order])`.
#[rustfmt::skip] // a table: one row per context
const PINS: &[(&str, u64, [u32; 22])] = &[
    ("covid-spring-2020.toml", 0x10CD_2020, [0x04bab497, 0x326e549e, 0x2ac5bbc1, 0x93c1d79a, 0x78a28f4c, 0xbf1ed619, 0x113886d9, 0xf41a479d, 0xab436d0b, 0x59aa71a7, 0xd73021dd, 0x03485e45, 0xfdbdf3f4, 0x0c4ce86b, 0x979d5b74, 0x63fe90db, 0x2c53c8e5, 0x1b2ab9b3, 0x1337c04a, 0x1017368c, 0x9b7ccff4, 0x924bc3be]),
    ("covid-spring-2020.toml", 301, [0x04bab497, 0x326e549e, 0x2ac5bbc1, 0x93c1d79a, 0x78a28f4c, 0xbf1ed619, 0x113886d9, 0xf41a479d, 0x5da9c717, 0x98a477b1, 0x9ce45647, 0xd1d4cd00, 0xabf4c91d, 0xdba6aa7d, 0xe90be37a, 0x82e4e306, 0xeaf7487d, 0x3ef04c08, 0x278224b9, 0xb2eaf005, 0xaf180b78, 0x924bc3be]),
    ("hypergiant-outage.toml", 0x10CD_2020, [0x04bab497, 0x326e549e, 0x97a5dae2, 0x93c1d79a, 0x9c6280ee, 0xbf1ed619, 0x2e61307d, 0xf41a479d, 0x40b3822a, 0x59aa71a7, 0xd73021dd, 0x03485e45, 0xfdbdf3f4, 0x0c4ce86b, 0x979d5b74, 0x63fe90db, 0x2c53c8e5, 0x1b2ab9b3, 0x1337c04a, 0x1017368c, 0x9b7ccff4, 0x62f6d7c4]),
    ("hypergiant-outage.toml", 301, [0x04bab497, 0x326e549e, 0x97a5dae2, 0x93c1d79a, 0x9c6280ee, 0xbf1ed619, 0x2e61307d, 0xf41a479d, 0xd4d78bed, 0x98a477b1, 0x9ce45647, 0xd1d4cd00, 0xabf4c91d, 0xdba6aa7d, 0xe90be37a, 0x82e4e306, 0xeaf7487d, 0x3ef04c08, 0x278224b9, 0xb2eaf005, 0xaf180b78, 0x62f6d7c4]),
];

fn shipped(name: &str) -> ScenarioSpec {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    ScenarioSpec::parse_toml(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lockdown-figure-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn crcs(renders: &[String]) -> Vec<u32> {
    renders.iter().map(|s| crc32(s.as_bytes())).collect()
}

/// Run one context cold then warm over a fresh archive and compare both
/// passes' sections with the pinned row.
fn check(scenario: &str, seed: u64) {
    let ctx = Context::with_scenario(Fidelity::Test, seed, shipped(scenario));
    let dir = tmp_dir(&format!("{}-{seed}", scenario.trim_end_matches(".toml")));
    let cold = suite::run_all_archived(&ctx, None, &dir).expect("cold pass");
    let warm = suite::run_all_archived(&ctx, None, &dir).expect("warm pass");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.stats.cells_generated, 0, "warm pass generated cells");
    assert!(warm.stats.cells_replayed > 0, "warm pass replayed nothing");

    let names = figure_names();
    let (cold, warm) = (crcs(&cold.renders()), crcs(&warm.renders()));
    assert_eq!(cold.len(), names.len());
    let row: Vec<String> = cold.iter().map(|c| format!("{c:#010x}")).collect();
    let recorded = format!("    ({scenario:?}, {seed}, [{}]),", row.join(", "));
    let pinned = PINS
        .iter()
        .find(|(s, sd, _)| *s == scenario && *sd == seed)
        .unwrap_or_else(|| {
            panic!("no pinned row for {scenario} seed {seed}; recorded:\n{recorded}")
        });
    for (pass, got) in [("cold", &cold), ("warm", &warm)] {
        for ((name, want), got) in names.iter().zip(pinned.2).zip(got) {
            assert_eq!(
                *got, want,
                "{pass} pass, {scenario} seed {seed}: section {name} moved; recorded:\n{recorded}"
            );
        }
    }
}

#[test]
fn covid_spring_sections_are_pinned_at_both_seeds() {
    for seed in SEEDS {
        check("covid-spring-2020.toml", seed);
    }
}

#[test]
fn hypergiant_outage_sections_are_pinned_at_both_seeds() {
    for seed in SEEDS {
        check("hypergiant-outage.toml", seed);
    }
}
