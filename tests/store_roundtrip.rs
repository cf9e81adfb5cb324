//! Property tests for the columnar store: every cell the trace engine can
//! generate must survive segment encode → decode bit-identically, and any
//! single flipped byte in a segment must be caught by the CRC with an
//! error that names the segment.
//!
//! This is the store-layer complement of `tests/prop_engine_cells.rs`:
//! that file round-trips engine flows through the wire codecs; this one
//! round-trips them through the archive's on-disk format.

use lockdown::core::{Context, Fidelity};
use lockdown::store::segment::{decode_segment, encode_segment};
use lockdown::store::StoreError;
use lockdown::topology::vantage::VantagePoint;
use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::time::Date;
use lockdown_traffic::plan::{Cell, Stream, TraceEmitter};
use std::sync::OnceLock;

/// Seeds exercised by the properties; contexts are cached because registry
/// and corpus synthesis dominate a `Fidelity::Test` context's cost.
const SEEDS: [u64; 3] = [0x10CD_2020, 23, 2_020];

fn ctx(seed_idx: usize) -> &'static Context {
    static CTXS: OnceLock<Vec<Context>> = OnceLock::new();
    &CTXS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&s| Context::with_seed(Fidelity::Test, s))
            .collect()
    })[seed_idx]
}

/// One cell's flows exactly as the engine would generate them: any cached
/// seed, any stream (every vantage point plus the EDU generator), any
/// day 1–28 of a month in `months`, any hour.
fn any_cell_flows(
    rng: &mut SplitMix,
    months: std::ops::Range<u64>,
) -> Vec<lockdown_flow::record::FlowRecord> {
    let c = ctx(rng.below(SEEDS.len() as u64) as usize);
    let streams: Vec<Stream> = VantagePoint::ALL
        .into_iter()
        .map(Stream::Vantage)
        .chain([Stream::Edu])
        .collect();
    let cell = Cell {
        stream: rng.pick(&streams),
        date: Date::new(2020, rng.range(months) as u8, rng.range(1..29) as u8),
        hour: rng.below(24) as u8,
    };
    let emitter = TraceEmitter::new(&c.registry, &c.corpus, c.config);
    let mut buf = Vec::new();
    emitter.generate_cell(cell, &mut buf);
    buf
}

/// Engine cell → encode → decode is the identity on flow records and
/// reports the exact record count in the footer.
#[test]
fn engine_cells_roundtrip_through_segments() {
    cases(24, |rng, _| {
        let flows = any_cell_flows(rng, 1..7);
        let bytes = encode_segment(&flows);
        let (decoded, footer) = decode_segment("prop.lks", &bytes).expect("clean decode");
        assert_eq!(&decoded, &flows);
        assert_eq!(footer.records, flows.len() as u64);
        if let (Some(min), Some(max)) = (
            flows.iter().map(|f| f.start.unix()).min(),
            flows.iter().map(|f| f.end.unix()).max(),
        ) {
            assert_eq!(footer.min_start, min);
            assert_eq!(footer.max_end, max);
        }
    });
}

/// Any single flipped byte is caught by the CRC (or a stricter check
/// downstream of it) and the error names the segment being decoded.
#[test]
fn flipped_byte_fails_decode_naming_the_segment() {
    cases(24, |rng, _| {
        let flows = any_cell_flows(rng, 3..4);
        let mut bytes = encode_segment(&flows);
        let pos = rng.below(bytes.len() as u64) as usize;
        bytes[pos] ^= rng.range(1..256) as u8;
        match decode_segment("seg-corrupt-test.lks", &bytes) {
            Ok(_) => panic!("corruption at byte {pos} undetected"),
            Err(StoreError::Corrupt { segment, .. }) => {
                assert_eq!(segment, "seg-corrupt-test.lks".to_string());
            }
            Err(other) => panic!("wrong error class: {other}"),
        }
    });
}
