//! Property tests for the consumer-state codec (the shard subsystem's
//! serialization layer).
//!
//! Two properties, for every suite consumer in this crate:
//!
//! * **Merge equivalence.** Observing a flow batch split across two
//!   consumers and merging the second into the first *through the codec*
//!   (serialize → decode → merge) must produce exactly the state one
//!   consumer observing both halves in turn produces. Canonical-encoding
//!   byte equality is the oracle — the codec sorts every map and set, so
//!   equal states encode identically.
//! * **Corruption detection.** Flipping any single byte of a frame must
//!   fail the decode, and the error must name the consumer the decode was
//!   *for* (CRC-32 detects all sub-32-bit burst errors, so a one-byte
//!   flip can never slip through).

mod support;

use lockdown_analysis::appclass::{Classifier, PaperClass};
use lockdown_analysis::codec::{encode_frame, merge_frame};
use lockdown_analysis::consumer::{
    AsTotalsConsumer, ClassUsageConsumer, FlowConsumer, HeatmapConsumer, HypergiantConsumer,
    PortConsumer,
};
use lockdown_analysis::edu::EduAnalysis;
use lockdown_analysis::linkutil::AsHourly;
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_topology::asn::{Asn, Region};
use lockdown_topology::registry::Registry;
use std::sync::{Arc, OnceLock};

/// Monday of the analysis week every generated flow lands in (heatmap and
/// per-day consumers are anchored here).
const BASE: Date = support::WEEK_START;

fn classifier() -> Arc<Classifier> {
    static C: OnceLock<Arc<Classifier>> = OnceLock::new();
    Arc::clone(C.get_or_init(|| {
        let registry = Registry::synthesize();
        Arc::new(Classifier::from_registry(&registry))
    }))
}

/// `1..=max` seeded flows (fewer at a smaller case `size`) anywhere in
/// [`BASE`]'s week.
fn week_flows(rng: &mut SplitMix, size: usize, max: usize) -> Vec<FlowRecord> {
    let n = 1 + rng.below(size.min(max) as u64) as usize;
    support::flows(rng, n, BASE.midnight(), 7 * 86_400)
}

/// Codec-mediated merge must equal sequential observation.
fn check_merge_equivalence<C>(make: impl Fn() -> C, flows: &[FlowRecord], split: usize)
where
    C: FlowConsumer,
{
    let split = split.min(flows.len());
    let mut a = make();
    a.observe_all(&flows[..split]);
    let mut b = make();
    b.observe_all(&flows[split..]);

    let mut direct = make();
    direct.observe_all(&flows[..split]);
    direct.observe_all(&flows[split..]);

    let frame = encode_frame(&b);
    let mut via_codec = a;
    merge_frame(&mut via_codec, &frame).expect("clean frame must decode");

    assert_eq!(
        encode_frame(&direct),
        encode_frame(&via_codec),
        "codec merge diverged from sequential observation for {}",
        direct.state_tag().name
    );
}

/// A one-byte flip anywhere in the frame must fail, naming the consumer.
fn check_corruption_detected<C>(make: impl Fn() -> C, flows: &[FlowRecord], at: usize, mask: u8)
where
    C: FlowConsumer,
{
    let mut c = make();
    c.observe_all(flows);
    let mut frame = encode_frame(&c);
    let at = at % frame.len();
    frame[at] ^= mask;
    let mut sink = make();
    let err = merge_frame(&mut sink, &frame).expect_err("a flipped byte must fail the decode");
    assert_eq!(
        err.consumer,
        sink.state_tag().name,
        "error must name the expected consumer (flip at byte {at}): {err}"
    );
}

#[test]
fn codec_merge_equals_direct_merge() {
    cases(256, |rng, size| {
        let flows = week_flows(rng, size, 39);
        let split = rng.below(40) as usize;
        let region = Region::CentralEurope;
        check_merge_equivalence(HourlyVolume::new, &flows, split);
        check_merge_equivalence(EduAnalysis::new, &flows, split);
        check_merge_equivalence(|| PortConsumer::new(region), &flows, split);
        check_merge_equivalence(
            || HypergiantConsumer::new(region, Asn(64_496)),
            &flows,
            split,
        );
        check_merge_equivalence(|| AsTotalsConsumer::all(region), &flows, split);
        check_merge_equivalence(
            || AsTotalsConsumer::touching(region, Asn(64_496)),
            &flows,
            split,
        );
        check_merge_equivalence(|| HeatmapConsumer::new(classifier(), BASE), &flows, split);
        check_merge_equivalence(
            || ClassUsageConsumer::new(classifier(), PaperClass::Email),
            &flows,
            split,
        );
        check_merge_equivalence(|| AsHourly::new(BASE), &flows, split);
    });
}

#[test]
fn one_flipped_byte_fails_with_consumer_named() {
    cases(256, |rng, size| {
        let flows = week_flows(rng, size, 19);
        let at = rng.next_u64() as usize;
        let mask = rng.range(1..256) as u8;
        let region = Region::CentralEurope;
        check_corruption_detected(HourlyVolume::new, &flows, at, mask);
        check_corruption_detected(EduAnalysis::new, &flows, at, mask);
        check_corruption_detected(|| PortConsumer::new(region), &flows, at, mask);
        check_corruption_detected(
            || HypergiantConsumer::new(region, Asn(64_496)),
            &flows,
            at,
            mask,
        );
        check_corruption_detected(|| AsTotalsConsumer::all(region), &flows, at, mask);
        check_corruption_detected(
            || HeatmapConsumer::new(classifier(), BASE),
            &flows,
            at,
            mask,
        );
        check_corruption_detected(
            || ClassUsageConsumer::new(classifier(), PaperClass::Email),
            &flows,
            at,
            mask,
        );
        check_corruption_detected(|| AsHourly::new(BASE), &flows, at, mask);
    });
}

/// A frame for one consumer must be rejected by every *other*
/// consumer, with the receiving (expected) consumer named.
#[test]
fn misrouted_frames_are_rejected() {
    cases(256, |rng, size| {
        let flows = week_flows(rng, size, 9);
        let mut volume = HourlyVolume::new();
        volume.observe_all(&flows);
        let frame = encode_frame(&volume);
        let mut edu = EduAnalysis::new();
        let err = merge_frame(&mut edu, &frame).expect_err("wrong tag must be rejected");
        assert_eq!(err.consumer, "EduAnalysis");
        assert!(err.to_string().contains("HourlyVolume"), "{}", err);
    });
}
